"""Per-layer tracing installed from outside the korteweg package.

``Tracer.install`` replaces each traced function with a timing wrapper in
every korteweg module namespace that holds it (and on its class, for
methods), plus the four numpy.fft transforms the package calls through
``np.fft``.  ``Tracer.remove`` puts every original object back.  Spans
nest on a stack, so each span's self time is its duration minus the time
covered by its child spans.  Spans are aggregated in memory per stage
name and per (parent, child) edge.

Stage names are ``<layer>.<function>``; the same names are meant for
in-program tracing later.
"""

from __future__ import annotations

import hashlib
import importlib
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# layer -> traced attributes of korteweg.<layer> (Class.method for methods)
LAYERS = {
    "verification": ("estimate_rbound", "family_apply",
                     "lambda_derivative_family"),
    "resolvent": ("random_full_data", "solve_gamma_zero", "extend_even",
                  "extend_zero", "correct_boundary_data_hat",
                  "PipelineSolution.s_blocks", "PipelineSolution.t_blocks",
                  "data_blocks", "fx_norm", "apply_G", "solve_general",
                  "residual_full"),
    "halfspace": ("solve_reduced_hat", "s6_profiles", "channel_table"),
    "symbols": ("roots_t", "frak_symbols", "lopatinskii", "kernel_M",
                "stable_divided_difference", "whole_space_symbol_P"),
    "certify": ("scan_lower_bound", "empirical_sigma_star",
                "certify_multiplier"),
    "manufactured": ("InteriorBump.random", "resolvent_rows_of_bump"),
}
# methods of these classes are reported under the bare method name
_BARE_METHOD_OF = {"PipelineSolution"}

FFT_FUNCS = ("fftn", "ifftn", "fft", "ifft")

COUNTS = ("resolvent.neumann_iterations", "resolvent.block_bytes",
          "fft.points")


def stage_names():
    """Every ``<layer>.<function>`` stage the tracer can report."""
    return [_stage(layer, path) for layer, paths in LAYERS.items()
            for path in paths]


def _stage(layer, path):
    owner, _, attr = path.rpartition(".")
    return f"{layer}.{attr}" if owner in _BARE_METHOD_OF else f"{layer}.{path}"


def _block_bytes(blocks):
    return sum(np.asarray(b).nbytes for b in blocks)


def _solve_key(data, lam):
    h = hashlib.blake2b(digest_size=16)
    for arr in (data.d, data.f, data.g, data.h):
        h.update(np.ascontiguousarray(arr).tobytes())
    h.update(np.asarray(lam, dtype=complex).tobytes())
    return h.digest()


class Tracer:
    """Aggregated spans and exact counts for one traced phase."""

    def __init__(self):
        self.missing = []
        self._stack = []          # [name, child_seconds] per open span
        self._patches = []        # (owner, attr, original), in install order
        self.reset()

    def reset(self):
        """Drop the aggregates (the wrappers stay installed)."""
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.edges = defaultdict(int)
        self.counts = defaultdict(int)
        self.solve_calls = 0
        self.distinct_solves = 0
        self._seen_solves = set()

    # -- spans ------------------------------------------------------------

    def _enter(self, name):
        parent = self._stack[-1][0] if self._stack else None
        self.edges[(parent, name)] += 1
        self._stack.append([name, 0.0])

    def _leave(self, name, elapsed):
        _, child = self._stack.pop()
        if self._stack:
            self._stack[-1][1] += elapsed
        self.calls[name] += 1
        self.self_s[name] += elapsed - child

    def _wrap(self, name, fn, before=None, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            tracer._enter(name)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._leave(name, perf_counter() - t0)
            if after is not None:
                after(out)
            return out

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        wrapper.__wrapped__ = fn
        return wrapper

    # -- hooks for exact counts -------------------------------------------

    def new_op(self):
        """Distinct solves are counted within one op."""
        self._seen_solves.clear()

    def _on_solve(self, args, kwargs):
        data = args[0] if args else kwargs["data"]
        lam = args[1] if len(args) > 1 else kwargs["lam"]
        key = _solve_key(data, lam)
        self.solve_calls += 1
        if key not in self._seen_solves:
            self._seen_solves.add(key)
            self.distinct_solves += 1

    def _on_blocks(self, out):
        self.counts["resolvent.block_bytes"] += _block_bytes(out)

    def _on_neumann(self, out):
        self.counts["resolvent.neumann_iterations"] += out[1].iterations

    def _on_fft(self, args, kwargs):
        arr = args[0] if args else kwargs["a"]
        self.counts["fft.points"] += np.asarray(arr).size

    # -- installation -----------------------------------------------------

    def _hooks(self, stage):
        if stage == "resolvent.solve_gamma_zero":
            return self._on_solve, None
        if stage in ("resolvent.s_blocks", "resolvent.t_blocks",
                     "resolvent.data_blocks"):
            return None, self._on_blocks
        if stage == "resolvent.solve_general":
            return None, self._on_neumann
        return None, None

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every traced function that exists at this commit."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        self.missing = []
        layers = {layer: importlib.import_module(f"korteweg.{layer}")
                  for layer in LAYERS}
        pkg_modules = [m for n, m in list(sys.modules.items())
                       if m is not None
                       and (n == "korteweg" or n.startswith("korteweg."))]
        for layer, paths in LAYERS.items():
            module = layers[layer]
            for path in paths:
                stage = _stage(layer, path)
                before, after = self._hooks(stage)
                owner_name, _, attr = path.rpartition(".")
                if owner_name:
                    owner = getattr(module, owner_name, None)
                    raw = getattr(owner, "__dict__", {}).get(attr)
                    if raw is None:
                        self.missing.append(stage)
                        continue
                    if isinstance(raw, classmethod):
                        wrapped = classmethod(self._wrap(stage, raw.__func__,
                                                         before, after))
                    else:
                        wrapped = self._wrap(stage, raw, before, after)
                    self._set(owner, attr, wrapped)
                    continue
                fn = module.__dict__.get(attr)
                if fn is None:
                    self.missing.append(stage)
                    continue
                wrapped = self._wrap(stage, fn, before, after)
                # every namespace where the function is looked up
                for mod in pkg_modules:
                    for name, value in list(vars(mod).items()):
                        if value is fn:
                            self._set(mod, name, wrapped)
        for name in FFT_FUNCS:
            fn = np.fft.__dict__[name]
            self._set(np.fft, name, self._wrap(f"fft.{name}", fn,
                                               before=self._on_fft))

    def remove(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.remove()

    # -- reporting --------------------------------------------------------

    def metrics(self, per: float):
        """Per-layer metrics, every total divided by ``per``."""
        out = {}
        for stage in stage_names():
            if stage in self.missing:
                continue
            out[f"{stage}.calls"] = self.calls[stage] / per
            out[f"{stage}.self_s"] = self.self_s[stage] / per
        fft = [f"fft.{n}" for n in FFT_FUNCS]
        out["fft.calls"] = sum(self.calls[s] for s in fft) / per
        out["fft.self_s"] = sum(self.self_s[s] for s in fft) / per
        for name in COUNTS:
            out[name] = self.counts[name] / per
        # no solve at all wastes nothing
        out["resolvent.distinct_solve_frac"] = (
            self.distinct_solves / self.solve_calls
            if self.solve_calls else 1.0)
        return out

    def edge_table(self):
        """(parent, child, calls) rows, most frequent first."""
        rows = [(p or "-", c, n) for (p, c), n in self.edges.items()]
        return sorted(rows, key=lambda r: (-r[2], r[0], r[1]))
