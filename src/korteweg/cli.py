"""Command-line front end for scripted and CI runs.

Subcommands: validate, scan, solve, rbound, probe, report.  A single JSON
config document names the scenario; individual flags override config
keys.  ``SCENARIOS`` lists the config keys each scenario reads; any other
key is an invalid config, so every accepted key reaches the report, and
a value of the wrong type or out of range is refused under its key.
Each runner returns its ``Output`` and ``run`` writes it, so the report
scenario calls the runners of the others.
Exit codes: 0 success, 2 validation failure, 3 numerical failure,
4 I/O error.
"""

from __future__ import annotations

import argparse
import cmath
import datetime
import json
import math
import platform
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__, fieldio
from .certify import (GridSpec, certify_registry, empirical_sigma_star,
                      scan_lower_bound)
from .errors import (EmptyGrid, KortewegError, NeumannDiverged,
                     SingularLopatinskii)
from .halfspace import residual_reduced, solve_reduced
from .manufactured import (InteriorBump, ManufacturedPair, manufactured_data,
                           manufactured_fields)
from .model import MaterialParams, Sector, derive_constants, validate
from .resolvent import (HalfGeometry, contraction_probe, residual_full,
                        solve_general)
from .verification import FAMILIES, estimate_rbound
from .wholespace import BoxGrid, band_limited_field, residual_whole, \
    solve_whole

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

# config keys every scenario reads
ALWAYS_READ = {"scenario", "params", "out"}
# the SCENARIOS row of scan with target "certificates"; no config names it
CERTIFICATES = "scan certificates"
FORMATS = ("json", "csv")
# the keys of a scan's "grid" object
GRID_KEYS = ("n_lambda", "n_theta", "n_xi")
# points per axis of each scenario's grid when the config names none
POINTS_PER_AXIS = {"solve-whole": 128, "solve-half": 128, "solve-full": 128,
                   "rbound": 16, "probe-contraction": 32}
# trials of an rbound estimate when the config names none; the report
# runs twice as many and reads this many off the front of their ratios
RBOUND_TRIALS = 200


def _typed(raw, kind, name: str):
    """``raw`` as a finite ``kind`` (int or float), refused under its
    config name ``name`` otherwise; an int must be integral."""
    try:
        value = kind(raw)
        ok = math.isfinite(value) and float(raw) == value
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        noun = "integer" if kind is int else "number"
        raise ValueError(f"{name} must be a finite {noun}, got {raw!r}")
    return value


@dataclass
class ScenarioConfig:
    scenario: str
    params: MaterialParams
    out: str | None = None
    extra: dict = field(default_factory=dict)

    @classmethod
    def from_dict(cls, obj: dict) -> "ScenarioConfig":
        known = ALWAYS_READ.union(*(keys for _, keys in SCENARIOS.values()))
        unknown = set(obj) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        if "scenario" not in obj:
            raise ValueError("config requires a scenario")
        scenario = obj["scenario"]
        if scenario not in SCENARIOS or scenario == CERTIFICATES:
            raise ValueError(f"unknown scenario {scenario!r}")
        if scenario == "scan" and obj.get("target") == "certificates":
            scenario = CERTIFICATES
        reads = SCENARIOS[scenario][1]
        ignored = set(obj) - reads - ALWAYS_READ
        if ignored:
            raise ValueError(f"keys {sorted(ignored)} have no effect "
                             f"on {scenario}")
        if obj.get("format", "json") not in FORMATS:
            raise ValueError(f"format must be one of {list(FORMATS)}, "
                             f"got {obj['format']!r}")
        if not isinstance(obj.get("out", ""), (str, type(None))):
            raise ValueError(f"out must be a path, got {obj['out']!r}")
        raw_params = obj.get("params") or {}
        if raw_params:
            params = MaterialParams.from_json(raw_params)
        else:
            # reference parameter set for flag-only invocations
            params = MaterialParams(1.0, 1.0, 2.0)
        return cls(scenario=scenario, params=params, out=obj.get("out"),
                   extra={k: obj[k] for k in obj if k in reads})

    def get(self, key: str, default, kind=float):
        """The config's ``key`` as a finite ``kind`` (int or float), or
        ``default`` when it is missing; any other value is refused."""
        return _typed(self.extra.get(key, default), kind, key)

    @property
    def seed(self) -> int:
        seed = self.get("seed", 0, int)
        if seed < 0:
            raise ValueError(f"seed = {seed} must be >= 0")
        return seed

    @property
    def fmt(self) -> str:
        return self.extra.get("format", "json")

    def sector(self, sigma: float, delta: float) -> Sector:
        """The config's sector; a missing sigma or delta takes the default.

        An invalid value is refused with the name of its key.
        """
        sigma = self.get("sigma", sigma)
        delta = self.get("delta", delta)
        if not 0.0 < sigma < math.pi / 2:
            raise ValueError(f"sigma = {sigma} must lie in (0, pi/2)")
        if delta < 0.0:
            raise ValueError(f"delta = {delta} must be nonnegative")
        return Sector(sigma, delta)


@dataclass
class Output:
    """What a scenario writes: its JSON report ``<name>.json``; the CSV
    tables {name: (header, rows)} when the format is csv; and the fields
    {file name: (array, metadata)} when the config names an out
    directory."""

    name: str
    payload: dict
    tables: dict = field(default_factory=dict)
    fields: dict = field(default_factory=dict)


def _csv(header, rows) -> str:
    lines = [",".join(header)]
    lines += [",".join(f"{v:.17g}" if isinstance(v, float) else str(v)
                       for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def _write(cfg: ScenarioConfig, output: Output):
    """Write ``output`` under ``cfg.out``, or print it when there is none."""
    payload = dict(output.payload)
    payload["timestamp"] = datetime.datetime.now(
        datetime.timezone.utc).isoformat()
    files = {f"{output.name}.json": json.dumps(payload, sort_keys=True,
                                               indent=1)}
    if cfg.fmt == "csv":
        files.update((f"{name}.csv", _csv(*table))
                     for name, table in output.tables.items())
    if not cfg.out:
        for text in files.values():
            print(text.removesuffix("\n"))
        return
    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (out_dir / name).write_text(text)
    for name, (array, meta) in output.fields.items():
        fieldio.save_field(out_dir / name, array, meta)


def _run_validate(cfg: ScenarioConfig) -> Output:
    verdict = validate(cfg.params)
    payload = {"ok": verdict.ok,
               "failures": [f.__name__ for f in verdict.failures],
               "params": cfg.params.to_json()}
    if verdict.ok:
        dc = derive_constants(cfg.params)
        payload["derived"] = {"eta_w": dc.eta_w, "sigma_w": dc.sigma_w,
                              "s1": [dc.s1.real, dc.s1.imag],
                              "s2": [dc.s2.real, dc.s2.imag]}
    return Output("validate", payload)


def _scan_grid(cfg: ScenarioConfig) -> GridSpec:
    """The config's scan grid; the ``grid`` object may set only
    GRID_KEYS."""
    g = cfg.extra.get("grid", {})
    if not isinstance(g, dict) or not set(g) <= set(GRID_KEYS):
        raise ValueError(f"grid must be an object with keys among "
                         f"{list(GRID_KEYS)}, got {g!r}")
    return GridSpec(**{k: _typed(v, int, f"grid.{k}") for k, v in g.items()})


def _scan_pair(cfg: ScenarioConfig, dc):
    """The config's scan with its (xi, lam, ratio) points, and the scan
    on the 2x refined grid."""
    target = cfg.extra.get("target", "l1")
    sector = cfg.sector(dc.sigma_w + 0.2, 0.0)
    grid = _scan_grid(cfg)
    result, points = scan_lower_bound(target, sector, grid, cfg.params, dc,
                                      return_points=True)
    refined = scan_lower_bound(target, sector, grid.refine(2), cfg.params, dc)
    return result, points, refined


def _run_scan(cfg: ScenarioConfig) -> Output:
    dc = derive_constants(cfg.params)
    result, (xi, lam, vals), refined = _scan_pair(cfg, dc)
    target = result.target
    sigma_star = empirical_sigma_star(cfg.params, target, dc=dc) \
        if target in ("l1", "l2") else None
    payload = {"scan": result.to_json(), "refined": refined.to_json(),
               "empirical_sigma_star": sigma_star}
    rows = ((float(a), float(b.real), float(b.imag), float(v))
            for a, b, v in zip(xi, lam, vals))
    return Output(f"scan_{target}", payload, tables={f"scan_{target}": (
        ["xi", "re_lambda", "im_lambda", "ratio"], rows)})


def _run_certificates(cfg: ScenarioConfig) -> Output:
    names = cfg.extra.get("symbols")
    if "symbols" in cfg.extra and not (isinstance(names, list) and names
                                       and all(isinstance(n, str)
                                               for n in names)):
        raise ValueError(f"symbols must be a nonempty list of symbol ids, "
                         f"got {names!r}")
    sigma_star, _, certs = certify_registry(
        cfg.params, names=names, max_alpha=cfg.get("max_alpha", 2, int))
    return Output("certificates", {
        "sigma_star": sigma_star,
        "certificates": [c.to_json() for c in certs]})


def _admissible(cfg: ScenarioConfig, raw, name: str) -> complex:
    """The config value ``raw`` (a number or [re, im]) as a lambda,
    refused under its config name ``name`` unless it is nonzero with
    |arg lambda| < pi - sigma_w."""
    parts = [raw, 0.0] if isinstance(raw, (int, float)) else raw
    if not (isinstance(parts, list) and len(parts) == 2):
        raise ValueError(f"{name} must be a number or [re, im], got {raw!r}")
    lam = complex(*(_typed(v, float, name) for v in parts))
    rim = math.pi - derive_constants(cfg.params).sigma_w
    if lam == 0 or abs(cmath.phase(lam)) >= rim:
        raise ValueError(f"{name} {lam} must be nonzero with "
                         f"|arg lambda| < pi - sigma_w = {rim:.6g}")
    return lam


def _lambda_of(cfg: ScenarioConfig) -> complex:
    """The config's lambda, refused unless admissible."""
    return _admissible(cfg, cfg.extra.get("lambda", [100.0, 0.0]), "lambda")


def _points_per_axis(cfg: ScenarioConfig) -> int:
    return cfg.get("points_per_axis", POINTS_PER_AXIS[cfg.scenario], int)


def _geometry(cfg: ScenarioConfig) -> HalfGeometry:
    height = cfg.get("height", 10.0)
    if height <= 0.0:
        raise ValueError(f"height = {height} must be positive")
    return HalfGeometry(dim=2, points_per_axis=_points_per_axis(cfg),
                        height=height)


def _run_solve_whole(cfg: ScenarioConfig) -> Output:
    lam = _lambda_of(cfg)
    grid = BoxGrid(dim=2, points_per_axis=_points_per_axis(cfg))
    rng = np.random.default_rng(cfg.seed)
    d = band_limited_field(grid, rng, 8)
    f = band_limited_field(grid, rng, 8, components=2)
    sol = solve_whole(d, f, lam, cfg.params, grid)
    rep = residual_whole(sol, d, f, lam, cfg.params)
    return Output("solve_whole", {"lambda": [lam.real, lam.imag],
                                  "residual": rep.to_json()},
                  fields={"rho.bin": (sol.rho, {
                      "dim": 2, "M": grid.points_per_axis,
                      "L": grid.period, "components": 1})})


def _run_solve_half(cfg: ScenarioConfig) -> Output:
    lam = _lambda_of(cfg)
    geo = _geometry(cfg)
    rng = np.random.default_rng(cfg.seed)
    tan = geo.tangential
    g = (rng.standard_normal((2,) + tan.shape)
         + 1j * rng.standard_normal((2,) + tan.shape))
    h = (rng.standard_normal(tan.shape)
         + 1j * rng.standard_normal(tan.shape))
    red = solve_reduced(g, h, lam, tan, geo.normal_samples(), cfg.params)
    res = residual_reduced(red, g, h)
    return Output("solve_half", {"lambda": [lam.real, lam.imag],
                                 "residual": res.to_json()})


def _run_solve_full(cfg: ScenarioConfig) -> Output:
    """Manufactured fixture, general solve, residual report."""
    lam = _lambda_of(cfg)
    geo = _geometry(cfg)
    rng = np.random.default_rng(cfg.seed)
    pair = ManufacturedPair(geo.tangential,
                            InteriorBump.random(geo.tangential, rng, kmax=4),
                            None)
    gamma = cfg.get("gamma", cfg.params.gamma)
    params = replace(cfg.params, gamma=gamma)
    data = manufactured_data(pair, geo, lam, params)
    sol, state = solve_general(data, lam, params)
    res = residual_full(sol, data)
    rho_star, _ = manufactured_fields(pair, geo)
    rec = float(np.max(np.abs(sol.rho() - rho_star))
                / np.max(np.abs(rho_star)))
    return Output("solve_full", {"lambda": [lam.real, lam.imag],
                                 "gamma": gamma,
                                 "residual": res.to_json(),
                                 "max_relative_residual": res.max_relative(),
                                 "recovery_error": rec,
                                 "neumann": state.to_json()})


def _rbound_estimates(cfg: ScenarioConfig, trials: int) -> dict:
    """{family: (estimate, trial ratios)} of ``trials`` trials for each
    of the config's families."""
    fams = cfg.extra.get("family", list(FAMILIES))
    fams = [fams] if isinstance(fams, str) else fams
    if not (isinstance(fams, list) and fams and all(
            fam in FAMILIES for fam in fams)):
        raise ValueError(f"family must be one of {list(FAMILIES)} or a "
                         f"nonempty list of them, got {fams!r}")
    dc = derive_constants(cfg.params)
    sector = cfg.sector(dc.sigma_w + 0.4, 0.5)
    geo = _geometry(cfg)
    m_max = cfg.get("m_max", 8, int)
    return {fam: estimate_rbound(fam, sector, cfg.params, geo, m_max=m_max,
                                 trials=trials, seed=cfg.seed, dc=dc,
                                 return_ratios=True)
            for fam in fams}


def _run_rbound(cfg: ScenarioConfig) -> Output:
    estimates = _rbound_estimates(cfg, cfg.get("trials", RBOUND_TRIALS, int))
    return Output(
        "rbound",
        {"estimates": {fam: est.to_json()
                       for fam, (est, _) in estimates.items()}},
        tables={f"rbound_{fam}": (["trial", "ratio"],
                                  list(enumerate(map(float, ratios))))
                for fam, (_, ratios) in estimates.items()})


def _run_probe(cfg: ScenarioConfig) -> Output:
    geo = _geometry(cfg)
    raw = cfg.extra.get("lambdas", [1.0, 10.0, 100.0, 1e3, 1e4])
    if not (isinstance(raw, list) and raw):
        raise ValueError(f"lambdas must be a nonempty list, got {raw!r}")
    lambdas = [_admissible(cfg, v, f"lambdas[{i}]")
               for i, v in enumerate(raw)]
    rows = contraction_probe(cfg.params, geo, lambdas, seed=cfg.seed)
    payload = {"rows": [{"lambda": [lam.real, lam.imag], "ratio": r}
                        for lam, r in rows]}
    return Output("probe", payload, tables={"probe": (
        ["abs_lambda", "ratio"], [(abs(lam), r) for lam, r in rows])})


def _report_scans(cfg: ScenarioConfig) -> list:
    """The l1 and l2 scans at the scan default sigma_w + 0.2, and the P
    scan at sigma_w + 0.1 and pi/3, each with its refinement drift."""
    dc = derive_constants(cfg.params)
    jobs = [{"target": "l1"}, {"target": "l2"},
            {"target": "P", "sigma": dc.sigma_w + 0.1},
            {"target": "P", "sigma": math.pi / 3}]
    section = []
    for job in jobs:
        result, _, refined = _scan_pair(replace(cfg, extra=job), dc)
        section.append({"scan": result.to_json(),
                        "refined": refined.to_json(),
                        "drift": abs(refined.constant - result.constant)
                        / result.constant})
    return section


def _report_rbound(cfg: ScenarioConfig) -> dict:
    """Per family, the estimate of 2 * RBOUND_TRIALS trials and the one of
    its first RBOUND_TRIALS trials, with the drift between the two."""
    trials = RBOUND_TRIALS
    section = {}
    for fam, (est, ratios) in _rbound_estimates(cfg, 2 * trials).items():
        best = int(np.argmax(ratios[:trials]))
        section[fam] = {
            "estimate": est.to_json(),
            "first_trials": {"trials": trials,
                             "estimated_bound": ratios[best],
                             "argmax_trial": best},
            "drift": abs(est.estimated_bound - ratios[best]) / ratios[best]}
    return section


# report section -> (the scenario it comes from, the section as a function
# of that scenario's default config)
REPORT = {
    "derived": ("validate", lambda c: _run_validate(c).payload["derived"]),
    "scans": ("scan", _report_scans),
    "certificates": (CERTIFICATES, lambda c: _run_certificates(c).payload),
    "rbound": ("rbound", _report_rbound),
    "solve": ("solve-full", lambda c: _run_solve_full(c).payload),
    # the probe says nothing at gamma = 0 (contraction_probe refuses it)
    "probe": ("probe-contraction",
              lambda c: _run_probe(c).payload if c.params.gamma else None),
}


def _run_report(cfg: ScenarioConfig) -> Output:
    """Every constant of one parameter set, each section computed as its
    own scenario computes it at that scenario's defaults."""
    sizes = {}
    payload = {"params": cfg.params.to_json(), "seconds": {},
               "provenance": {"korteweg": __version__,
                              "numpy": np.__version__,
                              "python": platform.python_version(),
                              "sizes": sizes}}
    for name, (scenario, section) in REPORT.items():
        sub = ScenarioConfig(scenario=scenario, params=cfg.params)
        start = time.perf_counter()
        payload[name] = section(sub)
        payload["seconds"][name] = time.perf_counter() - start
        if scenario in POINTS_PER_AXIS and payload[name] is not None:
            geo = _geometry(sub)
            sizes[name] = {"points_per_axis": geo.points_per_axis,
                           "height": geo.height, "seed": sub.seed}
    return Output("report", payload)


# scenario -> (runner, the config keys it reads besides ALWAYS_READ)
SCENARIOS = {
    "validate": (_run_validate, set()),
    "scan": (_run_scan, {"target", "grid", "sigma", "delta", "format"}),
    CERTIFICATES: (_run_certificates, {"target", "symbols", "max_alpha"}),
    "solve-whole": (_run_solve_whole, {"lambda", "points_per_axis", "seed"}),
    "solve-half": (_run_solve_half,
                   {"lambda", "points_per_axis", "height", "seed"}),
    "solve-full": (_run_solve_full,
                   {"lambda", "points_per_axis", "height", "gamma", "seed"}),
    "rbound": (_run_rbound, {"sigma", "delta", "points_per_axis", "family",
                             "trials", "m_max", "seed", "format"}),
    "probe-contraction": (_run_probe,
                          {"points_per_axis", "lambdas", "seed", "format"}),
    "report": (_run_report, set()),
}


def run(cfg: ScenarioConfig) -> int:
    """Run the scenario and write its output; validate writes its report
    even for inadmissible parameters, every other scenario runs only on
    admissible ones."""
    verdict = validate(cfg.params)
    if verdict.ok or cfg.scenario == "validate":
        try:
            _write(cfg, SCENARIOS[cfg.scenario][0](cfg))
        except (SingularLopatinskii, NeumannDiverged) as exc:
            print(f"numerical failure: {exc}", file=sys.stderr)
            return EXIT_NUMERICAL
        except EmptyGrid as exc:
            print(f"invalid grid: {exc}", file=sys.stderr)
            return EXIT_VALIDATION
        except ValueError as exc:
            # a config value the computation cannot take
            print(f"invalid config: {exc}", file=sys.stderr)
            return EXIT_VALIDATION
        except OSError as exc:
            print(f"i/o failure: {exc}", file=sys.stderr)
            return EXIT_IO
    if not verdict.ok:
        print("inadmissible parameters: "
              + ", ".join(f.__name__ for f in verdict.failures),
              file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


# subcommand -> the scenario it runs unless the config or --kind names one
SUBCOMMANDS = {"validate": "validate", "scan": "scan", "solve": "solve-full",
               "rbound": "rbound", "probe": "probe-contraction",
               "report": "report"}


def _build_parser():
    ap = argparse.ArgumentParser(prog="korteweg")
    sub = ap.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=str, default=None)
    common.add_argument("--seed", type=int, default=None)
    common.add_argument("--out", type=str, default=None)
    common.add_argument("--format", type=str, choices=FORMATS, default=None)
    for name in SUBCOMMANDS:
        sp = sub.add_parser(name, parents=[common])
        if name == "validate":
            for key in ("mu", "nu", "kappa", "gamma"):
                sp.add_argument(f"--{key}", type=float, default=None)
        if name == "scan":
            sp.add_argument("--target", type=str, default=None)
        if name == "solve":
            sp.add_argument("--kind", type=str,
                            choices=("whole", "half", "full"), default=None)
        if name == "rbound":
            sp.add_argument("--family", type=str, default=None)
            sp.add_argument("--trials", type=int, default=None)
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    raw: dict = {}
    if args.config:
        try:
            raw = json.loads(Path(args.config).read_text())
        except OSError as exc:
            print(f"cannot read config: {exc}", file=sys.stderr)
            return EXIT_IO
        except json.JSONDecodeError as exc:
            print(f"malformed config: {exc}", file=sys.stderr)
            return EXIT_VALIDATION
        if not isinstance(raw, dict):
            print("malformed config: not a JSON object", file=sys.stderr)
            return EXIT_VALIDATION
    # flags override config keys
    raw.setdefault("scenario", SUBCOMMANDS[args.command])
    if getattr(args, "kind", None):
        raw["scenario"] = f"solve-{args.kind}"
    if args.command == "validate":
        raw["params"] = dict(raw.get("params", {}))
        for key in ("mu", "nu", "kappa", "gamma"):
            if getattr(args, key) is not None:
                raw["params"][key] = getattr(args, key)
    for key in ("target", "family", "trials", "seed", "out", "format"):
        if getattr(args, key, None) is not None:
            raw[key] = getattr(args, key)
    try:
        cfg = ScenarioConfig.from_dict(raw)
    except (ValueError, TypeError) as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    try:
        return run(cfg)
    except KortewegError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
