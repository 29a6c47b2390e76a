"""Command-line front end for scripted and CI runs.

Subcommands: validate, scan, solve, rbound, probe.  A single JSON config
document names the scenario; individual flags override config keys.
``SCENARIOS`` lists the config keys each scenario reads; any other key is
an invalid config, so every accepted key reaches the report.
Exit codes: 0 success, 2 validation failure, 3 numerical failure,
4 I/O error.
"""

from __future__ import annotations

import argparse
import cmath
import datetime
import json
import math
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import fieldio
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
        raw_params = obj.get("params") or {}
        if raw_params:
            params = MaterialParams.from_json(raw_params)
        else:
            # reference parameter set for flag-only invocations
            params = MaterialParams(1.0, 1.0, 2.0)
        return cls(scenario=scenario, params=params, out=obj.get("out"),
                   extra={k: obj[k] for k in obj if k in reads})

    @property
    def seed(self) -> int:
        return int(self.extra.get("seed", 0))

    @property
    def fmt(self) -> str:
        return self.extra.get("format", "json")

    def sector(self, sigma: float, delta: float) -> Sector:
        """The config's sector; a missing sigma or delta takes the default.

        An invalid value is refused with the name of its key.
        """
        sigma = float(self.extra.get("sigma", sigma))
        delta = float(self.extra.get("delta", delta))
        if not 0.0 < sigma < math.pi / 2:
            raise ValueError(f"sigma = {sigma} must lie in (0, pi/2)")
        if delta < 0.0:
            raise ValueError(f"delta = {delta} must be nonnegative")
        return Sector(sigma, delta)


def _emit(cfg: ScenarioConfig, name: str, payload: dict):
    payload = dict(payload)
    payload["timestamp"] = datetime.datetime.now(
        datetime.timezone.utc).isoformat()
    text = json.dumps(payload, sort_keys=True, indent=1)
    if cfg.out:
        out_dir = Path(cfg.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / f"{name}.json").write_text(text)
    else:
        print(text)


def _csv_rows(cfg: ScenarioConfig, name: str, header, rows):
    lines = [",".join(header)]
    lines += [",".join(f"{v:.17g}" if isinstance(v, float) else str(v)
                       for v in row) for row in rows]
    text = "\n".join(lines) + "\n"
    if cfg.out:
        Path(cfg.out).mkdir(parents=True, exist_ok=True)
        (Path(cfg.out) / f"{name}.csv").write_text(text)
    else:
        print(text, end="")


def _run_validate(cfg: ScenarioConfig) -> int:
    verdict = validate(cfg.params)
    payload = {"ok": verdict.ok,
               "failures": [f.__name__ for f in verdict.failures],
               "params": cfg.params.to_json()}
    if verdict.ok:
        dc = derive_constants(cfg.params)
        payload["derived"] = {"eta_w": dc.eta_w, "sigma_w": dc.sigma_w,
                              "s1": [dc.s1.real, dc.s1.imag],
                              "s2": [dc.s2.real, dc.s2.imag]}
    _emit(cfg, "validate", payload)
    if not verdict.ok:
        print("inadmissible parameters: "
              + ", ".join(f.__name__ for f in verdict.failures),
              file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


def _run_scan(cfg: ScenarioConfig) -> int:
    dc = derive_constants(cfg.params)
    target = cfg.extra.get("target", "l1")
    g = cfg.extra.get("grid", {})
    grid = GridSpec(n_lambda=int(g.get("n_lambda", 40)),
                    n_theta=int(g.get("n_theta", 9)),
                    n_xi=int(g.get("n_xi", 40)))
    sector = cfg.sector(dc.sigma_w + 0.2, 0.0)
    result, points = scan_lower_bound(target, sector, grid, cfg.params, dc,
                                      return_points=True)
    refined = scan_lower_bound(target, sector, grid.refine(2), cfg.params, dc)
    sigma_star = empirical_sigma_star(cfg.params, target, dc=dc) \
        if target in ("l1", "l2") else None
    payload = {"scan": result.to_json(), "refined": refined.to_json(),
               "empirical_sigma_star": sigma_star}
    _emit(cfg, f"scan_{target}", payload)
    if cfg.fmt == "csv":
        xi, lam, vals = points
        _csv_rows(cfg, f"scan_{target}",
                  ["xi", "re_lambda", "im_lambda", "ratio"],
                  [(float(a), float(b.real), float(b.imag), float(v))
                   for a, b, v in zip(xi, lam, vals)])
    return EXIT_OK


def _run_certificates(cfg: ScenarioConfig) -> int:
    sigma_star, _, certs = certify_registry(
        cfg.params, names=cfg.extra.get("symbols"),
        max_alpha=int(cfg.extra.get("max_alpha", 2)))
    _emit(cfg, "certificates", {
        "sigma_star": sigma_star,
        "certificates": [c.to_json() for c in certs]})
    return EXIT_OK


def _admissible(cfg: ScenarioConfig, raw, name: str) -> complex:
    """The config value ``raw`` (a number or [re, im]) as a lambda,
    refused under its config name ``name`` unless it is nonzero with
    |arg lambda| < pi - sigma_w."""
    lam = complex(raw) if isinstance(raw, (int, float)) \
        else complex(raw[0], raw[1])
    rim = math.pi - derive_constants(cfg.params).sigma_w
    if lam == 0 or abs(cmath.phase(lam)) >= rim:
        raise ValueError(f"{name} {lam} must be nonzero with "
                         f"|arg lambda| < pi - sigma_w = {rim:.6g}")
    return lam


def _lambda_of(cfg: ScenarioConfig) -> complex:
    """The config's lambda, refused unless admissible."""
    return _admissible(cfg, cfg.extra.get("lambda", [100.0, 0.0]), "lambda")


def _solve_geometry(cfg: ScenarioConfig) -> HalfGeometry:
    return HalfGeometry(dim=2,
                        points_per_axis=int(cfg.extra.get("points_per_axis",
                                                          128)),
                        height=float(cfg.extra.get("height", 10.0)))


def _run_solve_whole(cfg: ScenarioConfig) -> int:
    lam = _lambda_of(cfg)
    grid = BoxGrid(dim=2, points_per_axis=int(cfg.extra.get(
        "points_per_axis", 128)))
    rng = np.random.default_rng(cfg.seed)
    d = band_limited_field(grid, rng, 8)
    f = band_limited_field(grid, rng, 8, components=2)
    sol = solve_whole(d, f, lam, cfg.params, grid)
    rep = residual_whole(sol, d, f, lam, cfg.params)
    _emit(cfg, "solve_whole", {"lambda": [lam.real, lam.imag],
                               "residual": rep.to_json()})
    if cfg.out:
        fieldio.save_field(Path(cfg.out) / "rho.bin", sol.rho,
                           {"dim": 2, "M": grid.points_per_axis,
                            "L": grid.period, "components": 1})
    return EXIT_OK


def _run_solve_half(cfg: ScenarioConfig) -> int:
    lam = _lambda_of(cfg)
    geo = _solve_geometry(cfg)
    rng = np.random.default_rng(cfg.seed)
    tan = geo.tangential
    g = (rng.standard_normal((2,) + tan.shape)
         + 1j * rng.standard_normal((2,) + tan.shape))
    h = (rng.standard_normal(tan.shape)
         + 1j * rng.standard_normal(tan.shape))
    red = solve_reduced(g, h, lam, tan, geo.normal_samples(), cfg.params)
    res = residual_reduced(red, g, h)
    _emit(cfg, "solve_half", {"lambda": [lam.real, lam.imag],
                              "residual": res.to_json()})
    return EXIT_OK


def _run_solve_full(cfg: ScenarioConfig) -> int:
    """Manufactured fixture, general solve, residual report."""
    lam = _lambda_of(cfg)
    geo = _solve_geometry(cfg)
    rng = np.random.default_rng(cfg.seed)
    pair = ManufacturedPair(geo.tangential,
                            InteriorBump.random(geo.tangential, rng, kmax=4),
                            None)
    gamma = float(cfg.extra.get("gamma", cfg.params.gamma))
    params = replace(cfg.params, gamma=gamma)
    data = manufactured_data(pair, geo, lam, params)
    sol, state = solve_general(data, lam, params)
    res = residual_full(sol, data)
    rho_star, _ = manufactured_fields(pair, geo)
    rec = float(np.max(np.abs(sol.rho() - rho_star))
                / np.max(np.abs(rho_star)))
    _emit(cfg, "solve_full", {"lambda": [lam.real, lam.imag],
                              "gamma": gamma,
                              "residual": res.to_json(),
                              "max_relative_residual": res.max_relative(),
                              "recovery_error": rec,
                              "neumann": state.to_json()})
    return EXIT_OK


def _run_rbound(cfg: ScenarioConfig) -> int:
    dc = derive_constants(cfg.params)
    sector = cfg.sector(dc.sigma_w + 0.4, 0.5)
    geo = HalfGeometry(dim=2, points_per_axis=int(cfg.extra.get(
        "points_per_axis", 16)))
    fams = cfg.extra.get("family")
    fams = [fams] if isinstance(fams, str) else (fams or list(FAMILIES))
    trials = int(cfg.extra.get("trials", 200))
    m_max = int(cfg.extra.get("m_max", 8))
    out = {}
    for fam in fams:
        est, ratios = estimate_rbound(fam, sector, cfg.params, geo,
                                      m_max=m_max, trials=trials,
                                      seed=cfg.seed, dc=dc,
                                      return_ratios=True)
        out[fam] = est.to_json()
        if cfg.fmt == "csv":
            _csv_rows(cfg, f"rbound_{fam}", ["trial", "ratio"],
                      list(enumerate(map(float, ratios))))
    _emit(cfg, "rbound", {"estimates": out})
    return EXIT_OK


def _run_probe(cfg: ScenarioConfig) -> int:
    geo = HalfGeometry(dim=2, points_per_axis=int(cfg.extra.get(
        "points_per_axis", 32)))
    lambdas = [_admissible(cfg, v, f"lambdas[{i}]")
               for i, v in enumerate(cfg.extra.get(
                   "lambdas", [1.0, 10.0, 100.0, 1e3, 1e4]))]
    rows = contraction_probe(cfg.params, geo, lambdas, seed=cfg.seed)
    payload = {"rows": [{"lambda": [lam.real, lam.imag], "ratio": r}
                        for lam, r in rows]}
    _emit(cfg, "probe", payload)
    if cfg.fmt == "csv":
        _csv_rows(cfg, "probe", ["abs_lambda", "ratio"],
                  [(abs(lam), r) for lam, r in rows])
    return EXIT_OK


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
}


def run(cfg: ScenarioConfig) -> int:
    runner = SCENARIOS[cfg.scenario][0]
    if cfg.scenario == "validate":
        return runner(cfg)
    verdict = validate(cfg.params)
    if not verdict.ok:
        print("inadmissible parameters: "
              + ", ".join(f.__name__ for f in verdict.failures),
              file=sys.stderr)
        return EXIT_VALIDATION
    try:
        return runner(cfg)
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


# subcommand -> the scenario it runs unless the config or --kind names one
SUBCOMMANDS = {"validate": "validate", "scan": "scan", "solve": "solve-full",
               "rbound": "rbound", "probe": "probe-contraction"}


def _build_parser():
    ap = argparse.ArgumentParser(prog="korteweg")
    sub = ap.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=str, default=None)
    common.add_argument("--seed", type=int, default=None)
    common.add_argument("--out", type=str, default=None)
    common.add_argument("--format", type=str, choices=("json", "csv"),
                        default=None)
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
