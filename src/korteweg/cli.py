"""Command-line front end for scripted and CI runs.

Subcommands: validate, scan, solve, rbound, probe.  A single JSON config
document names the scenario; individual flags override config keys.
Exit codes: 0 success, 2 validation failure, 3 numerical failure,
4 I/O error.
"""

from __future__ import annotations

import argparse
import datetime
import json
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import fieldio
from .certify import (GridSpec, certify_multiplier, empirical_sigma_star,
                      scan_lower_bound, symbol_registry)
from .errors import (EmptyGrid, KortewegError, NeumannDiverged,
                     SingularLopatinskii)
from .manufactured import InteriorBump, resolvent_rows_of_bump
from .model import MaterialParams, Sector, derive_constants, validate
from .resolvent import (FullData, HalfGeometry, contraction_probe,
                        residual_full, solve_general)
from .verification import FAMILIES, estimate_rbound
from .wholespace import BoxGrid, band_limited_field, residual_whole, \
    solve_whole

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

SCENARIOS = ("validate", "scan", "solve-whole", "solve-half", "solve-full",
             "rbound", "probe-contraction")

_CONFIG_KEYS = {"scenario", "params", "sector", "seed", "out", "format",
                "grid", "lambda", "gamma", "target", "family", "trials",
                "m_max", "points_per_axis", "height", "sigma", "delta",
                "max_alpha", "symbols", "lambdas"}


@dataclass
class ScenarioConfig:
    scenario: str
    params: MaterialParams
    sector: Sector | None = None
    seed: int = 0
    out: str | None = None
    fmt: str = "json"
    extra: dict = field(default_factory=dict)

    @classmethod
    def from_dict(cls, obj: dict) -> "ScenarioConfig":
        unknown = set(obj) - _CONFIG_KEYS
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        if "scenario" not in obj:
            raise ValueError("config requires a scenario")
        scenario = obj["scenario"]
        if scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario {scenario!r}")
        raw_params = obj.get("params") or {}
        if raw_params:
            params = MaterialParams.from_json(raw_params)
        else:
            # reference parameter set for flag-only invocations
            params = MaterialParams(1.0, 1.0, 2.0)
        sector = None
        if "sigma" in obj or "sector" in obj:
            sec = obj.get("sector", {})
            sigma = float(obj.get("sigma", sec.get("sigma", 1.0)))
            delta = float(obj.get("delta", sec.get("delta", 0.0)))
            sector = Sector(sigma, delta)
        extra = {k: obj[k] for k in obj
                 if k in _CONFIG_KEYS - {"scenario", "params", "sector",
                                         "seed", "out", "format", "sigma",
                                         "delta"}}
        return cls(scenario=scenario, params=params, sector=sector,
                   seed=int(obj.get("seed", 0)), out=obj.get("out"),
                   fmt=obj.get("format", "json"), extra=extra)


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
    if target == "certificates":
        sigma_star = empirical_sigma_star(cfg.params, "l1", dc=dc)
        sec = Sector(min(sigma_star + 0.1, 1.45), 0.0)
        reg = symbol_registry(cfg.params, dc)
        names = cfg.extra.get("symbols") or sorted(reg)
        certs = []
        for name in names:
            fn, order, typ = reg[name]
            cert = certify_multiplier(fn, name, order, typ, sec, cfg.params,
                                      max_alpha=int(cfg.extra.get(
                                          "max_alpha", 2)))
            certs.append(cert.to_json())
        _emit(cfg, "certificates", {"sigma_star": sigma_star,
                                    "certificates": certs})
        return EXIT_OK
    sector = cfg.sector or Sector(dc.sigma_w + 0.2, 0.0)
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


def _lambda_of(cfg: ScenarioConfig) -> complex:
    raw = cfg.extra.get("lambda", [100.0, 0.0])
    if isinstance(raw, (int, float)):
        return complex(raw)
    return complex(raw[0], raw[1])


def _run_solve(cfg: ScenarioConfig) -> int:
    dc = derive_constants(cfg.params)
    rng = np.random.default_rng(cfg.seed)
    lam = _lambda_of(cfg)
    kind = cfg.scenario
    if kind == "solve-whole":
        grid = BoxGrid(dim=2, points_per_axis=int(cfg.extra.get(
            "points_per_axis", 128)))
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
    geo = HalfGeometry(dim=2,
                       points_per_axis=int(cfg.extra.get("points_per_axis",
                                                         128)),
                       height=float(cfg.extra.get("height", 10.0)))
    if kind == "solve-half":
        from .halfspace import residual_reduced, solve_reduced
        tan = geo.tangential
        g = (rng.standard_normal((2,) + tan.shape)
             + 1j * rng.standard_normal((2,) + tan.shape))
        h = (rng.standard_normal(tan.shape)
             + 1j * rng.standard_normal(tan.shape))
        red = solve_reduced(g, h, lam, tan, geo.normal_samples(),
                            cfg.params, dc)
        res = residual_reduced(red, g, h)
        _emit(cfg, "solve_half", {"lambda": [lam.real, lam.imag],
                                  "residual": res.to_json()})
        return EXIT_OK
    # solve-full: manufactured fixture, general solve, residual report
    bump = InteriorBump.random(geo.tangential, rng, kmax=4)
    x = geo.normal_samples().x
    gamma = float(cfg.extra.get("gamma", cfg.params.gamma))
    params = replace(cfg.params, gamma=gamma)
    d_hat, f_hat, g_hat, h_hat = resolvent_rows_of_bump(bump, x, lam,
                                                        params, gamma)
    data = FullData(geometry=geo,
                    d=np.fft.ifft(d_hat, axis=0),
                    f=np.fft.ifft(f_hat, axis=1),
                    g=np.fft.ifft(g_hat, axis=1),
                    h=np.fft.ifft(h_hat, axis=0))
    sol, state = solve_general(data, lam, params, dc)
    res = residual_full(sol, data)
    rho_star = np.fft.ifft(bump.rho_derivatives(x, 0)[0], axis=0)
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
    sector = cfg.sector or Sector(dc.sigma_w + 0.4, 0.5)
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
    lambdas = cfg.extra.get("lambdas", [1.0, 10.0, 100.0, 1e3, 1e4])
    rows = contraction_probe(cfg.params, geo, [complex(v) for v in lambdas],
                             seed=cfg.seed)
    payload = {"rows": [{"lambda": [lam.real, lam.imag], "ratio": r}
                        for lam, r in rows]}
    _emit(cfg, "probe", payload)
    if cfg.fmt == "csv":
        _csv_rows(cfg, "probe", ["abs_lambda", "ratio"],
                  [(abs(lam), r) for lam, r in rows])
    return EXIT_OK


def run(cfg: ScenarioConfig) -> int:
    if cfg.scenario == "validate":
        return _run_validate(cfg)
    verdict = validate(cfg.params)
    if not verdict.ok:
        print("inadmissible parameters: "
              + ", ".join(f.__name__ for f in verdict.failures),
              file=sys.stderr)
        return EXIT_VALIDATION
    try:
        if cfg.scenario == "scan":
            return _run_scan(cfg)
        if cfg.scenario.startswith("solve"):
            return _run_solve(cfg)
        if cfg.scenario == "rbound":
            return _run_rbound(cfg)
        if cfg.scenario == "probe-contraction":
            return _run_probe(cfg)
    except (SingularLopatinskii, NeumannDiverged) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except EmptyGrid as exc:
        print(f"invalid grid: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return EXIT_IO
    raise AssertionError("unreachable scenario")


def _build_parser():
    ap = argparse.ArgumentParser(prog="korteweg")
    sub = ap.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=str, default=None)
    common.add_argument("--seed", type=int, default=None)
    common.add_argument("--out", type=str, default=None)
    common.add_argument("--format", type=str, choices=("json", "csv"),
                        default=None)
    for name in ("validate", "scan", "solve", "rbound", "probe"):
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
    if args.command == "validate":
        raw.setdefault("scenario", "validate")
        params = dict(raw.get("params", {}))
        for key in ("mu", "nu", "kappa", "gamma"):
            val = getattr(args, key, None)
            if val is not None:
                params[key] = val
        raw["params"] = params
    elif args.command == "scan":
        raw.setdefault("scenario", "scan")
        if args.target:
            raw["target"] = args.target
    elif args.command == "solve":
        kind = getattr(args, "kind", None)
        if kind:
            raw["scenario"] = f"solve-{kind}"
        raw.setdefault("scenario", "solve-full")
    elif args.command == "rbound":
        raw.setdefault("scenario", "rbound")
        if args.family:
            raw["family"] = args.family
        if args.trials is not None:
            raw["trials"] = args.trials
    elif args.command == "probe":
        raw.setdefault("scenario", "probe-contraction")
    if args.seed is not None:
        raw["seed"] = args.seed
    if args.out is not None:
        raw["out"] = args.out
    if args.format is not None:
        raw["format"] = args.format
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
