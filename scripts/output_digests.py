#!/usr/bin/env python3
"""One digest per named output of the package, for bit-identity checks.

Prints one line ``<name> <blake2b digest>`` per output, computed through
public entry points only:

* the pipeline256 benchmark cases (seeds 1 and 2): Neumann iterations,
  ratio history, residual, every S/T block, rho() and u();
* the criterion-8 solves and contraction probe;
* the criterion-9 R-bound estimates (200 and 400 trials) with every
  trial ratio;
* on the five acceptance parameter sets: sigma*, every scan target at
  two angles on the base and 2x-refined grid, and every registry
  certificate with its per-derivative detail;
* every ``korteweg`` scenario at small sizes (validate; scan l1 with its
  CSV; certificates for p1 and l1; solve whole, half and full; rbound
  T_B; probe as CSV), plus ``solve --kind full`` at 128^2 and
  ``report`` at its defaults: every file a run writes, JSON reports
  without their timestamp and section timings, and its exit code.

Arrays are hashed by dtype, shape and bytes; everything else by its
sorted JSON, whose floats round-trip exactly.  To compare two checkouts,
run it in each and ``diff`` the outputs (about 32 s on one core):

    python3 scripts/output_digests.py > digests.txt
"""

import hashlib
import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from korteweg import certify, cli, resolvent as rv  # noqa: E402
from korteweg import verification as vf  # noqa: E402
from korteweg.model import (MaterialParams, Sector,  # noqa: E402
                            derive_constants)
from workloads import ACCEPTANCE_SETS, Pipeline256  # noqa: E402


def emit(name, value):
    h = hashlib.blake2b(digest_size=16)
    if isinstance(value, np.ndarray):
        h.update(f"{value.dtype} {value.shape}".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    else:
        h.update(json.dumps(value, sort_keys=True).encode())
    print(f"{name} {h.hexdigest()}", flush=True)


def solution(name, sol, state, data):
    emit(f"{name}/iterations", state.iterations)
    emit(f"{name}/ratio_history", list(state.ratio_history))
    emit(f"{name}/residual", rv.residual_full(sol, data).to_json())
    for i, block in enumerate(list(sol.s_blocks()) + list(sol.t_blocks())):
        emit(f"{name}/block{i}", block)
    emit(f"{name}/rho", sol.rho())
    emit(f"{name}/u", sol.u())


def pipeline():
    workload = Pipeline256()
    for seed in (1, 2):
        inputs = workload.setup(seed)
        for i, case in enumerate(inputs.cases):
            sol, state = rv.solve_general(case["data"], case["lam"],
                                          inputs.shared["p"])
            solution(f"pipeline256/seed{seed}/case{i}", sol, state,
                     case["data"])


def criterion_8():
    geo = rv.HalfGeometry(dim=2, points_per_axis=64, height=10.0)
    data = rv.random_full_data(geo, np.random.default_rng(88))
    for gamma in (0.05, 0.1, 0.5):
        p = MaterialParams(1.0, 1.0, 2.0, gamma)
        lam0 = rv.auto_lambda0(p, geo)
        emit(f"criterion8/gamma{gamma}/lambda0", lam0)
        sol, state = rv.solve_general(data, complex(2.0 * lam0), p)
        solution(f"criterion8/gamma{gamma}", sol, state, data)
    rows = rv.contraction_probe(MaterialParams(1.0, 1.0, 2.0, 0.2), geo,
                                [1.0, 10.0, 100.0, 1e3, 1e4], seed=1)
    emit("criterion8/probe", [[abs(lam), r] for lam, r in rows])


def criterion_9():
    p = MaterialParams(1.0, 1.0, 2.0)
    geo = rv.HalfGeometry(dim=2, points_per_axis=16, height=10.0)
    for fam in vf.FAMILIES:
        for trials in (200, 400):
            est = vf.estimate_rbound(fam, Sector(1.2, 0.5), p, geo,
                                     m_max=8, trials=trials, seed=0)
            emit(f"rbound/{fam}/T{trials}", est.to_json())
            emit(f"rbound/{fam}/T{trials}/ratios", np.asarray(est.ratios))


def symbols():
    grid = certify.GridSpec()
    for coeffs in ACCEPTANCE_SETS:
        p = MaterialParams(*coeffs)
        dc = derive_constants(p)
        tag = "params" + ",".join(f"{c:g}" for c in coeffs)
        for target in certify.SCAN_TARGETS:
            for angle, sigma in (("sigma_w+0.2", dc.sigma_w + 0.2),
                                 ("pi/3", math.pi / 3)):
                for label, g in (("base", grid), ("refined", grid.refine(2))):
                    res, (_, _, vals) = certify.scan_lower_bound(
                        target, Sector(sigma, 0.0), g, p, dc,
                        return_points=True)
                    name = f"scan/{tag}/{target}@{angle}/{label}"
                    emit(name, res.to_json())
                    emit(f"{name}/values", vals)
        sigma_star, _, certs = certify.certify_registry(p)
        emit(f"sigma_star/{tag}", sigma_star)
        for cert in certs:
            emit(f"certificate/{tag}/{cert.symbol_id}",
                 [cert.to_json(), cert.detail])


def cli_report(name, argv, config):
    """Run one korteweg command with a config into a fresh directory and
    digest its exit code and every file it writes."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(config))
        out = Path(tmp) / "out"
        code = cli.main(argv + ["--config", str(path), "--out", str(out)])
        emit(f"cli/{name}/exit", code)
        for f in sorted(out.iterdir()):
            if f.suffix == ".json":
                report = json.loads(f.read_text())
                report.pop("timestamp", None)
                report.pop("seconds", None)
                emit(f"cli/{name}/{f.name}", report)
            else:
                emit(f"cli/{name}/{f.name}",
                     np.frombuffer(f.read_bytes(), dtype=np.uint8))


def cli_scenarios():
    params = {"mu": 1, "nu": 1, "kappa": 2}
    cli_report("validate", ["validate"], {"params": params})
    cli_report("scan_l1", ["scan", "--format", "csv"], {
        "target": "l1", "params": params,
        "grid": {"n_lambda": 12, "n_theta": 5, "n_xi": 12}})
    cli_report("certificates", ["scan", "--target", "certificates"], {
        "params": params, "symbols": ["p1", "l1"]})
    for kind, m in (("whole", 32), ("half", 16), ("full", 32)):
        cli_report(f"solve_{kind}", ["solve", "--kind", kind, "--seed", "3"],
                   {"params": dict(params, gamma=0.1),
                    "lambda": [100.0, 10.0], "points_per_axis": m})
    cli_report("solve_full_128", ["solve", "--kind", "full", "--seed", "3"],
               {"params": dict(params, gamma=0.1), "lambda": [100.0, 10.0],
                "points_per_axis": 128})
    cli_report("rbound", ["rbound", "--family", "T_B"], {
        "params": params, "trials": 4, "m_max": 3, "points_per_axis": 16,
        "sigma": 1.2, "delta": 0.5})
    cli_report("probe", ["probe", "--format", "csv"], {
        "params": dict(params, gamma=0.2), "lambdas": [1.0, 100.0],
        "points_per_axis": 16})
    cli_report("report", ["report"], {"params": params})


def main():
    pipeline()
    criterion_8()
    criterion_9()
    symbols()
    cli_scenarios()


if __name__ == "__main__":
    main()
