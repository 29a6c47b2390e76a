#!/usr/bin/env python3
"""korteweg benchmark: one command for every workload.

    python3 perfbench/run.py --workload rbound16|pipeline256|symbols_scan|all
                             --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.
Each workload runs in its own fresh process on one thread (BLAS and
OpenMP pinned to one thread, KORTEWEG_THREADS unset).  With ``--trace 0``
the last line reports the end-to-end metrics; with ``--trace 1`` whole
cycles of ops alternate between traced and untraced, and the last line
reports the per-layer metrics and the tracing overhead.  Exits
with 1 when a workload process fails and 2 when the checkout has no
package source.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOADS = ("rbound16", "pipeline256", "symbols_scan")
WORKER_TIMEOUT_S = 170

END_TO_END = (("setup_s", "s"), ("op_p50_s", "s"), ("op_tail_s", "s"),
              ("ops_per_s", "1/s"), ("peak_rss_mb", "MB"))


def layer_unit(name):
    if name.endswith("_frac"):
        return "frac"
    per = "setup" if name.startswith("manufactured.") else "op"
    if name.endswith(".self_s"):
        return f"s/{per}"
    if name.endswith(".calls"):
        return f"calls/{per}"
    return {"fft.points": "points/op", "resolvent.block_bytes": "B/op",
            "resolvent.neumann_iterations": "iter/op"}[name]


def worker_env():
    env = dict(os.environ)
    env.pop("KORTEWEG_THREADS", None)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0",
               PYTHONPATH=str(ROOT / "src"))
    return env


def run_worker(workload, seed, seconds, trace):
    cmd = [sys.executable, str(WORKER), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, env=worker_env(), cwd=ROOT,
                          capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        sys.exit(f"{workload}: worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(workload, seed, seconds, trace):
    """The report of the workload's process, and its metrics."""
    rep = run_worker(workload, seed, seconds, trace)
    if not trace:
        e2e = rep["end_to_end"]
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in END_TO_END if name in e2e}
    else:
        metrics = {name: {"value": value, "unit": layer_unit(name)}
                   for name, value in sorted(rep["layer_metrics"].items())}
    return rep, metrics


def print_report(workload, rep, metrics):
    print(f"== {workload}  seed {rep['provenance']['seed']}")
    for name, m in metrics.items():
        print(f"  {name:<48} {m['value']:>14.6g} {m['unit']}")
    line = (f"  ops {rep['ops']} ({rep['traced_ops']} traced)  "
            f"failed {rep['failed']}  "
            f"failed_frac {rep['failed'] / rep['ops']:.4g}")
    e2e = rep.get("end_to_end", {})
    if "op_tail_pct" in e2e:
        line += f"  op_tail_s is p{e2e['op_tail_pct']:.1f}"
    print(line)
    for problem in rep["problems"]:
        print(f"  FAILED {problem}")
    if rep.get("missing"):
        print(f"  absent at this commit: {rep['missing']}")
    if rep["trace"]:
        print("  spans (parent -> child: calls over all traced ops):")
        for parent, child, calls in rep["edges"]:
            print(f"    {parent} -> {child}: {calls}")
    print("provenance " + json.dumps(rep["provenance"], sort_keys=True))
    print("results " + json.dumps(rep["results"], sort_keys=True))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "korteweg" / "__init__.py").is_file():
        sys.stderr.write(f"no package source under {ROOT / 'src'}\n")
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    correct, attempted, failed, combined = True, 0, 0, {}
    for name in names:
        rep, metrics = run_workload(name, args.seed, args.seconds,
                                    args.trace)
        print_report(name, rep, metrics)
        attempted += rep["ops"]
        failed += rep["failed"]
        correct &= rep["failed"] == 0 and not rep["post_check_failed"]
        if len(names) == 1:
            combined = metrics
        else:
            combined.update({f"{name}.{k}": v for k, v in metrics.items()})
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": combined}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
