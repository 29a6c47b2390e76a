"""One workload in one process: set-up, timed ops, gates, one report.

Run by ``run.py``, which sets the thread environment and PYTHONPATH.
The report is a single JSON line on standard output.  Usage:

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import korteweg
from korteweg.errors import KortewegError

import workloads
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
IMPORT_PROBES = 7
SETUP_REPEATS = 7
TAIL_BEYOND = 10          # samples the tail percentile must leave above it
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
              "KORTEWEG_THREADS")
_PROBE = ("import time\n"
          "t0 = time.perf_counter()\n"
          "import numpy, korteweg.verification, korteweg.resolvent, "
          "korteweg.halfspace, korteweg.symbols, korteweg.certify, "
          "korteweg.manufactured\n"
          "print(time.perf_counter() - t0)\n")


def tail_index(n):
    """Index (sorted ascending) of the highest percentile with at least
    TAIL_BEYOND samples above it, or None when the run is too short."""
    return n - TAIL_BEYOND - 1 if n > TAIL_BEYOND else None


def import_seconds():
    """Import time of the package in fresh interpreters (median)."""
    samples = []
    for _ in range(IMPORT_PROBES):
        out = subprocess.run([sys.executable, "-c", _PROBE],
                             capture_output=True, text=True, check=True,
                             timeout=60)
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def setup_seconds(wl, seed):
    """Median wall time of building the workload inputs."""
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        wl.setup(seed)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def run_ops(wl, inputs, seconds, tracer=None, min_ops=0):
    """Timed closed loop of ops on one thread.

    Stops at the first whole cycle through the inputs once ``seconds``
    have passed and ``min_ops`` ops are done, waiting for ``min_ops`` no
    longer than 3 x ``seconds``.  With a tracer, cycles alternate between
    traced and untraced, starting traced and ending untraced, so both see
    the same inputs under the same machine load.  A gate failure or a
    KortewegError counts as a failed op.  One untimed, unchecked op on
    the first input warms caches and lazy set-up before the loop.
    """
    try:
        wl.run_op(inputs, 0)
    except KortewegError:
        pass                  # the timed loop counts it
    cycle = len(inputs.cases)
    period = cycle if tracer is None else 2 * cycle
    times, traced_times, problems, values, first = [], [], [], {}, {}
    k = failed = 0
    t_loop = time.perf_counter()
    try:
        while True:
            elapsed = time.perf_counter() - t_loop
            if k >= period and k % period == 0 and elapsed >= seconds and (
                    k >= min_ops or elapsed >= 3 * seconds):
                break
            i = k % cycle
            traced = tracer is not None and k % period < cycle
            if tracer is not None and i == 0:
                tracer.install() if traced else tracer.remove()
            if traced:
                tracer.new_op()
            k += 1
            sink = traced_times if traced else times
            t0 = time.perf_counter()
            try:
                result = wl.run_op(inputs, i)
            except KortewegError as exc:
                sink.append(time.perf_counter() - t0)
                failed += 1
                problems.append(f"op {k - 1}: {type(exc).__name__}: {exc}")
                continue
            sink.append(time.perf_counter() - t0)
            checked = wl.check(inputs, i, result)
            bad = list(checked.problems)
            if i not in first:
                first[i] = checked.fingerprint
                values[wl.label(inputs, i)] = checked.values
            elif checked.fingerprint != first[i]:
                bad.append("result differs from the first op on the same "
                           "input")
            failed += bool(bad)
            problems.extend(f"op {k - 1}: {b}" for b in bad)
            del result
    finally:
        if tracer is not None:
            tracer.remove()
    wall = time.perf_counter() - t_loop
    return {"times": times, "traced_times": traced_times, "wall": wall,
            "failed": failed, "problems": problems, "values": values}


def end_to_end(loop, setup_s):
    times = sorted(loop["times"])
    n = len(times)
    out = {"setup_s": setup_s, "op_p50_s": statistics.median(times),
           "ops_per_s": n / loop["wall"],
           "peak_rss_mb": resource.getrusage(
               resource.RUSAGE_SELF).ru_maxrss / 1024.0,
           "failed_frac": loop["failed"] / n}
    idx = tail_index(n)
    if idx is not None:
        out["op_tail_s"] = times[idx]
        out["op_tail_pct"] = 100.0 * (idx + 1) / n
    return out


def traced_metrics(wl, seed, seconds):
    """Per-layer metrics: one traced set-up, then cycles of ops that
    alternate between traced and untraced."""
    tracer = Tracer()
    with tracer.installed():
        inputs = wl.setup(seed)
    setup_part = tracer.metrics(per=1)
    tracer.reset()
    loop = run_ops(wl, inputs, seconds, tracer=tracer)
    layer = {k: (setup_part[k] if k.startswith("manufactured.") else v)
             for k, v in tracer.metrics(per=len(loop["traced_times"])).items()}
    layer["trace.overhead_frac"] = (statistics.median(loop["traced_times"])
                                    / statistics.median(loop["times"]) - 1)
    return inputs, loop, layer, tracer.edge_table(), tracer.missing


def source_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "korteweg").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True, timeout=30)
    return out.stdout.strip() or None


def provenance(wl, seed):
    return {"korteweg": korteweg.__version__, "numpy": np.__version__,
            "python": platform.python_version(),
            "git_commit": git_commit(), "source_sha256": source_digest(),
            "nproc": os.cpu_count(),
            "cpus_allowed": len(os.sched_getaffinity(0)),
            "machine": platform.machine(),
            "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
            "seed": seed, "sizes": wl.sizes()}


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not Path(korteweg.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"korteweg imported from {korteweg.__file__}, "
                 f"not from this checkout")
    wl = workloads.WORKLOADS[args.workload]()
    report = {"workload": wl.name, "trace": args.trace,
              "provenance": provenance(wl, args.seed)}
    if args.trace:
        inputs, loop, layer, edges, missing = traced_metrics(
            wl, args.seed, args.seconds)
        report.update(layer_metrics=layer, edges=edges[:40],
                      missing=missing)
    else:
        setup_s = import_seconds() + setup_seconds(wl, args.seed)
        inputs = wl.setup(args.seed)
        loop = run_ops(wl, inputs, args.seconds, min_ops=TAIL_BEYOND + 1)
        report["end_to_end"] = end_to_end(loop, setup_s)
    post_problems, post_values = wl.post_check(inputs)
    report.update(ops=len(loop["times"]) + len(loop["traced_times"]),
                  traced_ops=len(loop["traced_times"]), failed=loop["failed"],
                  problems=loop["problems"] + post_problems,
                  post_check_failed=bool(post_problems),
                  results=dict(loop["values"], **post_values))
    print(json.dumps(report))


if __name__ == "__main__":
    main()
