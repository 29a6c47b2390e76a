#!/usr/bin/env python3
"""Interleaved A/B op timing of two korteweg checkouts in one process.

    python3 scripts/ab_timing.py WORKLOAD PATH_A PATH_B N

WORKLOAD is pipeline256, rbound16 or symbols_scan.

Loads ``PATH_A/src/korteweg`` and ``PATH_B/src/korteweg`` as two
packages under distinct module names, and builds each side's inputs
(workload seed 1) with the workload classes of ``perfbench/workloads.py``
bound to that side's package.  After one untimed op per side it
alternates one op of each, N per side, swapping which side goes first
every round: both sides then see the same machine state, so a host whose
speed drifts moves both alike.  Prints each side's median op time, the
ratio B/A of the medians, whether every op passed the workload's gates
on both sides, and the largest relative move of an op's outputs from A
to B (0 when they are bit-identical): each number, array or array of
numbers in the op's result and checked values, relative to its largest
magnitude on side A.  Set the thread
environment as ``perfbench/run.py`` does (OPENBLAS_NUM_THREADS=1 and so
on) to time one thread.  Both sides share one heap, so a change in page
faults, which separate benchmark processes show, does not show here.
"""

import importlib
import importlib.util
import math
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ROOT / "perfbench" / "workloads.py"
SEED = 1
CHOICES = ("pipeline256", "rbound16", "symbols_scan")


def load_side(tag: str, checkout: Path):
    """The workload module of ``checkout``'s package, loaded as
    ``korteweg_<tag>`` with every submodule under that name."""
    src = checkout / "src" / "korteweg"
    name = f"korteweg_{tag}"
    spec = importlib.util.spec_from_file_location(
        name, src / "__init__.py", submodule_search_locations=[str(src)])
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[name] = pkg
    spec.loader.exec_module(pkg)
    for path in sorted(src.glob("*.py")):
        if path.stem != "__init__":
            importlib.import_module(f"{name}.{path.stem}")
    # the workload module imports "korteweg": alias this side's modules
    # under that name only while it executes
    alias = {"korteweg" + key[len(name):]: mod
             for key, mod in sys.modules.items()
             if key == name or key.startswith(name + ".")}
    sys.modules.update(alias)
    try:
        spec = importlib.util.spec_from_file_location(f"workloads_{tag}",
                                                      WORKLOADS)
        workloads = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = workloads
        spec.loader.exec_module(workloads)
    finally:
        for key in alias:
            del sys.modules[key]
    return workloads


def leaves(value):
    """The numeric arrays of an op's output in a fixed order: dict values
    by key, list and tuple items, numbers and arrays; other objects (a
    solution, a solver state) are skipped."""
    if isinstance(value, dict):
        for key in sorted(value):
            yield from leaves(value[key])
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from leaves(item)
    elif isinstance(value, (int, float, complex, np.number, np.ndarray)):
        yield np.asarray(value, dtype=complex)


def relative_move(a, b) -> float:
    """The largest |a - b| over the leaves of two outputs, each relative
    to the largest |a| of its leaf; inf when their shapes differ."""
    xs, ys = list(leaves(a)), list(leaves(b))
    if [x.shape for x in xs] != [y.shape for y in ys]:
        return math.inf
    return max((float(np.max(np.abs(x - y))) / (float(np.max(np.abs(x)))
                                                 or 1.0)
                for x, y in zip(xs, ys) if x.size), default=0.0)


def main(argv):
    if len(argv) != 4 or argv[0] not in CHOICES:
        print(__doc__, file=sys.stderr)
        return 2
    workload, path_a, path_b, n = argv[0], Path(argv[1]), Path(argv[2]), \
        int(argv[3])
    sides = []
    for tag, path in (("a", path_a), ("b", path_b)):
        wl = load_side(tag, path.resolve()).WORKLOADS[workload]()
        inputs = wl.setup(SEED)
        wl.run_op(inputs, 0)  # warm-up, untimed
        sides.append((wl, inputs, []))
    cycle = len(sides[0][1].cases)
    passed, move = True, 0.0
    for k in range(n):
        i = k % cycle
        outputs = [None, None]
        for side in ((0, 1) if k % 2 == 0 else (1, 0)):
            wl, inputs, times = sides[side]
            t0 = time.perf_counter()
            result = wl.run_op(inputs, i)
            times.append(time.perf_counter() - t0)
            checked = wl.check(inputs, i, result)
            passed &= not checked.problems
            outputs[side] = (result, checked.values)
        move = max(move, relative_move(*outputs))
    med_a, med_b = (statistics.median(s[2]) for s in sides)
    print(f"workload {workload}, {n} ops per side, seed {SEED}")
    print(f"A {path_a}: median {med_a:.6f} s")
    print(f"B {path_b}: median {med_b:.6f} s")
    print(f"ratio B/A {med_b / med_a:.4f}")
    print(f"gates passed: {passed}")
    print(f"largest relative output move: {move:.3g}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
