#!/usr/bin/env python3
"""Interleaved A/B op timing of two korteweg checkouts in one process.

    python3 scripts/ab_timing.py pipeline256|rbound16 PATH_A PATH_B N

Loads ``PATH_A/src/korteweg`` and ``PATH_B/src/korteweg`` as two
packages under distinct module names, and builds each side's inputs
(workload seed 1) with the workload classes of ``perfbench/workloads.py``
bound to that side's package.  After one untimed op per side it
alternates one op of each, N per side, swapping which side goes first
every round: both sides then see the same machine state, so a host whose
speed drifts moves both alike.  Prints each side's median op time, the
ratio B/A of the medians, and whether every op's outputs (the
workload's fingerprint) were equal on both sides.  Set the thread
environment as ``perfbench/run.py`` does (OPENBLAS_NUM_THREADS=1 and so
on) to time one thread.
"""

import importlib
import importlib.util
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ROOT / "perfbench" / "workloads.py"
SEED = 1
CHOICES = ("pipeline256", "rbound16")


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
    equal = True
    for k in range(n):
        i = k % cycle
        prints = []
        for wl, inputs, times in (sides if k % 2 == 0 else sides[::-1]):
            t0 = time.perf_counter()
            result = wl.run_op(inputs, i)
            times.append(time.perf_counter() - t0)
            checked = wl.check(inputs, i, result)
            equal &= not checked.problems
            prints.append(checked.fingerprint)
            del result
        equal &= prints[0] == prints[1]
    med_a, med_b = (statistics.median(s[2]) for s in sides)
    print(f"workload {workload}, {n} ops per side, seed {SEED}")
    print(f"A {path_a}: median {med_a:.6f} s")
    print(f"B {path_b}: median {med_b:.6f} s")
    print(f"ratio B/A {med_b / med_a:.4f}")
    print(f"outputs equal and gates passed: {equal}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
