#!/usr/bin/env python3
"""R-bound estimates for the four end-to-end operator families.

Runs 200 and 400 trials with nested seeding (so the 400-trial value is a
superset maximum) and prints the doubling drift and the seconds per
family.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from korteweg.model import MaterialParams, Sector  # noqa: E402
from korteweg.resolvent import HalfGeometry  # noqa: E402
from korteweg.verification import FAMILIES, estimate_rbound  # noqa: E402


def main():
    p = MaterialParams(1.0, 1.0, 2.0)
    sector = Sector(1.2, 0.5)
    geo = HalfGeometry(dim=2, points_per_axis=16, height=10.0)
    print(f"{'family':<14} {'200 trials':>12} {'400 trials':>12} "
          f"{'drift':>7} {'secs':>6}")
    for fam in FAMILIES:
        t0 = time.perf_counter()
        e200 = estimate_rbound(fam, sector, p, geo, m_max=8, trials=200,
                               seed=0)
        e400 = estimate_rbound(fam, sector, p, geo, m_max=8, trials=400,
                               seed=0)
        drift = abs(e400.estimated_bound - e200.estimated_bound) \
            / e200.estimated_bound
        print(f"{fam:<14} {e200.estimated_bound:12.5g} "
              f"{e400.estimated_bound:12.5g} {100 * drift:6.1f}% "
              f"{time.perf_counter() - t0:6.1f}")


if __name__ == "__main__":
    main()
