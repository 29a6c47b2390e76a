"""The five acceptance parameter sets, spanning both signs of eta_w.

Chosen so the pinned 40x9x40 scan grid resolves the sector landscape of
both the boundary symbols l_j (at sigma_w + 0.2) and the whole-space
polynomial (at sigma_w + 0.1 and pi/3).  Rejected examples and why:

* (2, 1, 1): l1 and l2 have a true zero, on the rays arg lambda =
  arg z* with pi - |arg z*| = 0.6688, inside the scan sector
  sigma_w + 0.2 = 0.2 the sets are scanned at; the grid samples only
  the dip around it (56% refinement drift), which is no grid artifact.
  ``certify.sigma_star`` returns that ray as sigma* = sigma_L, so the
  default scan sector lies above it, and ``scan_lower_bound``
  refuses l1, l2 and detL scans at sigma <= 0.6688;
* (1, 1, 4): sigma_w equals pi/3 exactly, so the pi/3 scan touches the
  degenerate angle;
* (1, 2, 1), (1, 3, 1): near-rim P dip too narrow at sigma_w + 0.1
  (18-19% drift).
"""

from korteweg.model import MaterialParams

ACCEPTANCE_SETS = [MaterialParams(*c) for c in
                   [(1.0, 1.0, 2.0),    # eta < 0
                    (1.0, 1.0, 3.0),    # eta < 0
                    (1.0, 2.0, 0.5),    # eta > 0
                    (1.0, 4.0, 1.0),    # eta > 0
                    (2.0, 4.0, 1.0)]]   # eta > 0
