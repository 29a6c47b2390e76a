#!/usr/bin/env python3
"""End-to-end demo: manufactured data, full solve with the pressure
coupling, residual and recovery report, contraction probe table."""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from korteweg.manufactured import (InteriorBump,  # noqa: E402
                                   ManufacturedPair, manufactured_data,
                                   manufactured_fields)
from korteweg.model import MaterialParams  # noqa: E402
from korteweg.resolvent import (HalfGeometry, auto_lambda0,  # noqa: E402
                                contraction_probe, residual_full,
                                solve_general)


def main():
    gamma = 0.1
    p = MaterialParams(1.0, 1.0, 2.0, gamma=gamma)
    geo = HalfGeometry(dim=2, points_per_axis=256, height=10.0)
    rng = np.random.default_rng(0)
    lam = 120.0 * np.exp(0.4j)

    pair = ManufacturedPair(geo.tangential,
                            InteriorBump.random(geo.tangential, rng, kmax=6),
                            None)
    data = manufactured_data(pair, geo, lam, p)
    sol, state = solve_general(data, lam, p)
    res = residual_full(sol, data)
    rho_star, _ = manufactured_fields(pair, geo)
    rec = np.max(np.abs(sol.rho() - rho_star)) / np.max(np.abs(rho_star))
    print(f"lambda = {lam:.4g}, gamma = {gamma}")
    print(f"iterations: {state.iterations}, "
          f"ratios: {[f'{r:.4f}' for r in state.ratio_history]}")
    print(f"max relative residual: {res.max_relative():.3e}")
    print(f"density recovery error: {rec:.3e}")

    lam0 = auto_lambda0(p, HalfGeometry(dim=2, points_per_axis=64))
    print(f"auto-selected modulus floor: {lam0}")

    print("\ncontraction probe (|lambda|, ratio):")
    rows = contraction_probe(p, HalfGeometry(dim=2, points_per_axis=64),
                             [1.0, 10.0, 100.0, 1e3, 1e4], seed=0)
    for lam_k, ratio in rows:
        print(f"  {abs(lam_k):10.1f}  {ratio:.6f}")


if __name__ == "__main__":
    main()
