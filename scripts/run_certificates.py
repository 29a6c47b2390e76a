#!/usr/bin/env python3
"""Multiplier-class certificates for every registered symbol.

Certifies at sigma = empirical sigma* + 0.1 and prints the estimated
constant per symbol.  Pass a JSON parameter object as the only argument
to override the reference set, e.g. '{"mu":1,"nu":2,"kappa":0.5}'.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from korteweg.certify import certify_registry  # noqa: E402
from korteweg.model import MaterialParams  # noqa: E402


def main():
    if len(sys.argv) > 1:
        p = MaterialParams.from_json(json.loads(sys.argv[1]))
    else:
        p = MaterialParams(1.0, 1.0, 2.0)
    sigma_star, sec, certs = certify_registry(p)
    print(f"certifying at sigma = {sec.sigma:.4f} "
          f"(empirical sigma* = {sigma_star:.4f})")
    for cert in certs:
        print(f"{cert.symbol_id:<12} order {cert.claimed_order:+5.1f} "
              f"type {cert.claimed_type}  C = {cert.estimated_constant:.4g}")


if __name__ == "__main__":
    main()
