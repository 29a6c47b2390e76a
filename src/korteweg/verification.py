"""Rademacher-average machinery and the R-bound estimator.

With exponent p = 2 fixed (licensed by the Kahane equivalence of
exponents), the squared Rademacher average of sums of Hilbert-space
vectors has the closed form sum ||v_j||^2; the exact enumeration over
sign vectors is kept as an independently computable path and the two are
cross-checked in the tests.

The estimated bounds are finite-grid regression baselines: the discrete
norms live on a periodic half-box, not the continuum half-space, so the
numbers are internal references, not the paper-level constants.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import StepOutsideSector, ZeroDenominator
from .model import DerivedConstants, MaterialParams, Sector, derive_constants
from .resolvent import (FullData, HalfGeometry, data_blocks,
                        random_full_data, solve_gamma_zero)

FAMILIES = ("S_A", "T_B", "S_A_dlambda", "T_B_dlambda")

# relative radial step of the lambda-derivative families
REL_STEP = 1e-5


# ---------------------------------------------------------------------------
# Rademacher averages
# ---------------------------------------------------------------------------

def rademacher_mean_sq(vectors, weights=None, mode: str = "exact",
                       rng=None, draws: int = 10_000):
    """E || sum_j eps_j v_j ||^2 over uniform sign vectors.

    ``vectors`` is a list of equal-length 1-d arrays; ``weights`` an
    optional per-coordinate quadrature weight.  exact mode enumerates all
    2^m sign patterns (m <= 10); montecarlo averages over ``draws``
    random patterns.
    """
    m = len(vectors)
    stack = np.stack(vectors)
    w = np.ones(stack.shape[1]) if weights is None else weights
    if mode == "exact":
        if m > 10:
            raise ValueError("exact enumeration capped at m = 10")
        total = 0.0
        for signs in itertools.product((1.0, -1.0), repeat=m):
            s = np.asarray(signs) @ stack
            total += float(np.sum(np.abs(s) ** 2 * w))
        return total / 2 ** m
    if mode == "montecarlo":
        rng = np.random.default_rng(0) if rng is None else rng
        signs = rng.choice([1.0, -1.0], size=(draws, m))
        total = 0.0
        for chunk in np.array_split(signs, max(1, draws // 512)):
            s = chunk @ stack
            total += float(np.sum(np.abs(s) ** 2 * w))
        return total / draws
    raise ValueError(f"unknown mode {mode!r}")


def rademacher_closed_form(vectors, weights=None):
    """sum_j ||v_j||^2: the orthogonality value the average must match."""
    w = 1.0 if weights is None else weights
    return float(sum(np.sum(np.abs(v) ** 2 * w) for v in vectors))


def rademacher_ratio(outputs, inputs, out_weights=None, in_weights=None,
                     mode: str = "exact", rng=None, draws: int = 10_000):
    """Ratio of Rademacher-averaged norms, outputs over inputs.

    outputs[j] is the flattened weighted-block vector T_j f_j; inputs[j]
    the flattened data-block vector of f_j.  For m = 1 this reduces to a
    plain operator-norm sample.
    """
    denom = rademacher_mean_sq(inputs, in_weights, mode, rng, draws)
    if denom == 0.0:
        raise ZeroDenominator("all inputs vanish")
    numer = rademacher_mean_sq(outputs, out_weights, mode, rng, draws)
    return float(np.sqrt(numer / denom))


# ---------------------------------------------------------------------------
# operator families
# ---------------------------------------------------------------------------

def _radial_stencil(lam, sector: Sector | None = None,
                    rel_step: float = REL_STEP):
    """The four radial difference points of each lam, on a trailing axis.

    Order: lam (1 +- rel_step/2), then lam (1 +- rel_step).  The step
    direction lam/|lam| keeps the points at the same argument, so only
    the modulus floor can be violated; every point is checked against
    the sector before any operator is applied.
    """
    factors = np.array([1 + rel_step / 2, 1 - rel_step / 2,
                        1 + rel_step, 1 - rel_step])
    points = np.asarray(lam, dtype=complex)[..., None] * factors
    if sector is not None:
        for z in points.ravel():
            if not sector.contains(z):
                raise StepOutsideSector(f"{z} leaves the sector")
    return points


def _richardson(values, rel_step: float = REL_STEP, axis: int = 0):
    """lam d/dlam from operator values at the _radial_stencil points.

    Central differences at both steps, Richardson-extrapolated once.
    """
    up_half, dn_half, up, dn = np.moveaxis(values, axis, 0)

    def d(plus, minus, eps):
        return (plus - minus) / (2 * eps)

    return (4.0 * d(up_half, dn_half, rel_step / 2)
            - d(up, dn, rel_step)) / 3.0


def lambda_derivative_family(apply_op, lam: complex, sector: Sector | None
                             = None, rel_step: float = REL_STEP):
    """lam d/dlam of an operator value by radial central differences.

    ``apply_op`` maps a scalar lam to a flat complex vector.  It runs at
    lam (1 +- rel_step/2) and lam (1 +- rel_step), all checked against
    ``sector`` first, and the two central differences are
    Richardson-extrapolated once.
    """
    values = [apply_op(complex(z))
              for z in _radial_stencil(lam, sector, rel_step)]
    return _richardson(np.stack(values), rel_step)


def family_apply(family_id: str, data: FullData, lam, p: MaterialParams,
                 dc: DerivedConstants, sector: Sector | None = None):
    """Output blocks of one family on a datum or a batch, in one solve.

    ``lam`` broadcasts against the data's batch shape.  S_A gives the
    density blocks, T_B the velocity blocks; the dlambda variants apply
    the radial derivative to the end-to-end map, solving all stencil
    points of every member in the same call.  ``HalfGeometry.block_sq``
    of the result is the squared family norm.
    """
    if family_id not in FAMILIES:
        raise ValueError(f"unknown family {family_id!r}")
    which = family_id.removesuffix("_dlambda")

    def blocks(sol):
        return sol.s_blocks() if which == "S_A" else sol.t_blocks()

    if family_id == which:
        return list(blocks(solve_gamma_zero(data, lam, p, dc)))
    points = _radial_stencil(lam, sector)
    stencil_axis = -data.geometry.dim - 1
    # the solution (the whole stencil batch) is freed before differencing
    return [_richardson(b, axis=stencil_axis) for b in blocks(
        solve_gamma_zero(data.with_member_axis(), points, p, dc))]


@dataclass(frozen=True)
class RBoundEstimate:
    family_id: str
    p_exponent: int
    m_max: int
    trials: int
    estimated_bound: float
    sigma: float
    delta: float
    seed: int

    def to_json(self):
        return {"family_id": self.family_id, "p": self.p_exponent,
                "m_max": self.m_max, "trials": self.trials,
                "estimated_bound": self.estimated_bound,
                "sigma": self.sigma, "delta": self.delta, "seed": self.seed}


def estimate_rbound(family_id: str, sector: Sector, p: MaterialParams,
                    geometry: HalfGeometry, m_max: int = 8,
                    trials: int = 200, seed: int = 0,
                    dc: DerivedConstants | None = None,
                    lam_hi: float | None = None,
                    return_ratios: bool = False):
    """Max over trials of the Rademacher ratio on random sector draws.

    Each trial draws m <= m_max sector points and data; trial t uses the
    RNG seeded by (seed, t), so the estimate is reproducible and monotone
    nondecreasing in ``trials``.  A trial makes one batched gamma = 0
    solve over all its members.
    """
    dc = derive_constants(p) if dc is None else dc
    hi = lam_hi if lam_hi is not None else max(100.0 * max(sector.delta,
                                                           1.0), 1e3)

    ratios = []
    for t in range(trials):
        rng = np.random.default_rng((seed, t))
        m = int(rng.integers(1, m_max + 1))
        lams = sector.sample(rng, m, lam_hi=hi)
        data = random_full_data(geometry, rng, batch=m)
        # p = 2 with Hilbert norms: the exact average is the closed form
        numer = geometry.block_sq(family_apply(family_id, data, lams, p,
                                               dc, sector))
        denom = geometry.block_sq(data_blocks(data, lams))
        if denom == 0.0:
            raise ZeroDenominator("all trial inputs vanish")
        ratios.append(float(np.sqrt(numer / denom)))
    est = RBoundEstimate(family_id=family_id, p_exponent=2, m_max=m_max,
                         trials=trials, estimated_bound=float(max(ratios)),
                         sigma=sector.sigma, delta=sector.delta, seed=seed)
    if return_ratios:
        return est, ratios
    return est


def spearman_rho(xs, ys) -> float:
    """Spearman rank correlation (ties broken by order; none expected)."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    rx = np.argsort(np.argsort(xs)).astype(float)
    ry = np.argsort(np.argsort(ys)).astype(float)
    rx -= rx.mean()
    ry -= ry.mean()
    return float(np.sum(rx * ry) / np.sqrt(np.sum(rx ** 2) * np.sum(ry ** 2)))
