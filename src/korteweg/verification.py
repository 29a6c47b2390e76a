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
from dataclasses import dataclass, field

import numpy as np

from .errors import ZeroDenominator
from .model import (MaterialParams, Sector, lam_derivative, radial_factors,
                    radial_stencil)
from .resolvent import (FullData, HalfGeometry, data_blocks,
                        random_full_data, solve_gamma_zero)

FAMILIES = ("S_A", "T_B", "S_A_dlambda", "T_B_dlambda")


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


# ---------------------------------------------------------------------------
# operator families
# ---------------------------------------------------------------------------

def lambda_derivative_family(apply_op, lam: complex,
                             sector: Sector | None = None):
    """lam d/dlam of an operator value by radial central differences.

    ``apply_op`` maps a scalar lam to a flat complex vector.  It runs at
    the ``model.radial_stencil`` points, all checked against ``sector``
    first, and ``model.lam_derivative`` combines the values.
    """
    values = [apply_op(complex(z)) for z in radial_stencil(lam, sector)]
    return lam_derivative(*values)


def family_apply(family_id: str, data: FullData, lam, p: MaterialParams,
                 sector: Sector | None = None):
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
        return list(blocks(solve_gamma_zero(data, lam, p)))
    points = radial_stencil(lam, sector)
    stencil_axis = -data.geometry.dim - 1
    # the solution (the whole stencil batch) is freed before differencing
    return [lam_derivative(*np.moveaxis(b, stencil_axis, 0)) for b in blocks(
        solve_gamma_zero(data.with_member_axis(), points, p))]


@dataclass(frozen=True)
class RBoundEstimate:
    """``argmax_trial`` is the trial that attains ``estimated_bound``
    ({"trial", "m", "lambdas": [[re, im], ...]}); ``solves`` counts the
    batched gamma = 0 solves the estimate made; ``ratios`` holds every
    trial's ratio in trial order, and ``to_json`` leaves it out."""

    family_id: str
    p_exponent: int
    m_max: int
    trials: int
    estimated_bound: float
    sigma: float
    delta: float
    seed: int
    argmax_trial: dict
    solves: int
    ratios: tuple = field(repr=False)

    def to_json(self):
        return {"family_id": self.family_id, "p": self.p_exponent,
                "m_max": self.m_max, "trials": self.trials,
                "estimated_bound": self.estimated_bound,
                "sigma": self.sigma, "delta": self.delta, "seed": self.seed,
                "argmax_trial": self.argmax_trial, "solves": self.solves}


def _group_ratios(family_id: str, group, p: MaterialParams,
                  sector: Sector):
    """Trial ratios of a group of (lams, data) trial draws, from one
    batched solve over all their members."""
    geo = group[0][1].geometry
    lams = np.concatenate([lams for lams, _ in group])
    data = FullData(geo, *(np.concatenate(
        [getattr(d, row) for _, d in group], axis=-geo.dim - 1)
        for row in "dfgh"))
    # p = 2 with Hilbert norms: the exact average is the closed form
    numer = geo.member_sq(family_apply(family_id, data, lams, p, sector))
    denom = geo.member_sq(data_blocks(data, lams))
    ratios, start = [], 0
    for lams, _ in group:
        stop = start + len(lams)
        num, den = numer[start:stop].sum(), denom[start:stop].sum()
        if den == 0.0:
            raise ZeroDenominator("all trial inputs vanish")
        ratios.append(float(np.sqrt(num / den)))
        start = stop
    return ratios


def estimate_rbound(family_id: str, sector: Sector, p: MaterialParams,
                    geometry: HalfGeometry, m_max: int = 8,
                    trials: int = 200, seed: int = 0,
                    lam_hi: float | None = None) -> RBoundEstimate:
    """Max over trials of the Rademacher ratio on random sector draws.

    Each trial draws m <= m_max sector points and data; trial t uses the
    RNG seeded by (seed, t), so the estimate is reproducible.

    Consecutive trials are packed greedily into groups of at most
    m_max * len(radial_factors()) (datum, lam) pairs, a datum counting
    len(radial_factors()) in the dlambda families (one pair per stencil
    point) and 1 in S_A and T_B: the size of the largest solve one
    dlambda trial makes alone.  Each group makes one batched gamma = 0
    solve, and a trial's ratio sums its members' norms.  Against one
    solve per trial the ratios move by at most 1e-15 relative, since a
    member's last bit can depend on the batch it shares.  The grouping
    follows the trial sequence only: the groups of a T-trial call are the
    first groups of any longer call, except its last, partly filled
    group, the only place where a ratio's last bit can differ.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if m_max < 1:
        raise ValueError(f"m_max must be >= 1, got {m_max}")
    # lam_hi stays settable: the delta-floor uniformity test moves the
    # lambda draws up by decades with it
    hi = lam_hi if lam_hi is not None else max(100.0 * max(sector.delta,
                                                           1.0), 1e3)
    cap = m_max * len(radial_factors())
    width = len(radial_factors()) if family_id.endswith("_dlambda") else 1

    draws, ratios, group, solves = [], [], [], 0
    for t in range(trials):
        rng = np.random.default_rng((seed, t))
        m = int(rng.integers(1, m_max + 1))
        lams = sector.sample(rng, m, lam_hi=hi)
        data = random_full_data(geometry, rng, batch=m)
        if width * (sum(len(g) for g, _ in group) + m) > cap:
            ratios += _group_ratios(family_id, group, p, sector)
            solves += 1
            group = []
        group.append((lams, data))
        draws.append(lams)
    ratios += _group_ratios(family_id, group, p, sector)
    solves += 1
    best = int(np.argmax(ratios))
    return RBoundEstimate(
        family_id=family_id, p_exponent=2, m_max=m_max, trials=trials,
        estimated_bound=ratios[best], sigma=sector.sigma,
        delta=sector.delta, seed=seed,
        argmax_trial={"trial": best, "m": len(draws[best]),
                      "lambdas": [[z.real, z.imag] for z in
                                  map(complex, draws[best])]},
        solves=solves, ratios=tuple(ratios))


def spearman_rho(xs, ys) -> float:
    """Spearman rank correlation (ties broken by order; none expected)."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    rx = np.argsort(np.argsort(xs)).astype(float)
    ry = np.argsort(np.argsort(ys)).astype(float)
    rx -= rx.mean()
    ry -= ry.mean()
    return float(np.sum(rx * ry) / np.sqrt(np.sum(rx ** 2) * np.sum(ry ** 2)))
