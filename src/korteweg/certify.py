"""Lower-bound scans and multiplier-class certification.

A scan samples a sector grid (log-spaced moduli times angles), evaluates a
target quantity and reports the infimum of ``|target| / scaling``.  The
scaling encodes the claimed homogeneous lower bound; a strictly positive,
refinement-stable infimum is the numerical certificate.

Multiplier certification checks the derivative bounds defining the order-s
classes (type 1: (|lam|^{1/2}+|xi'|)^{s-|a|}; type 2: the same power of s
with |xi'|^{-|a|}) by nested Richardson-extrapolated central differences in
xi' and, for the lam d/dlam factor, the radial difference rule that the
R-bound derivative families use too (``model.radial_factors`` and
``model.lam_derivative``).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DerivativeStepUnderflow, EmptyGrid
from .model import (DerivedConstants, MaterialParams, Sector,
                    derive_constants, jth, lam_derivative, radial_factors,
                    richardson)
from .symbols import (frak_a, frak_b, frak_l, frak_m, frak_p, frak_q,
                      lopatinskii, roots_t, whole_space_symbol_P)

SCAN_TARGETS = ("P", "re_omega", "re_t1", "re_t2", "l1", "l2", "detL")
# the largest |lambda| of a grid, and the range of its frequency moduli
LAM_HI = 1e6
XI_LO = 1e-3
XI_HI = 1e3


@dataclass(frozen=True)
class GridSpec:
    """Sector sampling density: moduli are log-spaced, angles uniform."""

    n_lambda: int = 40
    n_theta: int = 9
    n_xi: int = 40

    def refine(self, factor: int = 2) -> "GridSpec":
        return GridSpec(self.n_lambda * factor, self.n_theta * factor,
                        self.n_xi * factor)

    def points(self, sector: Sector):
        """Cartesian (xi, lam) samples; xi are moduli of the frequency."""
        if min(self.n_lambda, self.n_theta, self.n_xi) <= 0:
            raise EmptyGrid("grid axis with zero samples")
        lam_lo = sector.delta if sector.delta > 0 else 1e-3
        mods = np.logspace(math.log10(lam_lo), math.log10(LAM_HI),
                           self.n_lambda)
        amax = (math.pi - sector.sigma) * (1.0 - 1e-9)
        thetas = np.linspace(-amax, amax, self.n_theta)
        lam = (mods[:, None] * np.exp(1j * thetas)[None, :]).ravel()
        xi = np.logspace(math.log10(XI_LO), math.log10(XI_HI), self.n_xi)
        lam_grid = np.repeat(lam, xi.size)
        xi_grid = np.tile(xi, lam.size)
        return xi_grid, lam_grid

    def to_json(self) -> dict:
        return {"n_lambda": self.n_lambda, "n_theta": self.n_theta,
                "n_xi": self.n_xi, "lam_hi": LAM_HI, "xi_lo": XI_LO,
                "xi_hi": XI_HI}


@dataclass(frozen=True)
class ScanResult:
    target: str
    sigma: float
    delta: float
    constant: float
    grid: GridSpec
    argmin_xi: float
    argmin_lambda: complex

    def to_json(self) -> dict:
        return {"target": self.target, "sigma": self.sigma,
                "delta": self.delta, "C": self.constant,
                "grid": self.grid.to_json(),
                "argmin_xi": self.argmin_xi,
                "argmin_lambda": [self.argmin_lambda.real,
                                  self.argmin_lambda.imag]}


def _scan_values(target: str, xi, lam, p: MaterialParams,
                 dc: DerivedConstants):
    if target not in SCAN_TARGETS:
        raise ValueError(f"unknown scan target {target!r}; the targets are "
                         f"{SCAN_TARGETS}")
    xi2 = xi ** 2
    denom = (np.sqrt(np.abs(lam)) + xi)
    if target == "P":
        return np.abs(whole_space_symbol_P(xi2, lam, p)) / denom ** 4
    roots = roots_t(xi2, lam, dc, p.mu)
    if target == "re_omega":
        return roots.omega.real / denom
    if target == "re_t1":
        return roots.t1.real / denom
    if target == "re_t2":
        return roots.t2.real / denom
    if target in ("l1", "l2"):
        val = frak_l(int(target[1]), xi2, lam, roots.omega, roots.t1,
                     roots.t2, dc, p)
        return np.abs(val) / denom ** 6
    # detL: report through the factorization: |detL| t1 |t1+omega| /
    # (|lam| |t2-t1|) recovers |l1|, scaled like the l-scan
    L = lopatinskii(xi2, lam, dc, p, roots)
    num = np.abs(L.det_factored) * np.abs(roots.t1) * np.abs(
        roots.t1 + roots.omega)
    den = np.abs(lam) * np.abs(roots.t2 - roots.t1)
    return num / den / denom ** 6


def scan_lower_bound(target: str, sector: Sector, grid: GridSpec,
                     p: MaterialParams,
                     dc: DerivedConstants | None = None,
                     return_points: bool = False):
    """Infimum over the grid of |target| / (|lam|^{1/2}+|xi|)^power.

    With return_points=True also returns the per-point (xi, lam, ratio)
    arrays for CSV emission.  ``dc`` stays an argument: the symbols
    benchmark passes the constants it derived once per parameter set.
    """
    dc = derive_constants(p) if dc is None else dc
    xi, lam = grid.points(sector)
    vals = _scan_values(target, xi, lam, p, dc)
    k = int(np.argmin(vals))
    result = ScanResult(target=target, sigma=sector.sigma,
                        delta=sector.delta, constant=float(vals[k]),
                        grid=grid, argmin_xi=float(xi[k]),
                        argmin_lambda=complex(lam[k]))
    if return_points:
        return result, (xi, lam, vals)
    return result


# the sigma* bisection: its scan grid, the degeneration threshold relative
# to the wide-angle constant, and the number of halvings
SIGMA_STAR_GRID = GridSpec(24, 9, 24)
SIGMA_STAR_FRAC = 1e-3
SIGMA_STAR_BISECTIONS = 24


def empirical_sigma_star(p: MaterialParams, target: str = "l1",
                         dc: DerivedConstants | None = None) -> float:
    """The floor angle sigma_w + 1e-4, unless the scan there degenerates.

    Returns sigma_w + 1e-4 whenever the scan constant at that angle on
    SIGMA_STAR_GRID exceeds SIGMA_STAR_FRAC times its reference at
    pi/2 - 1e-3.  Only otherwise does it bisect (SIGMA_STAR_BISECTIONS
    halvings) for the smallest sampled angle whose scan still exceeds
    that threshold.  On every parameter set tried so far (the five
    acceptance sets and four rejected ones) the floor scan is healthy,
    so the bisection never runs.  The grid steps over the zero rays of
    the Lopatinskii symbols that several of those sets have (for
    example at pi - |arg z*| = 0.6688 on (2, 1, 1)), so the returned
    angle is not a certified limiting angle.  ``dc`` stays an argument
    for the symbols benchmark, as in ``scan_lower_bound``.
    """
    dc = derive_constants(p) if dc is None else dc
    hi = math.pi / 2 - 1e-3
    lo = dc.sigma_w + 1e-4
    c_ref = scan_lower_bound(target, Sector(hi, 0.0), SIGMA_STAR_GRID, p,
                             dc).constant
    thresh = SIGMA_STAR_FRAC * c_ref

    def healthy(sigma):
        return scan_lower_bound(target, Sector(sigma, 0.0), SIGMA_STAR_GRID,
                                p, dc).constant > thresh

    if healthy(lo):
        return lo
    a, b = lo, hi
    for _ in range(SIGMA_STAR_BISECTIONS):
        mid = 0.5 * (a + b)
        if healthy(mid):
            b = mid
        else:
            a = mid
    return b


# ---------------------------------------------------------------------------
# multiplier certification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Certificate:
    symbol_id: str
    claimed_order: float
    claimed_type: int
    sector: Sector
    grid_spec: GridSpec
    estimated_constant: float
    max_alpha: int
    detail: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {"symbol_id": self.symbol_id, "s": self.claimed_order,
                "type": self.claimed_type, "sigma": self.sector.sigma,
                "delta": self.sector.delta, "C": self.estimated_constant,
                "grid": self.grid_spec.to_json(),
                "max_alpha": self.max_alpha}

    def to_json_str(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True)


def _step_sizes(xi_vec, lam, factor: float = 1e-4):
    """Per-axis finite-difference step; guards the underflow floor.

    The step is ``factor`` times the homogeneous scale |lam|^{1/2} +
    |xi'|, the variation scale of every symbol in play.  A smaller step
    makes the second differences rounding-dominated at lam-dominated
    grid corners.
    """
    xi_norm = np.sqrt(np.sum(xi_vec ** 2, axis=0))
    h = factor * np.maximum(xi_norm, np.sqrt(np.abs(lam)) + xi_norm)
    floor = 1e3 * np.finfo(float).eps * xi_norm
    if np.any(h <= floor):
        raise DerivativeStepUnderflow("finite-difference step below "
                                      "resolvable scale")
    return h


def _partial_xi(f, xi_vec, lam, order, h):
    """d^order/dxi^order by nested central differences, each
    Richardson-extrapolated once."""
    if not order:
        return f(xi_vec, lam)

    def d(step):
        return (_partial_xi(f, xi_vec + step, lam, order - 1, h)
                - _partial_xi(f, xi_vec - step, lam, order - 1, h)) / (
            2.0 * step)

    return richardson(d(h / 2.0), d(h))


def _lambda_dilation(f):
    """Return the closure (xi, lam) -> lam d/dlam f."""

    def g(xi_vec, lam):
        return lam_derivative(*(f(xi_vec, lam * c) for c in radial_factors()))

    return g


def certify_multiplier(symbol, symbol_id: str, claimed_order: float,
                       claimed_type: int, sector: Sector,
                       p: MaterialParams, grid: GridSpec | None = None,
                       max_alpha: int = 2) -> Certificate:
    """Estimate the multiplier constant of a symbol closure on a grid.

    ``symbol`` takes (xi_vec, lam) with xi_vec of shape (1, npts), the
    modulus of the frequency, and returns complex values of shape
    (npts,).  The certificate constant is the max over the grid,
    |alpha| <= max_alpha and n in {0, 1} of
    |d^alpha (lam d/dlam)^n symbol| / bound.
    """
    if claimed_type not in (1, 2):
        raise ValueError("claimed_type must be 1 or 2")
    if max_alpha < 0:
        raise ValueError(f"max_alpha = {max_alpha} must be >= 0")
    grid = grid or GridSpec(20, 7, 20)
    xi_mod, lam = grid.points(sector)
    xi_vec = xi_mod[None, :]
    h = _step_sizes(xi_vec, lam)
    denom_base = np.sqrt(np.abs(lam)) + xi_mod

    worst = 0.0
    detail = {}
    for n in (0, 1):
        f = symbol if n == 0 else _lambda_dilation(symbol)
        for na in range(max_alpha + 1):
            val = np.abs(_partial_xi(f, xi_vec, lam, na, h))
            if claimed_type == 1:
                bound = denom_base ** (claimed_order - na)
            else:
                bound = denom_base ** claimed_order * xi_mod ** (-float(na))
            ratio = float(np.max(val / bound))
            detail[f"n={n},alpha={(na,)}"] = ratio
            worst = max(worst, ratio)
    return Certificate(symbol_id=symbol_id, claimed_order=claimed_order,
                       claimed_type=claimed_type, sector=sector,
                       grid_spec=grid, estimated_constant=worst,
                       max_alpha=max_alpha, detail=detail)


def certify_registry(p: MaterialParams, names=None, max_alpha: int = 2):
    """Certify registry symbols at sigma = empirical sigma* + 0.1.

    The angle is capped at 1.45 to stay inside (0, pi/2).  ``names``
    defaults to the whole registry in sorted order, and a name outside
    it is refused; the grid is ``certify_multiplier``'s default.
    Returns (sigma_star, sector, certificates).
    """
    dc = derive_constants(p)
    reg = symbol_registry(p, dc)
    unknown = sorted(set(names or ()) - set(reg))
    if unknown:
        raise ValueError(f"unknown symbols {unknown}; the registry holds "
                         f"{sorted(reg)}")
    sigma_star = empirical_sigma_star(p, "l1", dc=dc)
    sec = Sector(min(sigma_star + 0.1, 1.45), 0.0)
    certs = []
    for name in names or sorted(reg):
        fn, order, typ = reg[name]
        certs.append(certify_multiplier(fn, name, order, typ, sec, p,
                                        max_alpha=max_alpha))
    return sigma_star, sec, certs


def symbol_registry(p: MaterialParams, dc: DerivedConstants | None = None):
    """Closures for every certifiable symbol, keyed by id.

    Values are (closure, claimed_order, claimed_type).  Closures accept
    (xi_vec, lam) and tolerate array lam.  The closures that read
    exponents share them: the registry owns one ``RootSet`` per distinct
    (|xi'|^2, lam) it has been called at, keyed by the dtype, shape and
    bytes of both arrays (a hit is exact), so a sweep over the registry
    evaluates the square roots at each certificate stencil point once,
    not once per symbol.  Each closure then evaluates its symbol's one
    formula from that ``RootSet``.  The exponents are evaluated without
    the branch-cut check because finite-difference stencils may
    momentarily leave the open sector at its rim.  The memo lives as
    long as the registry; one sweep holds 3 complex arrays per stencil
    array.  ``dc`` stays an argument for the symbols benchmark, as in
    ``scan_lower_bound``.
    """
    dc = derive_constants(p) if dc is None else dc
    # Each distinct array's (dtype, shape, bytes) is stored once and
    # shared by every key that names it: at max_alpha = 2 a sweep's 105
    # keys name 21 xi'^2 and 5 lam arrays.  A stored part keeps its hash,
    # so the RootSet lookup hashes no array bytes.
    parts: dict = {}
    roots: dict = {}

    def part(a):
        key = (a.dtype.str, a.shape, a.tobytes())
        # found by a hash of each element's first byte, a quarter of the
        # cost of hashing every byte; a hit still compares every byte
        same = parts.setdefault(key[:2] + (hash(key[2][::a.itemsize]),), [])
        for known in same:
            if known == key:
                return known
        same.append(key)
        return key

    def of_roots(fn):
        def closure(xi_vec, lam):
            xi2 = np.sum(np.asarray(xi_vec) ** 2, axis=0)
            lam = np.asarray(lam)
            key = (part(xi2), part(lam))
            r = roots.get(key)
            if r is None:
                r = roots[key] = roots_t(xi2, lam, dc, p.mu, check=False)
            return fn(xi2, lam, r)

        return closure

    def l_j(j, xi2, lam, r):
        return frak_l(j, xi2, lam, r.omega, r.t1, r.t2, dc, p)

    reg = {
        "xi_j": (lambda xi_vec, lam: xi_vec[0] + 0.0 * lam, 1.0, 1),
        "sqrt_lambda": (lambda xi_vec, lam:
                        np.sqrt(lam) + 0.0 * xi_vec[0], 1.0, 1),
        "xi_sq": (lambda xi_vec, lam:
                  np.sum(np.asarray(xi_vec) ** 2, axis=0) + 0.0 * lam, 2.0, 1),
        "lambda": (lambda xi_vec, lam: lam + 0.0 * xi_vec[0], 2.0, 1),
        "xi_over_abs": (lambda xi_vec, lam:
                        xi_vec[0] / np.sqrt(np.sum(np.asarray(xi_vec) ** 2,
                                                   axis=0)) + 0.0 * lam,
                        0.0, 2),
    }
    for j in (1, 2):
        reg[f"t{j}"] = (of_roots(lambda xi2, lam, r, j=j:
                                 jth(j, r.t1, r.t2)), 1.0, 1)
        reg[f"t{j}+omega"] = (of_roots(lambda xi2, lam, r, j=j:
                                       jth(j, r.t1, r.t2) + r.omega), 1.0, 1)
        reg[f"m{j}"] = (of_roots(lambda xi2, lam, r, j=j: frak_m(
            j, xi2, lam, r.omega, jth(j, r.t1, r.t2), dc, p)), 3.0, 1)
        reg[f"p{j}"] = (of_roots(lambda xi2, lam, r, j=j: frak_p(
            j, r.omega, jth(j, r.t1, r.t2), dc, p)), 1.0, 1)
        reg[f"q{j}"] = (of_roots(lambda xi2, lam, r, j=j: frak_q(
            j, r.omega, jth(j, r.t1, r.t2), dc, p)), 1.0, 1)
        reg[f"r{j}"] = (of_roots(lambda xi2, lam, r, j=j: r.r_frak(j)),
                        0.0, 1)
        reg[f"l{j}"] = (of_roots(lambda xi2, lam, r, j=j: l_j(j, xi2, lam, r)),
                        6.0, 1)
        reg[f"l{j}_inv"] = (of_roots(lambda xi2, lam, r, j=j:
                                     1.0 / l_j(j, xi2, lam, r)), -6.0, 1)
    reg["a"] = (of_roots(lambda xi2, lam, r: frak_a(r.t1, r.t2, dc)), 1.0, 1)
    reg["b"] = (of_roots(lambda xi2, lam, r: frak_b(r.t1, r.t2, dc)), 1.0, 1)
    for s in (-2, -1, 1, 2):
        reg[f"omega^{s}"] = (
            of_roots(lambda xi2, lam, r, s=s: r.omega ** s), float(s), 1)
    return reg
