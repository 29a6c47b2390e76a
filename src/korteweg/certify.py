"""Lower-bound scans and multiplier-class certification.

A scan samples a sector grid (log-spaced moduli times angles), evaluates a
target quantity and reports the infimum of ``|target| / scaling``.  The
scaling encodes the claimed homogeneous lower bound; a strictly positive,
refinement-stable infimum is the numerical certificate.

Multiplier certification checks the derivative bounds defining the order-s
classes (type 1: (|lam|^{1/2}+|xi'|)^{s-|a|}; type 2: the same power of s
with |xi'|^{-|a|}).  It evaluates each symbol once per grid point on
truncated Taylor polynomials ("jets") in xi' and log lam, and reads every
derivative off their coefficients (A. Griewank and A. Walther, Evaluating
Derivatives, 2nd ed., SIAM 2008, ch. 13).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import EmptyGrid, ZeroRaysInSector
from .model import (DerivedConstants, MaterialParams, Sector, default_sigma,
                    derive_constants, lam_derivative, radial_stencil)
from .symbols import (frak_a, frak_b, frak_l, frak_m, frak_p, frak_q,
                      lopatinskii, principal_sqrt, reduced_det, roots_t,
                      whole_space_symbol_P)

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
        return np.abs(frak_l(int(target[1]), roots)) / denom ** 6
    # detL: report through the factorization: |detL| t1 |t1+omega| /
    # (|lam| |t2-t1|) recovers |l1|, scaled like the l-scan
    L = lopatinskii(roots)
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
    A sector holding zero rays of the target is refused
    (``ZeroRaysInSector``, a ValueError): P's at sigma <= sigma_w, and
    l1's, l2's and detL's at or below the ``zero_ray_floor``.
    """
    dc = derive_constants(p) if dc is None else dc
    if target == "P":
        refuse_zero_rays(sector.sigma, "sigma_w", dc.sigma_w, "P")
    elif target in ("l1", "l2", "detL"):
        refuse_zero_rays(sector.sigma, *zero_ray_floor(p, dc))
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


def sigma_star(p: MaterialParams, dc: DerivedConstants | None = None):
    """(sigma*, rays): the sorted zero rays pi - |arg z| > sigma_w of the
    Lopatinskii determinant, z = lam/|xi'|^2 a zero of ``reduced_det`` D
    at |xi'| = 1, and sigma* = max(sigma_w + 1e-4, *rays).  D's product
    over the signs of t1 and t2 is a degree-12 polynomial in z with a
    triple root at 0; an FFT on |z| = mu gives its coefficients in z / z0
    and ``np.roots`` the other 9 roots, which Newton polishes on the
    principal branch.  A root counts if |z| > 1e-8 (Newton can pull it
    onto D's trivial zero) and |D| <= 1e-10 (1 + |z|^3); copies within
    1e-7 are merged."""
    dc = derive_constants(p) if dc is None else dc
    z0 = p.mu * np.exp(1j * np.pi / 64)     # no sample on a cut of t1, t2
    r = roots_t(1.0, z0 * np.exp(2j * np.pi * np.arange(64) / 64), dc, p.mu)
    product = math.prod(reduced_det(replace(r, t1=e1 * r.t1, t2=e2 * r.t2))
                        for e1 in (1, -1) for e2 in (1, -1))
    z = z0 * np.roots(np.fft.fft(product)[12:2:-1])
    for _ in range(6):
        d = reduced_det(roots_t(1.0, np.column_stack((z, radial_stencil(z))),
                                dc, p.mu))
        z = z - z * d[:, 0] / lam_derivative(*d[:, 1:].T)
    rays = math.pi - np.abs(np.angle(z))
    rays = np.sort(rays[(np.abs(z) > 1e-8) & (rays > dc.sigma_w) & (
        np.abs(reduced_det(roots_t(1.0, z, dc, p.mu)))
        <= 1e-10 * (1 + np.abs(z) ** 3))])
    rays = tuple(map(float, rays[np.diff(rays, prepend=0.0) > 1e-7]))
    return max((dc.sigma_w + 1e-4, *rays)), rays


def zero_ray_floor(p: MaterialParams, dc: DerivedConstants | None = None):
    """(name, ray, symbol) of the zero ray every sector and lambda stays
    above: sigma_L, the largest ``sigma_star`` ray, or else sigma_w."""
    dc = derive_constants(p) if dc is None else dc
    rays = sigma_star(p, dc)[1]
    return ("sigma_L", rays[-1], "the Lopatinskii determinant") if rays \
        else ("sigma_w", dc.sigma_w, "P")


def refuse_zero_rays(sigma: float, name: str, ray: float, symbol: str):
    """Refuse (``ZeroRaysInSector``) a sector at sigma <= ``ray``."""
    if sigma <= ray:
        raise ZeroRaysInSector(f"sigma = {sigma:.4f} <= {name} = {ray:.4f}: "
                               f"the sector holds zero rays of {symbol}")


def empirical_sigma_star(p: MaterialParams, target: str = "l1",
                         dc: DerivedConstants | None = None) -> float:
    """``sigma_star``'s sigma*, that of l1 and l2, under its old name."""
    if target not in ("l1", "l2"):
        raise ValueError(f"sigma* is that of l1 and l2, not {target!r}")
    return sigma_star(p, dc)[0]


# ---------------------------------------------------------------------------
# multiplier certification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Certificate:
    """``detail`` holds each derivative entry's maximum ratio; ``argmax``
    says where the largest, ``estimated_constant``, is reached: the
    entry ({"n", "alpha": [a]}) and the grid point ({"xi", "lambda":
    [re, im]})."""

    symbol_id: str
    claimed_order: float
    claimed_type: int
    sector: Sector
    grid_spec: GridSpec
    estimated_constant: float
    max_alpha: int
    argmax: dict
    detail: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {"symbol_id": self.symbol_id, "s": self.claimed_order,
                "type": self.claimed_type, "sigma": self.sector.sigma,
                "delta": self.sector.delta, "C": self.estimated_constant,
                "grid": self.grid_spec.to_json(),
                "max_alpha": self.max_alpha, "argmax": self.argmax}

    def to_json_str(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True)


class Jet:
    """Truncated Taylor polynomial in (xi - xi0, log lam - log lam0).

    ``c[a, n]``, on the leading axes of one array over the grid, is the
    coefficient of (xi - xi0)^a (log lam - log lam0)^n, a <= order, n <= 1;
    a scalar or grid array is a constant.  Products are truncated 2-D
    convolutions; 1/g and sqrt(g) are binomial series in h = g/v - 1 about
    the value v, which end at the total order, order + 1.
    """

    # numpy defers its binary operators to the jet's; np.sqrt(jet) calls
    # Jet.sqrt through numpy's object loop
    __array_priority__ = 1.0

    def __init__(self, c):
        self.c = c

    @property
    def real(self):
        """The real part of the value, as ``principal_sqrt`` reads it."""
        return self.c[0, 0].real

    @property
    def imag(self):
        """The imaginary part of the value."""
        return self.c[0, 0].imag

    def __add__(self, other):
        if isinstance(other, Jet):
            return Jet(self.c + other.c)
        c = self.c.astype(np.result_type(self.c, other))
        c[0, 0] += other
        return Jet(c)

    def __sub__(self, other):
        return self + -1.0 * other

    def __rsub__(self, other):
        return -1.0 * self + other

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.c * other)
        f, g = self.c, other.c
        out = np.zeros(f.shape, np.result_type(f, g))
        top = len(f)
        for i in range(top):
            out[i:, 0] += f[i, 0] * g[:top - i, 0]
            out[i:, 1] += f[i, 0] * g[:top - i, 1] + f[i, 1] * g[:top - i, 0]
        return Jet(out)

    __radd__, __rmul__ = __add__, __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * (1.0 / other)
        return Jet(self.c / other)

    def __rtruediv__(self, other):
        return self._power(-1.0, other / self.c[0, 0])

    def __pow__(self, n: int):
        if n < 0:
            return 1.0 / self ** -n
        return self if n == 1 else self * self ** (n - 1)

    def sqrt(self):
        """Principal square root; refuses a value on the branch cut."""
        return self._power(0.5, principal_sqrt(self.c[0, 0]))

    def _power(self, p: float, head):
        """head * (self / value) ** p, where head is a constant: the
        series sum_k C(p, k) h^k in h = self / value - 1, by Horner's
        rule."""
        h = Jet(self.c / self.c[0, 0])
        h.c[0, 0] = 0.0
        acc = 0.0
        for k in range(len(self.c), 0, -1):
            acc = h * (acc + math.prod((p - i) / (i + 1) for i in range(k)))
        return (acc + 1.0) * head


def jet_derivatives(symbol, xi, lam, max_alpha: int):
    """d^a/dxi^a (lam d/dlam)^n symbol at grid points (xi, lam), on leading
    axes [a, n] for a <= max_alpha and n <= 1.

    ``symbol`` is evaluated once, on the jets xi + dxi and lam e^s (lam
    d/dlam is d/ds), and each coefficient is multiplied by a!.
    """
    xi_c = np.zeros((max_alpha + 1, 2) + xi.shape)
    xi_c[0, 0] = xi
    xi_c[1:2, 0] = 1.0              # dxi, unless max_alpha = 0
    lam_c = np.zeros_like(xi_c, dtype=lam.dtype)
    lam_c[0] = lam                  # lam e^s = lam + lam s + O(s^2)
    c = symbol(Jet(xi_c), Jet(lam_c)).c
    fact = [math.factorial(a) for a in range(max_alpha + 1)]
    return c * np.array(fact)[:, None, None]


def certify_multiplier(symbol, symbol_id: str, claimed_order: float,
                       claimed_type: int, sector: Sector,
                       p: MaterialParams, grid: GridSpec | None = None,
                       max_alpha: int = 2) -> Certificate:
    """Estimate the multiplier constant of a symbol closure on a grid.

    ``symbol`` takes (xi, lam), xi the modulus of the frequency, and is
    built from +, -, *, /, integer powers and ``np.sqrt`` of them; it is
    evaluated once, on jets (``jet_derivatives``).  The certificate
    constant is the max over the grid, |alpha| <= max_alpha and n in
    {0, 1} of |d^alpha (lam d/dlam)^n symbol| / bound.
    """
    if claimed_type not in (1, 2):
        raise ValueError("claimed_type must be 1 or 2")
    if max_alpha < 0:
        raise ValueError(f"max_alpha = {max_alpha} must be >= 0")
    grid = grid or GridSpec(20, 7, 20)
    xi, lam = grid.points(sector)
    deriv = np.abs(jet_derivatives(symbol, xi, lam, max_alpha))
    denom_base = np.sqrt(np.abs(lam)) + xi
    detail, where = {}, {}
    for n in (0, 1):
        for na in range(max_alpha + 1):
            if claimed_type == 1:
                bound = denom_base ** (claimed_order - na)
            else:
                bound = denom_base ** claimed_order * xi ** (-float(na))
            ratio = deriv[na, n] / bound
            key = f"n={n},alpha={(na,)}"
            k = int(np.argmax(ratio))
            detail[key] = float(ratio[k])
            where[key] = {"n": n, "alpha": [na], "xi": float(xi[k]),
                          "lambda": [float(lam[k].real),
                                     float(lam[k].imag)]}
    top = max(detail, key=detail.get)
    return Certificate(symbol_id=symbol_id, claimed_order=claimed_order,
                       claimed_type=claimed_type, sector=sector,
                       grid_spec=grid, estimated_constant=detail[top],
                       max_alpha=max_alpha, argmax=where[top], detail=detail)


def certify_registry(p: MaterialParams, names=None, max_alpha: int = 2):
    """Certify registry symbols at the sector angle
    ``default_sigma(sigma*, 0.1)``, sigma* that of ``sigma_star``.

    ``names`` defaults to the whole registry in sorted order, and a name
    outside it is refused; the grid is ``certify_multiplier``'s default.
    Returns (sigma_star, zero_rays, sector, certificates).
    """
    dc = derive_constants(p)
    reg = symbol_registry(p, dc)
    unknown = sorted(set(names or ()) - set(reg))
    if unknown:
        raise ValueError(f"unknown symbols {unknown}; the registry holds "
                         f"{sorted(reg)}")
    star, rays = sigma_star(p, dc)
    sec = Sector(default_sigma(star, 0.1), 0.0)
    certs = []
    for name in names or sorted(reg):
        fn, order, typ = reg[name]
        certs.append(certify_multiplier(fn, name, order, typ, sec, p,
                                        max_alpha=max_alpha))
    return star, rays, sec, certs


def _point_key(arg):
    """The type, dtype, shape and bytes of an array or of a ``Jet``'s
    coefficients; None for anything else and for object dtype (mpmath
    numbers), whose bytes are pointers."""
    arr = arg.c if isinstance(arg, Jet) else arg
    if not isinstance(arr, np.ndarray) or arr.dtype == object:
        return None
    return type(arg), arr.dtype, arr.shape, arr.tobytes()


def symbol_registry(p: MaterialParams, dc: DerivedConstants | None = None):
    """Closures for every certifiable symbol, keyed by id.

    Values are (closure, claimed_order, claimed_type).  Closures take
    (xi, lam) of one shape, xi the modulus |xi'|, as arrays or ``Jet``s,
    and pass the ``RootSet`` of that point set to the symbol's formula.
    The registry evaluates the exponents once per point set: its one
    slot holds the last (xi, lam) its closures were called at and the
    ``roots_t`` result there, and a call whose arguments match the slot
    (``_point_key``) reads it; any other call computes the roots and
    replaces it.  ``dc`` stays an argument for the symbols benchmark, as
    in ``scan_lower_bound``.
    """
    dc = derive_constants(p) if dc is None else dc
    slot = {}

    def of_roots(fn):
        def closure(xi, lam):
            key = (_point_key(xi), _point_key(lam))
            if None in key:
                return fn(roots_t(xi * xi, lam, dc, p.mu))
            if slot.get("key") != key:
                slot.clear()
                slot.update(key=key, roots=roots_t(xi * xi, lam, dc, p.mu))
            return fn(slot["roots"])

        return closure

    reg = {
        "xi_j": (lambda xi, lam: xi, 1.0, 1),
        "sqrt_lambda": (lambda xi, lam: np.sqrt(lam), 1.0, 1),
        "xi_sq": (lambda xi, lam: xi * xi, 2.0, 1),
        "lambda": (lambda xi, lam: lam, 2.0, 1),
        "xi_over_abs": (lambda xi, lam: xi / np.sqrt(xi * xi), 0.0, 2),
    }
    for j in (1, 2):
        reg[f"t{j}"] = (of_roots(lambda r, j=j: r.t(j)), 1.0, 1)
        reg[f"t{j}+omega"] = (of_roots(lambda r, j=j: r.t(j) + r.omega),
                              1.0, 1)
        reg[f"m{j}"] = (of_roots(lambda r, j=j: frak_m(j, r)), 3.0, 1)
        reg[f"p{j}"] = (of_roots(lambda r, j=j: frak_p(j, r)), 1.0, 1)
        reg[f"q{j}"] = (of_roots(lambda r, j=j: frak_q(j, r)), 1.0, 1)
        reg[f"r{j}"] = (of_roots(lambda r, j=j: r.r_frak(j)), 0.0, 1)
        reg[f"l{j}"] = (of_roots(lambda r, j=j: frak_l(j, r)), 6.0, 1)
        reg[f"l{j}_inv"] = (of_roots(lambda r, j=j: 1.0 / frak_l(j, r)),
                            -6.0, 1)
    reg["a"] = (of_roots(frak_a), 1.0, 1)
    reg["b"] = (of_roots(frak_b), 1.0, 1)
    for s in (-2, -1, 1, 2):
        reg[f"omega^{s}"] = (of_roots(lambda r, s=s: r.omega ** s),
                             float(s), 1)
    return reg
