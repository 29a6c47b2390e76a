"""Spectral symbols of the half-space problem with correct branch choices.

Everything here is vectorized: ``xi_prime_sq`` and ``lam`` may be scalars or
broadcastable arrays, and all outputs follow numpy broadcasting rules.

Branch convention: principal square root throughout.  On the admissible
sector the arguments stay off the closed negative real axis, which is
checked (not assumed) by :func:`principal_sqrt`.

Each exponent (omega, t_j) and each eliminated boundary symbol (m_j, p_j,
q_j, l_j, a, b) is written once.  ``roots_t`` evaluates the exponents at
one symbol point (|xi'|^2, lam) and returns them as a ``RootSet``, which
also carries the point and the constants s1, s2 and mu; every boundary
symbol takes that one object (and its index j) and reads the rest from
it, so exponents and constants that do not belong together cannot be
passed.  ``frak_symbols`` composes the symbols into the bundle the
half-space solver reads.  A certification registry evaluates the
exponents once per point set, keeps them in one slot, and evaluates each
symbol alone from them, on Taylor jets that pass through the same
formulas.
The "frak" symbols are evaluated only through their eliminated polynomial
forms; the raw quotient definitions divide by ``lam`` and implicitly by
``t2 - t1`` and exist here solely as test oracles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BranchCutHit
from .model import DerivedConstants, MaterialParams, jth

# Relative root-separation threshold below which the divided-difference
# kernel forms switch to the quadrature path.
EPS_SWITCH = 1e-4

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
# mapped from [-1, 1] to [0, 1]
_GL_THETA = 0.5 * (_GL_NODES + 1.0)
_GL_W = 0.5 * _GL_WEIGHTS


def principal_sqrt(z):
    """Principal branch square root; rejects the closed negative real axis.

    ``z`` is a number, an array or a ``certify.Jet``, whose ``real`` and
    ``imag`` are those of its value.
    """
    z = z + 0j
    on_cut = (z.imag == 0.0) & (z.real <= 0.0)
    if np.any(on_cut):
        raise BranchCutHit("square-root argument on (-inf, 0]")
    return np.sqrt(z)


def omega_lambda(xi_prime_sq, lam, mu: float):
    """omega = sqrt(|xi'|^2 + lam/mu), Re > 0 on the sector."""
    return principal_sqrt(xi_prime_sq + lam / mu)


def t_root(j: int, xi_prime_sq, lam, dc: DerivedConstants):
    """t_j = sqrt(|xi'|^2 + s_j lam), Re > 0 on the sector."""
    return principal_sqrt(xi_prime_sq + dc.s(j) * lam)


@dataclass(frozen=True)
class RootSet:
    """One symbol point (or an array of them) with its decaying exponents.

    ``xi2`` = |xi'|^2 and ``lam`` are the point; ``omega``, ``t1`` and
    ``t2`` its exponents; ``s1``, ``s2`` and ``mu`` the constants they
    were taken with.  Every boundary symbol reads all of these from this
    one object, and the kernel prefactors are formed from the eliminated
    (cancellation-free) expressions rather than from root differences.
    """

    xi2: np.ndarray | float
    lam: np.ndarray | complex
    omega: np.ndarray | complex
    t1: np.ndarray | complex
    t2: np.ndarray | complex
    s1: complex
    s2: complex
    mu: float

    def s(self, j: int) -> complex:
        """The branch root s_j, j = 1 or 2."""
        return jth(j, self.s1, self.s2)

    def t(self, j: int):
        """The exponent t_j, j = 1 or 2."""
        return jth(j, self.t1, self.t2)

    def r_frak(self, j: int):
        """r_j = (s_j - 1/mu)(t2 + t1) / ((s2 - s1)(t_j + omega))."""
        return ((self.s(j) - 1.0 / self.mu) * (self.t2 + self.t1)
                / ((self.s2 - self.s1) * (self.t(j) + self.omega)))


def roots_t(xi_prime_sq, lam, dc: DerivedConstants, mu: float) -> RootSet:
    """t_1, t_2 and omega at (|xi'|^2, lam), bundled with the point as a
    RootSet."""
    return RootSet(xi2=xi_prime_sq, lam=lam,
                   omega=omega_lambda(xi_prime_sq, lam, mu),
                   t1=t_root(1, xi_prime_sq, lam, dc),
                   t2=t_root(2, xi_prime_sq, lam, dc),
                   s1=dc.s1, s2=dc.s2, mu=mu)


def whole_space_symbol_P(xi_sq, lam, p: MaterialParams):
    """P(xi, lam) = lam^2 + (mu+nu) lam |xi|^2 + kappa |xi|^4."""
    xi_sq = np.asarray(xi_sq)
    lam = np.asarray(lam)
    return lam * lam + (p.mu + p.nu) * lam * xi_sq + p.kappa * xi_sq * xi_sq


def whole_space_symbol_P_factored(xi_sq, lam, p: MaterialParams,
                                  dc: DerivedConstants):
    """P as (lam - lam_+)(lam - lam_-) with lam_± = -kappa s_± |xi|^2."""
    xi_sq = np.asarray(xi_sq)
    lam = np.asarray(lam)
    lam_plus = -p.kappa * dc.s1 * xi_sq
    lam_minus = -p.kappa * dc.s2 * xi_sq
    return (lam - lam_plus) * (lam - lam_minus)


def characteristic_poly(t, xi_prime_sq, lam, p: MaterialParams):
    """P_lam(t) = lam^2 - lam(mu+nu)(t^2-|xi'|^2) + kappa (t^2-|xi'|^2)^2."""
    q = np.asarray(t) ** 2 - np.asarray(xi_prime_sq)
    return lam * lam - lam * (p.mu + p.nu) * q + p.kappa * q * q


@dataclass(frozen=True)
class Lopatinskii:
    """The 2x2 boundary system, its cofactors, and its determinant.

    ``matrix`` rows: the first couples the velocity-trace data, the second
    the density-trace datum.  ``L11..L22`` are the cofactor entries of the
    inverse (adjugate), named as they enter the coefficient formulas.
    ``det_direct`` is the literal 2x2 determinant; ``det_factored`` the
    (t2 - t1)-factored product form.
    """

    matrix: np.ndarray
    L11: np.ndarray | complex
    L12: np.ndarray | complex
    L21: np.ndarray | complex
    L22: np.ndarray | complex
    det_direct: np.ndarray | complex
    det_factored: np.ndarray | complex


def lopatinskii(r: RootSet) -> Lopatinskii:
    """Assemble the boundary 2x2 system at the point of ``r``."""
    om, t1, t2, xi2 = r.omega, r.t1, r.t2, r.xi2
    opx = om * om + xi2            # omega^2 + |xi'|^2
    a11 = t2 * (opx * opx - 4.0 * t1 * om * xi2)
    a12 = t1 * (opx * opx - 4.0 * t2 * om * xi2)
    a21 = t1 * t1 - xi2
    a22 = t2 * t2 - xi2
    det_direct = a11 * a22 - a12 * a21
    det_factored = (t2 - t1) * (opx * opx * (t2 * t2 + t2 * t1 + t1 * t1 - xi2)
                                - 4.0 * t1 * t2 * om * xi2 * (t2 + t1))
    matrix = np.stack([np.stack([np.broadcast_to(a11, np.shape(det_direct)),
                                 np.broadcast_to(a12, np.shape(det_direct))], axis=-1),
                       np.stack([np.broadcast_to(a21, np.shape(det_direct)),
                                 np.broadcast_to(a22, np.shape(det_direct))], axis=-1)],
                      axis=-2)
    return Lopatinskii(matrix=matrix,
                       L11=a22, L12=-a12, L21=-a21, L22=a11,
                       det_direct=det_direct, det_factored=det_factored)


def frak_m(j: int, r: RootSet):
    """m_j = lam (t_j + omega) / mu^2 - 4 (s_j - 1/mu) |xi'|^2 omega."""
    mu_inv = 1.0 / r.mu
    return (mu_inv * mu_inv * r.lam * (r.t(j) + r.omega)
            - 4.0 * (r.s(j) - mu_inv) * r.xi2 * r.omega)


def frak_p(j: int, r: RootSet):
    """p_j = (4 s_j - 3/mu) omega + t_j / mu."""
    mu_inv = 1.0 / r.mu
    return (4.0 * r.s(j) - 3.0 * mu_inv) * r.omega + mu_inv * r.t(j)


def frak_q(j: int, r: RootSet):
    """q_j = (2 s_j - 1/mu) omega + t_j / mu."""
    mu_inv = 1.0 / r.mu
    return (2.0 * r.s(j) - mu_inv) * r.omega + mu_inv * r.t(j)


def frak_l(j: int, r: RootSet):
    """l_j = lam t_j (t_j + omega) (t2^2 + t2 t1 + t1^2 - |xi'|^2) / mu^2
    + 4 omega |xi'|^2 (s_j t_j omega (t_j + omega)
    - (s_j - 1/mu) t1 t2 (t2 + t1))."""
    mu_inv = 1.0 / r.mu
    s_j, t_j = r.s(j), r.t(j)
    om, t1, t2, xi2 = r.omega, r.t1, r.t2, r.xi2
    trip = t2 * t2 + t2 * t1 + t1 * t1 - xi2
    return (mu_inv * mu_inv * r.lam * t_j * (t_j + om) * trip
            + 4.0 * om * xi2 * (
                s_j * t_j * om * (t_j + om)
                - (s_j - mu_inv) * t1 * t2 * (t2 + t1)))


def frak_a(r: RootSet):
    """a = s1 s2 (t2 + t1) / (s2 - s1)."""
    return r.s1 * r.s2 * (r.t2 + r.t1) / (r.s2 - r.s1)


def frak_b(r: RootSet):
    """b = (t2 + t1) / (s2 - s1)."""
    return (r.t2 + r.t1) / (r.s2 - r.s1)


@dataclass(frozen=True)
class FrakSymbols:
    """The eliminated boundary symbols at given modes (index 1 and 2):
    the bundle the half-space solver reads."""

    m1: np.ndarray | complex
    m2: np.ndarray | complex
    p1: np.ndarray | complex
    p2: np.ndarray | complex
    q1: np.ndarray | complex
    q2: np.ndarray | complex
    l1: np.ndarray | complex
    l2: np.ndarray | complex
    a: np.ndarray | complex
    b: np.ndarray | complex


def frak_symbols(r: RootSet) -> FrakSymbols:
    """Evaluate m_j, p_j, q_j, l_j (j = 1, 2), a and b from their formulas.

    lam and t2 - t1 have been eliminated from every expression; the only
    division is by s2 - s1 (a nonzero constant).  The r_j symbols are
    ``RootSet.r_frak``.
    """
    return FrakSymbols(m1=frak_m(1, r), m2=frak_m(2, r),
                       p1=frak_p(1, r), p2=frak_p(2, r),
                       q1=frak_q(1, r), q2=frak_q(2, r),
                       l1=frak_l(1, r), l2=frak_l(2, r),
                       a=frak_a(r), b=frak_b(r))


def frak_m_quotient(j: int, r: RootSet):
    """Raw quotient form of m_j (test oracle; unstable near lam = 0)."""
    om, t, xi2 = r.omega, r.t(j), r.xi2
    opx = om * om + xi2
    return (t + om) * (opx * opx - 4.0 * t * om * xi2) / r.lam


def expand_modes(arr, x):
    """Append singleton axes to a per-mode array so it broadcasts over x."""
    arr = np.asarray(arr)
    x = np.asarray(x)
    if arr.ndim and x.ndim:
        return arr.reshape(arr.shape + (1,) * x.ndim)
    return arr


def lam_axes(lam, ndim: int):
    """lam (a scalar or a batch array) with ndim trailing singleton axes.

    Batched solves carry one lam per batch member; appending the mode (or
    grid) axes lets it broadcast against per-mode arrays.
    """
    lam = np.asarray(lam)
    return lam.reshape(lam.shape + (1,) * ndim)


def decay_exponentials(roots: RootSet, x) -> tuple:
    """(e^{-omega x}, e^{-t1 x}, e^{-t2 x}) at the normal samples x, the
    per-mode exponents of ``roots`` gaining trailing axes over x."""
    x = np.asarray(x, dtype=float)
    return tuple(np.exp(-expand_modes(e, x) * x)
                 for e in (roots.omega, roots.t1, roots.t2))


def stable_divided_difference(a, b, x, ea, eb):
    """(eb - ea) / (b - a) for ea = exp(-a x) and eb = exp(-b x),
    switching to quadrature near a = b.

    The divided difference loses about |b - a|^-1 digits of accuracy; in
    the modes inside the relative band EPS_SWITCH the 16-node
    Gauss-Legendre evaluation of -x * int_0^1 exp(-{th b + (1-th) a} x) dth
    is used instead.  ``a`` and ``b`` are per-mode exponents with trailing
    singleton axes over x, so the band test is taken once per mode; the
    exponentials have the shape of the result.
    """
    diff = b - a
    near = np.abs(diff) <= EPS_SWITCH * (np.abs(a) + np.abs(b))
    dd = (eb - ea) / np.where(near, 1.0, diff)
    if np.any(near):
        dd = np.asarray(dd)
        near, a, b, x = (np.broadcast_to(v, dd.shape)
                         for v in (near, a, b, x))
        aa, bb, xx = a[near], b[near], x[near]
        expo = (aa + np.multiply.outer(_GL_THETA, bb - aa)) * xx
        dd[near] = -xx * np.tensordot(_GL_W, np.exp(-expo), axes=(0, 0))
    return dd


def kernel_M(j: int, x_n, roots: RootSet, exps: tuple):
    """Boundary-layer kernel M_j(x_N); entire in the exponents.

    M_0 = (e^{-t2 x} - e^{-t1 x}) / (t2 - t1);
    M_j = r_j (e^{-t_j x} - e^{-omega x}) / (t_j - omega)   for j = 1, 2.

    ``exps`` are the ``decay_exponentials`` of ``roots`` at ``x_n``.
    Per-mode arrays in ``roots`` gain trailing axes over the x samples.
    """
    x = np.asarray(x_n, dtype=float)
    if np.any(x < 0):
        raise ValueError("kernel evaluated at negative normal coordinate")
    if j == 0:
        return stable_divided_difference(expand_modes(roots.t1, x),
                                         expand_modes(roots.t2, x), x,
                                         exps[1], exps[2])
    core = stable_divided_difference(expand_modes(roots.omega, x),
                                     expand_modes(roots.t(j), x), x,
                                     exps[0], exps[j])
    return expand_modes(roots.r_frak(j), x) * core
