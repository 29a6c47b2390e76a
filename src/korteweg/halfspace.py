"""Half-space solver for the reduced boundary-value problem.

Per tangential mode the solution is a sum of decaying exponentials in the
normal coordinate.  Two coefficient paths exist:

* ``coefficients_direct`` solves the assembled 2x2 boundary system by a
  stacked linear solve (the oracle path);
* ``coefficients_closed_form`` uses the explicit cofactor/determinant
  quotients with the factored determinant.

Field assembly in production goes through the eliminated operator
formulas (``s6_profiles``): every coefficient is a ratio of the
eliminated symbols with no explicit 1/lam or 1/(t2-t1), and the
near-coincident kernel channels are evaluated stably.

Profiles are stored per channel (exp(-omega x), exp(-t1 x), exp(-t2 x),
M0, M1, M2) so normal derivatives are exact recurrences, never finite
differences.  A channel table computes three complex exponentials per
mode and sample, and forms the three kernels from them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import GridMismatch, SingularLopatinskii
from .model import (MaterialParams, boundary_rows, derive_constants,
                    interior_rows, mode_derivative)
from .symbols import (FrakSymbols, RootSet, decay_exponentials,
                      expand_modes, frak_symbols, kernel_M, lam_axes,
                      lopatinskii, roots_t)

SINGULAR_TOL = 1e-13

CHANNELS = ("exp_omega", "exp_t1", "exp_t2", "M0", "M1", "M2")


@dataclass(frozen=True)
class TangentialGrid:
    """Periodic tangential lattice: dim_t axes, modes_per_axis, period."""

    dim_t: int = 1
    modes_per_axis: int = 256
    period: float = 2.0 * np.pi

    @property
    def shape(self):
        return (self.modes_per_axis,) * self.dim_t

    @property
    def field_axes(self):
        """The tangential axes of a half-space field (normal axis last)."""
        return tuple(range(-self.dim_t - 1, -1))

    def xi_mesh(self):
        m = self.modes_per_axis
        f = (2.0 * np.pi / self.period) * np.fft.fftfreq(m, d=1.0 / m)
        return np.meshgrid(*([f] * self.dim_t), indexing="ij")

    def xi_sq(self):
        return sum(x * x for x in self.xi_mesh())

    def cell_measure(self):
        return (self.period / self.modes_per_axis) ** self.dim_t

    def fft(self, arr):
        return np.fft.fftn(arr, axes=tuple(range(-self.dim_t, 0)))

    def ifft(self, arr):
        return np.fft.ifftn(arr, axes=tuple(range(-self.dim_t, 0)))


@dataclass(frozen=True)
class NormalSamples:
    """Strictly increasing normal coordinates starting at the boundary."""

    x: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        if x[0] != 0.0:
            raise ValueError("first normal sample must be the boundary 0")
        if np.any(np.diff(x) <= 0):
            raise ValueError("normal samples must be strictly increasing")
        object.__setattr__(self, "x", x)

    @classmethod
    def chebyshev(cls, n: int = 129, height: float = 10.0) -> "NormalSamples":
        k = np.arange(n)
        return cls(height * (1.0 - np.cos(0.5 * np.pi * k / (n - 1))))

    @classmethod
    def uniform(cls, n: int, height: float) -> "NormalSamples":
        return cls(np.linspace(0.0, height, n))


class ChannelProfile:
    """A per-mode normal profile: sum of coefficient * channel(x_N).

    Coefficients are arrays over the tangential modes.  Differentiation is
    exact: exponential channels multiply by their exponent; the divided
    kernels follow their recurrences, feeding back into the exponential
    channels.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict | None = None):
        self.coeffs = dict(coeffs or {})

    def add(self, channel: str, coeff):
        if channel not in CHANNELS:
            raise KeyError(channel)
        if channel in self.coeffs:
            self.coeffs[channel] = self.coeffs[channel] + coeff
        else:
            self.coeffs[channel] = +np.asarray(coeff, dtype=complex)
        return self

    def derivative(self, roots: RootSet) -> "ChannelProfile":
        out = ChannelProfile()
        for ch, c in self.coeffs.items():
            if ch == "exp_omega":
                out.add(ch, -roots.omega * c)
            elif ch == "exp_t1":
                out.add(ch, -roots.t1 * c)
            elif ch == "exp_t2":
                out.add(ch, -roots.t2 * c)
            elif ch == "M0":
                out.add("M0", -roots.t2 * c)
                out.add("exp_t1", -c)
            elif ch == "M1":
                out.add("M1", -roots.t1 * c)
                out.add("exp_omega", -roots.r_frak(1) * c)
            elif ch == "M2":
                out.add("M2", -roots.t2 * c)
                out.add("exp_omega", -roots.r_frak(2) * c)
        return out

    def evaluate(self, roots: RootSet, x) -> np.ndarray:
        """Sample the profile at normal coordinates x (trailing axis)."""
        return self.evaluate_with(channel_table(roots, x), x)

    def evaluate_with(self, table: dict, x) -> np.ndarray:
        """Sample against a precomputed channel-value table."""
        total = None
        for ch, c in self.coeffs.items():
            term = expand_modes(c, x) * table[ch]
            total = term if total is None else total + term
        if total is None:
            raise ValueError("empty profile")
        return total

    def trace0(self) -> np.ndarray:
        """Boundary value: exponentials are 1, kernels vanish at x = 0."""
        total = None
        for ch, c in self.coeffs.items():
            if ch.startswith("exp"):
                total = +np.asarray(c) if total is None else total + c
        if total is None:
            raise ValueError("empty profile")
        return np.asarray(total, dtype=complex)


def channel_table(roots: RootSet, x) -> dict:
    """All six channel values at the normal samples, computed once: the
    three exponentials, and the kernels M0, M1, M2 formed from them."""
    x = np.asarray(x, dtype=float)
    exps = decay_exponentials(roots, x)
    table = dict(zip(CHANNELS[:3], exps))
    for j in range(3):
        table[f"M{j}"] = kernel_M(j, x, roots, exps)
    return table


@dataclass
class ModeSolution:
    """Exponential-representation amplitudes at every tangential mode.

    ``alpha``, ``beta``, ``gamma`` have the component axis first
    (length N = dim_t + 1, normal component last); ``rho1``, ``rho2``
    multiply exp(-t1 x) and exp(-t2 x) in the density.
    """

    xi: tuple
    lam: complex
    roots: RootSet
    alpha: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray
    rho1: np.ndarray
    rho2: np.ndarray

    @property
    def n_components(self):
        return self.alpha.shape[0]

    def u_profile(self, comp: int) -> ChannelProfile:
        a, b, g = self.alpha[comp], self.beta[comp], self.gamma[comp]
        return ChannelProfile({"exp_omega": a - b - g,
                               "exp_t1": b, "exp_t2": g})

    def rho_profile(self) -> ChannelProfile:
        return ChannelProfile({"exp_t1": self.rho1, "exp_t2": self.rho2})

    def phi_profile(self) -> ChannelProfile:
        """div u in transform space: the omega channel cancels."""
        xi = self.xi
        n = self.n_components
        ixi_beta = sum(1j * xi[j] * self.beta[j] for j in range(n - 1))
        ixi_gamma = sum(1j * xi[j] * self.gamma[j] for j in range(n - 1))
        return ChannelProfile({
            "exp_t1": ixi_beta - self.roots.t1 * self.beta[n - 1],
            "exp_t2": ixi_gamma - self.roots.t2 * self.gamma[n - 1]})

    def to_json(self) -> dict:
        def pack(a):
            return {"re": np.asarray(a).real.tolist(),
                    "im": np.asarray(a).imag.tolist()}

        return {"lambda": [self.lam.real, self.lam.imag],
                "omega": pack(self.roots.omega),
                "t1": pack(self.roots.t1), "t2": pack(self.roots.t2),
                "alpha": pack(self.alpha), "beta": pack(self.beta),
                "gamma": pack(self.gamma),
                "rho1": pack(self.rho1), "rho2": pack(self.rho2)}


def _lopatinskii_rhs(xi, roots, g_hat0, h_hat0):
    om, t1, t2, xi2, mu = roots.omega, roots.t1, roots.t2, roots.xi2, roots.mu
    n = len(xi) + 1
    ixi_g = sum(1j * xi[j] * g_hat0[j] for j in range(n - 1))
    rhs1 = (-2.0 / mu * t1 * t2 * om * ixi_g
            + t1 * t2 * (om * om + xi2) / mu * g_hat0[n - 1])
    rhs2 = roots.lam * h_hat0
    return rhs1, rhs2


def _amplitudes_from_bn_gn(xi, roots, g_hat0, beta_n, gamma_n):
    """alpha from the boundary rows, tangential beta/gamma by proportion."""
    om, t1, t2, xi2, mu = roots.omega, roots.t1, roots.t2, roots.xi2, roots.mu
    n = len(xi) + 1
    alpha = np.empty((n,) + np.shape(beta_n), dtype=complex)
    beta = np.empty_like(alpha)
    gamma = np.empty_like(alpha)
    beta[n - 1] = beta_n
    gamma[n - 1] = gamma_n
    for j in range(n - 1):
        beta[j] = -1j * xi[j] / t1 * beta_n
        gamma[j] = -1j * xi[j] / t2 * gamma_n
    alpha[n - 1] = (g_hat0[n - 1] * t1 * t2 / mu
                    + t2 * (2 * t1 * om - om * om - xi2) * beta_n
                    + t1 * (2 * t2 * om - om * om - xi2) * gamma_n) \
        / (2.0 * t1 * t2 * om)
    for j in range(n - 1):
        alpha[j] = (g_hat0[j] / mu
                    + 1j * xi[j] / (2 * mu * om) * g_hat0[n - 1]
                    + 1j * xi[j] * (4 * t1 * om - 3 * om * om - xi2)
                    / (2 * t1 * om) * beta_n
                    + 1j * xi[j] * (4 * t2 * om - 3 * om * om - xi2)
                    / (2 * t2 * om) * gamma_n) / om
    return alpha, beta, gamma


def _check_singular(fr: FrakSymbols, roots: RootSet):
    scale = (np.sqrt(np.abs(roots.lam)) + np.sqrt(roots.xi2)) ** 6
    bad = (np.abs(fr.l1) < SINGULAR_TOL * scale) \
        | (np.abs(fr.l2) < SINGULAR_TOL * scale)
    if np.any(bad):
        raise SingularLopatinskii("boundary system numerically singular "
                                  f"at {int(np.sum(bad))} mode(s)")


def coefficients_direct(xi, lam, g_hat0, h_hat0,
                        p: MaterialParams) -> ModeSolution:
    """Stacked 2x2 linear solve for (beta_N, gamma_N); oracle path."""
    xi = tuple(np.asarray(c) for c in xi)
    xi2 = sum(c * c for c in xi)
    roots = roots_t(xi2, lam, derive_constants(p), p.mu)
    L = lopatinskii(roots)
    _check_singular(frak_symbols(roots), roots)
    rhs1, rhs2 = _lopatinskii_rhs(xi, roots, g_hat0, h_hat0)
    rhs = np.stack([np.broadcast_to(rhs1, np.shape(L.det_direct)),
                    np.broadcast_to(rhs2, np.shape(L.det_direct))], axis=-1)
    sol = np.linalg.solve(L.matrix, rhs[..., None])[..., 0]
    beta_n, gamma_n = sol[..., 0], sol[..., 1]
    alpha, beta, gamma = _amplitudes_from_bn_gn(xi, roots, g_hat0, beta_n,
                                                gamma_n)
    rho1 = (roots.t1 ** 2 - xi2) / (lam * roots.t1) * beta_n
    rho2 = (roots.t2 ** 2 - xi2) / (lam * roots.t2) * gamma_n
    return ModeSolution(xi=xi, lam=lam, roots=roots, alpha=alpha, beta=beta,
                        gamma=gamma, rho1=rho1, rho2=rho2)


def coefficients_closed_form(xi, lam, g_hat0, h_hat0,
                             p: MaterialParams) -> ModeSolution:
    """Cofactor/determinant quotients with the factored determinant."""
    xi = tuple(np.asarray(c) for c in xi)
    xi2 = sum(c * c for c in xi)
    roots = roots_t(xi2, lam, derive_constants(p), p.mu)
    L = lopatinskii(roots)
    _check_singular(frak_symbols(roots), roots)
    om, t1, t2 = roots.omega, roots.t1, roots.t2
    n = len(xi) + 1
    ixi_g = sum(1j * xi[j] * g_hat0[j] for j in range(n - 1))
    det = L.det_factored
    beta_n = (-2 * t1 * t2 * om * L.L11 / (p.mu * det) * ixi_g
              + t1 * t2 * (om * om + xi2) * L.L11 / (p.mu * det)
              * g_hat0[n - 1]
              + lam * L.L12 / det * h_hat0)
    gamma_n = (-2 * t1 * t2 * om * L.L21 / (p.mu * det) * ixi_g
               + t1 * t2 * (om * om + xi2) * L.L21 / (p.mu * det)
               * g_hat0[n - 1]
               + lam * L.L22 / det * h_hat0)
    alpha, beta, gamma = _amplitudes_from_bn_gn(xi, roots, g_hat0, beta_n,
                                                gamma_n)
    # t_j^2 - |xi|^2 = s_j lam exactly, so the density amplitudes are
    # s_j / t_j times the channel amplitude: no explicit 1/lam
    rho1 = roots.s1 / t1 * beta_n
    rho2 = roots.s2 / t2 * gamma_n
    return ModeSolution(xi=xi, lam=lam, roots=roots, alpha=alpha, beta=beta,
                        gamma=gamma, rho1=rho1, rho2=rho2)


def s6_profiles(xi, lam, g_hat0, h_hat0, p: MaterialParams):
    """Field profiles via the eliminated operator formulas.

    Returns (rho_profile, [u_1 .. u_N profiles], roots).  Coefficients
    contain only the eliminated symbols; kernels M0/M1/M2 absorb every
    root-difference quotient.
    """
    xi = tuple(np.asarray(c) for c in xi)
    xi2 = sum(c * c for c in xi)
    roots = roots_t(xi2, lam, derive_constants(p), p.mu)
    fr = frak_symbols(roots)
    _check_singular(fr, roots)
    om, t1, t2, s1, s2 = roots.omega, roots.t1, roots.t2, roots.s1, roots.s2
    mu = p.mu
    n = len(xi) + 1
    gN = g_hat0[n - 1]
    ixi_g = sum(1j * xi[k] * g_hat0[k] for k in range(n - 1))
    xi_g = sum(xi[k] * g_hat0[k] for k in range(n - 1))
    opx = om * om + xi2
    t_of = {1: t1, 2: t2}
    s_of = {1: s1, 2: s2}
    l_of = {1: fr.l1, 2: fr.l2}
    m_of = {1: fr.m1, 2: fr.m2}
    p_of = {1: fr.p1, 2: fr.p2}
    q_of = {1: fr.q1, 2: fr.q2}
    sign = {1: 1.0, 2: -1.0}
    pairs = ((1, 2), (2, 1))

    # density
    rho = ChannelProfile()
    c_t1 = (t1 * s1 * s2 * (t1 + om) / (mu * fr.l1)
            * (-2.0 * om * ixi_g + opx * gN))
    c_t1 = c_t1 + sum(sign[l] * fr.a * t_of[l] * m_of[l]
                      / (s_of[l] * l_of[l]) for l in (1, 2)) * h_hat0
    rho.add("exp_t1", c_t1)
    c_m0 = (s1 * s2 * t1 ** 2 * (t1 + om) / (mu * fr.l1)
            * (2.0 * om * ixi_g - opx * gN))
    c_m0 = c_m0 + lam * s2 * t1 * fr.m1 / fr.l1 * h_hat0
    rho.add("M0", c_m0)

    # tangential velocity components
    u_profiles = []
    for j in range(n - 1):
        prof = ChannelProfile()
        c_om = g_hat0[j] / (mu * om) + 1j * xi[j] / (2 * mu * om * om) * gN
        for l in (1, 2):
            c_om = c_om + (sign[l] * xi[j] * t1 * t2 * fr.a * p_of[l]
                           / (mu * om * s_of[l] * l_of[l]) * xi_g)
            c_om = c_om + (sign[l] * 1j * xi[j] * t1 * t2 * opx * fr.a
                           * p_of[l] / (2 * mu * om * om * s_of[l] * l_of[l])
                           * gN)
        for l, m in pairs:
            c_om = c_om + (sign[l] * lam * 1j * xi[j] * fr.b * t_of[l]
                           * m_of[l] * p_of[m]
                           / (2 * om * om * l_of[l] * (t_of[m] + om))
                           * h_hat0)
        prof.add("exp_omega", c_om)
        for l in (1, 2):
            c_ml = -(sign[l] * 2 * xi[j] * om * t1 * t2 * s1 * s2
                     * (t_of[l] + om) / (mu * s_of[l] * l_of[l]) * xi_g)
            c_ml = c_ml - (sign[l] * 1j * xi[j] * t1 * t2 * opx * s1 * s2
                           * (t_of[l] + om) / (mu * s_of[l] * l_of[l]) * gN)
            prof.add(f"M{l}", c_ml)
        for l, m in pairs:
            prof.add(f"M{m}", -(sign[l] * lam * 1j * xi[j] * t_of[l]
                                * m_of[l] / l_of[l]) * h_hat0)
        u_profiles.append(prof)

    # normal velocity component
    prof = ChannelProfile()
    c_om = gN / (2 * mu * om)
    for l in (1, 2):
        c_om = c_om - (sign[l] * t1 * t2 * fr.a * q_of[l]
                       / (mu * s_of[l] * l_of[l]) * ixi_g)
        c_om = c_om + (sign[l] * t1 * t2 * opx * fr.a * q_of[l]
                       / (2 * mu * om * s_of[l] * l_of[l]) * gN)
    for l, m in pairs:
        c_om = c_om + (sign[l] * lam * fr.b * t_of[l] * m_of[l] * q_of[m]
                       / (2 * om * l_of[l] * (t_of[m] + om)) * h_hat0)
    prof.add("exp_omega", c_om)
    for l in (1, 2):
        c_ml = -(sign[l] * 2 * t1 * t2 * om * s1 * s2 * t_of[l]
                 * (t_of[l] + om) / (mu * s_of[l] * l_of[l]) * ixi_g)
        c_ml = c_ml + (sign[l] * t1 * t2 * opx * s1 * s2 * t_of[l]
                       * (t_of[l] + om) / (mu * s_of[l] * l_of[l]) * gN)
        prof.add(f"M{l}", c_ml)
    for l, m in pairs:
        prof.add(f"M{m}", sign[l] * lam * t1 * t2 * m_of[l] / l_of[l]
                 * h_hat0)
    u_profiles.append(prof)

    return rho, u_profiles, roots


@dataclass
class ReducedSolution:
    """Solution of the reduced problem, carried per mode.

    ``rho_prof`` and ``u_profs`` hold the production (eliminated-form)
    representation; the amplitude paths (``coefficients_direct``,
    ``coefficients_closed_form``) are separate oracles.  Samples at the
    ``normal`` points all read one channel table, ``table``: empty until
    the first sample fills it.  Solutions at one lambda on one normal
    grid may be handed the same dict, and then build it once.
    """

    grid: TangentialGrid
    normal: NormalSamples
    lam: complex
    params: MaterialParams
    roots: RootSet
    rho_prof: ChannelProfile
    u_profs: list
    table: dict = field(default_factory=dict, repr=False)
    _derivatives: dict = field(default_factory=dict, repr=False)

    @property
    def n_components(self):
        return self.grid.dim_t + 1

    def profile(self, which, k: int = 0) -> ChannelProfile:
        """k-th normal derivative profile of 'rho' or of a velocity
        component, each derived once by the channel recurrences."""
        key = (which, k)
        if key not in self._derivatives:
            if k == 0:
                prof = self.rho_prof if which == "rho" else self.u_profs[which]
            else:
                prof = self.profile(which, k - 1).derivative(self.roots)
            self._derivatives[key] = prof
        return self._derivatives[key]

    def sample(self, which, k: int = 0) -> np.ndarray:
        """(modes..., x) samples of ``profile(which, k)`` at the normal
        samples, against the one channel table of this solution."""
        if not self.table:
            self.table.update(channel_table(self.roots, self.normal.x))
        return self.profile(which, k).evaluate_with(self.table,
                                                    self.normal.x)

    def rho_hat(self):
        return self.sample("rho")

    def rho(self):
        return self._ifft_profile(self.rho_hat())

    def u(self):
        return np.stack([self._ifft_profile(self.sample(c))
                         for c in range(self.n_components)])

    def _ifft_profile(self, arr):
        return np.fft.ifftn(arr, axes=self.grid.field_axes)


def solve_reduced_hat(g_hat0, h_hat0, lam: complex, grid: TangentialGrid,
                      normal: NormalSamples, p: MaterialParams,
                      table: dict | None = None) -> ReducedSolution:
    """Same as solve_reduced, from tangential trace coefficients.

    ``lam`` may be a batch array; the traces then carry the batch axes
    (after the component axis) ahead of the mode axes.  ``table`` is a
    channel table (see ReducedSolution) shared with other solutions at
    this lam on these normal samples; by default the solution owns one.
    """
    xi = tuple(grid.xi_mesh())
    rho_prof, u_profs, roots = s6_profiles(
        xi, lam_axes(lam, grid.dim_t), g_hat0, h_hat0, p)
    return ReducedSolution(grid=grid, normal=normal, lam=lam, params=p,
                           roots=roots, rho_prof=rho_prof, u_profs=u_profs,
                           table={} if table is None else table)


def solve_reduced(g_trace, h_trace, lam: complex, grid: TangentialGrid,
                  normal: NormalSamples, p: MaterialParams) -> ReducedSolution:
    """Solve the homogeneous-interior problem with boundary data (g, h).

    ``g_trace`` has shape (N, tangential shape) and ``h_trace``
    (tangential shape); both are physical boundary samples.
    """
    g_trace = np.asarray(g_trace, dtype=complex)
    h_trace = np.asarray(h_trace, dtype=complex)
    n = grid.dim_t + 1
    if g_trace.shape != (n,) + grid.shape or h_trace.shape != grid.shape:
        raise GridMismatch("boundary data shapes do not match grid")
    return solve_reduced_hat(grid.fft(g_trace), grid.fft(h_trace), lam,
                             grid, normal, p)


@dataclass(frozen=True)
class ReducedResidual:
    """Max moduli of the interior rows and boundary rows."""

    interior_mass: float
    interior_momentum: float
    boundary_stress: float
    boundary_neumann: float

    def max_all(self):
        return max(self.interior_mass, self.interior_momentum,
                   self.boundary_stress, self.boundary_neumann)

    def to_json(self):
        return {"interior_mass": self.interior_mass,
                "interior_momentum": self.interior_momentum,
                "boundary_stress": self.boundary_stress,
                "boundary_neumann": self.boundary_neumann}


def residual_reduced(sol: ReducedSolution, g_trace, h_trace) -> ReducedResidual:
    """Evaluate interior and boundary rows of the reduced system.

    The normal derivatives come from the channel recurrences, so the
    reported numbers reflect only the coefficient algebra.
    """
    grid, p, x = sol.grid, sol.params, sol.normal.x
    n = sol.n_components
    xi = tuple(grid.xi_mesh())
    mass, momentum = interior_rows(
        mode_derivative(tuple(expand_modes(c, x) for c in xi), sol.sample),
        sol.lam, p, n, 0.0)
    # boundary rows, evaluated at x = 0 through the traces
    stress, neumann = boundary_rows(
        mode_derivative(xi, lambda w, k: sol.profile(w, k).trace0()),
        p, n, 0.0)
    g_hat0 = grid.fft(np.asarray(g_trace, dtype=complex))
    h_hat0 = grid.fft(np.asarray(h_trace, dtype=complex))

    def worst(rows, ifft):
        return max(float(np.max(np.abs(ifft(r)))) for r in rows)

    return ReducedResidual(
        interior_mass=worst([mass], sol._ifft_profile),
        interior_momentum=worst(momentum, sol._ifft_profile),
        boundary_stress=worst([r - g for r, g in zip(stress, g_hat0)],
                              grid.ifft),
        boundary_neumann=worst([neumann - h_hat0], grid.ifft))
