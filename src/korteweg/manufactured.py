"""Manufactured solutions with analytic derivatives.

Two building blocks:

* ansatz-form boundary layers: per tangential mode, amplitudes drawn at
  random subject to the interior constraints, so the pair solves the
  homogeneous interior system exactly and only carries boundary data;
* interior bumps: tangentially band-limited fields with Gaussian normal
  profiles centred away from both the boundary and the box top, so all
  traces and extension kinks are below roundoff.

Applying the resolvent rows to either block is exact closed-form
arithmetic, giving oracle data for the solvers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .halfspace import ModeSolution, TangentialGrid
from .model import (DerivedConstants, MaterialParams, boundary_rows,
                    interior_rows, mode_derivative)
from .symbols import roots_t

# share of the lattice modes |k| <= kmax that random_mode_mask excites
MODE_DENSITY = 0.6
# normal centre and width of the interior-bump Gaussians
BUMP_CENTER = 5.0
BUMP_WIDTH = 0.8


def random_mode_mask(grid: TangentialGrid, rng, kmax: int):
    """Boolean lattice mask of excited tangential modes, |k| <= kmax."""
    m = grid.modes_per_axis
    k = np.fft.fftfreq(m, d=1.0 / m).astype(int)
    mesh = np.meshgrid(*([k] * grid.dim_t), indexing="ij")
    inside = np.ones(grid.shape, dtype=bool)
    for comp in mesh:
        inside &= np.abs(comp) <= kmax
    return inside & (rng.uniform(size=grid.shape) < MODE_DENSITY)


def manufactured_boundary_modes(grid: TangentialGrid, lam: complex,
                                dc: DerivedConstants, p: MaterialParams,
                                rng, kmax: int = 8,
                                amplitude: float = 1.0) -> ModeSolution:
    """Random ansatz-form mode amplitudes satisfying the interior rows.

    Free parameters per mode are the tangential alpha components and
    beta_N, gamma_N; alpha_N follows from the divergence-channel
    cancellation, the tangential beta/gamma from the proportionality
    relations and the density amplitudes from the mass row.
    """
    xi = tuple(grid.xi_mesh())
    xi2 = grid.xi_sq()
    roots = roots_t(xi2, lam, dc, p.mu)
    n = grid.dim_t + 1
    mask = random_mode_mask(grid, rng, kmax)

    def draw():
        z = (rng.standard_normal(grid.shape)
             + 1j * rng.standard_normal(grid.shape)) * amplitude
        return np.where(mask, z, 0.0)

    beta_n = draw()
    gamma_n = draw()
    alpha = np.zeros((n,) + grid.shape, dtype=complex)
    beta = np.zeros_like(alpha)
    gamma = np.zeros_like(alpha)
    for j in range(n - 1):
        alpha[j] = draw()
        beta[j] = -1j * xi[j] / roots.t1 * beta_n
        gamma[j] = -1j * xi[j] / roots.t2 * gamma_n
    beta[n - 1] = beta_n
    gamma[n - 1] = gamma_n
    ixi_alpha = sum(1j * xi[j] * alpha[j] for j in range(n - 1))
    alpha[n - 1] = (ixi_alpha - xi2 / roots.t1 * beta_n
                    - xi2 / roots.t2 * gamma_n) / roots.omega \
        + beta_n + gamma_n
    rho1 = dc.s1 / roots.t1 * beta_n
    rho2 = dc.s2 / roots.t2 * gamma_n
    return ModeSolution(xi=xi, lam=lam, roots=roots, alpha=alpha, beta=beta,
                        gamma=gamma, rho1=rho1, rho2=rho2)


def boundary_data_of_modes(ms: ModeSolution, grid: TangentialGrid,
                           p: MaterialParams):
    """Apply the boundary operators to an exponential-form pair.

    Returns physical boundary fields (g, h) with g of shape (N, grid
    shape): the forward direction of what the solver inverts.
    """
    g_hat, h_hat = boundary_rows_of_modes(ms, p)
    return grid.ifft(g_hat), grid.ifft(h_hat)


@dataclass(frozen=True)
class GaussProfile:
    """c * exp(-(x - center)^2 / width^2) with closed-form derivatives."""

    center: float
    width: float

    def batch(self, x, orders: int = 4):
        """Value and first ``orders`` derivatives at the points x."""
        x = np.asarray(x, dtype=float)
        z = (x - self.center) / self.width
        base = np.exp(-z * z)
        w = self.width
        d = [base,
             base * (-2 * z / w),
             base * (4 * z * z - 2) / w ** 2,
             base * (-8 * z ** 3 + 12 * z) / w ** 3,
             base * (16 * z ** 4 - 48 * z * z + 12) / w ** 4]
        return d[: orders + 1]


@dataclass
class InteriorBump:
    """Tangentially band-limited pair with Gaussian normal profiles.

    ``rho_hat``/``u_hat`` are lattice coefficient arrays; each excited
    mode shares the same normal profile family (one per field component)
    which keeps closed-form differentiation cheap.
    """

    grid: TangentialGrid
    rho_hat: np.ndarray
    u_hat: np.ndarray
    rho_profile: GaussProfile
    u_profile: GaussProfile

    @classmethod
    def random(cls, grid: TangentialGrid, rng, kmax: int = 6):
        n = grid.dim_t + 1
        mask = random_mode_mask(grid, rng, kmax)

        def draw(shape):
            z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            return np.where(mask, z, 0.0)

        # both widths stay at or below BUMP_WIDTH so every trace and every
        # low-order derivative at the boundary and at the box top sits at
        # the exp(-(BUMP_CENTER/BUMP_WIDTH)^2) floor: the even/zero
        # extensions are then kink-free to roundoff
        return cls(grid=grid, rho_hat=draw(grid.shape),
                   u_hat=np.stack([draw(grid.shape) for _ in range(n)]),
                   rho_profile=GaussProfile(BUMP_CENTER, BUMP_WIDTH),
                   u_profile=GaussProfile(BUMP_CENTER, BUMP_WIDTH * 0.9))

    def rho_derivatives(self, x, orders: int = 3):
        """List over normal-derivative order of (modes..., x) arrays."""
        profs = self.rho_profile.batch(x, orders)
        return [self.rho_hat[..., None] * prof for prof in profs]

    def u_derivatives(self, x, orders: int = 2):
        profs = self.u_profile.batch(x, orders)
        return [self.u_hat[..., None] * prof for prof in profs]


@dataclass
class ManufacturedPair:
    """A manufactured solution: interior bump plus ansatz boundary layer.

    Either part may be absent.  ``data`` applies the four rows of the
    rescaled system analytically; ``fields`` samples the pair itself.
    """

    grid: TangentialGrid
    bump: InteriorBump | None
    layer: ModeSolution | None

    @classmethod
    def random(cls, grid: TangentialGrid, lam: complex,
               dc: DerivedConstants, p: MaterialParams, rng,
               kmax: int = 6, layer_amplitude: float = 0.5,
               with_layer: bool = True) -> "ManufacturedPair":
        bump = InteriorBump.random(grid, rng, kmax=kmax)
        layer = manufactured_boundary_modes(grid, lam, dc, p, rng,
                                            kmax=kmax,
                                            amplitude=layer_amplitude) \
            if with_layer else None
        return cls(grid=grid, bump=bump, layer=layer)

    def data(self, x, lam: complex, p: MaterialParams, gamma: float):
        """Mode-space (d, f, g, h) rows at the normal samples x.

        The boundary layer solves the homogeneous zero-gamma interior
        system, so with gamma != 0 it contributes gamma grad rho to the
        momentum row and gamma rho n to the stress row; its g and h rows
        are carried on a decaying profile so the returned arrays are
        full half-space fields.
        """
        grid = self.grid
        n = grid.dim_t + 1
        x = np.asarray(x, dtype=float)
        shape = grid.shape + x.shape
        d = np.zeros(shape, dtype=complex)
        f = np.zeros((n,) + shape, dtype=complex)
        g = np.zeros((n,) + shape, dtype=complex)
        h = np.zeros(shape, dtype=complex)
        if self.bump is not None:
            db, fb, gb, hb = resolvent_rows_of_bump(self.bump, x, lam, p,
                                                    gamma)
            d += db
            f += fb
            g += gb
            h += hb
        if self.layer is not None:
            layer = self.layer
            xi = layer.xi
            gl, hl = boundary_rows_of_modes(layer, p)
            if gamma != 0.0:
                rho0 = layer.rho_profile()
                rho_l = rho0.evaluate(layer.roots, x)
                drho_l = rho0.derivative(layer.roots).evaluate(layer.roots,
                                                               x)
                for j in range(n - 1):
                    f[j] += gamma * 1j * xi[j][..., None] * rho_l
                f[n - 1] += gamma * drho_l
                gl = gl.copy()
                gl[n - 1] = gl[n - 1] + gamma * rho0.trace0()
            profile = np.exp(-x)
            g += gl[..., None] * profile
            h += hl[..., None] * profile
        return d, f, g, h

    def fields(self, x):
        """Mode-space (rho, u) samples of the pair at normal points x."""
        grid = self.grid
        n = grid.dim_t + 1
        x = np.asarray(x, dtype=float)
        rho = np.zeros(grid.shape + x.shape, dtype=complex)
        u = np.zeros((n,) + grid.shape + x.shape, dtype=complex)
        if self.bump is not None:
            rho += self.bump.rho_derivatives(x, 0)[0]
            u += self.bump.u_derivatives(x, 0)[0]
        if self.layer is not None:
            layer = self.layer
            rho += layer.rho_profile().evaluate(layer.roots, x)
            for c in range(n):
                u[c] += layer.u_profile(c).evaluate(layer.roots, x)
        return rho, u


def manufactured_data(pair: ManufacturedPair, geometry, lam: complex,
                      p: MaterialParams, gamma: float | None = None):
    """FullData of a manufactured pair on a pipeline geometry.

    Applies the rescaled-system rows analytically; the physical fields
    come from one tangential inverse transform per row.
    """
    from .resolvent import FullData
    gamma = p.gamma if gamma is None else gamma
    x = geometry.normal_samples().x
    grid = geometry.tangential
    d, f, g, h = pair.data(x, lam, p, gamma)

    def ifft(a):
        return np.fft.ifftn(a, axes=grid.field_axes)

    return FullData(geometry=geometry, d=ifft(d), f=ifft(f), g=ifft(g),
                    h=ifft(h))


def manufactured_fields(pair: ManufacturedPair, geometry):
    """Physical (rho, u) samples of the pair on the pipeline half grid."""
    x = geometry.normal_samples().x
    rho, u = pair.fields(x)
    axes = geometry.tangential.field_axes
    return np.fft.ifftn(rho, axes=axes), np.fft.ifftn(u, axes=axes)


def boundary_rows_of_modes(ms: ModeSolution, p: MaterialParams):
    """Mode-space boundary rows (g, h) of an exponential-form pair."""
    profiles = {"rho": ms.rho_profile()}
    profiles.update((c, ms.u_profile(c)) for c in range(ms.n_components))

    def trace(which, k):
        prof = profiles[which]
        for _ in range(k):
            prof = prof.derivative(ms.roots)
        return prof.trace0()

    stress, neumann = boundary_rows(mode_derivative(ms.xi, trace), p,
                                    ms.n_components, 0.0)
    return np.stack(stress), neumann


def resolvent_rows_of_bump(bump: InteriorBump, x, lam: complex,
                           p: MaterialParams, gamma: float):
    """Apply the four rescaled-system rows to an interior bump.

    Returns mode-coefficient arrays (d_hat, f_hat, g_hat, h_hat) sampled
    at normal points x; g_hat and h_hat are full normal profiles of the
    boundary-operator integrands so callers can both trace them at
    x = 0 and use them as half-space data fields.
    """
    n = bump.grid.dim_t + 1
    r = bump.rho_derivatives(x, 3)
    u = bump.u_derivatives(x, 2)
    D = mode_derivative(tuple(c[..., None] for c in bump.grid.xi_mesh()),
                        lambda w, k: r[k] if w == "rho" else u[k][w])
    d_hat, f_rows = interior_rows(D, lam, p, n, gamma)
    g_rows, h_hat = boundary_rows(D, p, n, gamma)
    return d_hat, np.stack(f_rows), np.stack(g_rows), h_hat
