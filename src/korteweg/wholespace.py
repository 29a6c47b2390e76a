"""Whole-space resolvent solver on a periodic box via Fourier multipliers.

The periodic box stands in for free space: the acceptance data are
band-limited and box-scale-separated, so the multiplier formulas are exact
on the frequency lattice and any defect is an implementation defect.

All fields are complex arrays; the velocity carries its component axis
first, i.e. shape (N, M, ..., M).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridMismatch, LambdaOutsideSector
from .model import MaterialParams, Sector
from .symbols import lam_axes, whole_space_symbol_P


@dataclass(frozen=True)
class BoxGrid:
    """Periodic box [0, L)^dim sampled with points_per_axis per axis."""

    dim: int = 2
    points_per_axis: int = 256
    period: float = 2.0 * np.pi

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError("dimension must be at least 2")
        m = self.points_per_axis
        if m < 2 or (m & (m - 1)) != 0:
            raise ValueError("points_per_axis must be a power of two")

    @property
    def shape(self):
        return (self.points_per_axis,) * self.dim

    def axes(self):
        return np.arange(self.points_per_axis) * (self.period
                                                  / self.points_per_axis)

    def freq_1d(self):
        """The lattice xi_k = (2 pi / L) k along one axis, fft ordering."""
        m = self.points_per_axis
        k = np.fft.fftfreq(m, d=1.0 / m)
        return (2.0 * np.pi / self.period) * k

    def freq_mesh(self):
        """dim arrays of lattice frequencies broadcast over the box shape."""
        f = self.freq_1d()
        return np.meshgrid(*([f] * self.dim), indexing="ij")

    def cell_volume(self):
        return (self.period / self.points_per_axis) ** self.dim


@dataclass
class WholeField:
    """Density and velocity samples on a BoxGrid."""

    grid: BoxGrid
    rho: np.ndarray
    u: np.ndarray

    def __post_init__(self):
        if self.rho.shape != self.grid.shape:
            raise GridMismatch("rho shape does not match grid")
        if self.u.shape != (self.grid.dim,) + self.grid.shape:
            raise GridMismatch("u shape does not match grid")


def l2_norm(grid: BoxGrid, arr) -> float:
    """Discrete L2 norm over the box (all leading axes are components)."""
    return float(np.sqrt(np.sum(np.abs(arr) ** 2) * grid.cell_volume()))


def solve_whole_hat(d_hat, f_hat, lam, p: MaterialParams, grid: BoxGrid):
    """Apply the resolvent multipliers to lattice coefficients (d^, f^).

    rho-hat picks up (lam + (mu+nu)|xi|^2)/P from d and -i xi_j / P from
    f_j; u-hat picks up -kappa i xi |xi|^2 / P from d, 1/(lam + mu |xi|^2)
    from f, and the -xi_j xi (nu lam + kappa |xi|^2) coupling.  At xi = 0
    the formulas reduce to rho = d/lam, u = f/lam since P(0, lam) = lam^2.

    ``d_hat`` has shape ``batch + grid.shape`` and ``f_hat``
    ``(dim,) + batch + grid.shape``; ``lam`` is a scalar or an array that
    broadcasts against the batch shape.  Raises LambdaOutsideSector
    where P or lam + mu |xi|^2 vanishes on the lattice.
    """
    mesh = grid.freq_mesh()
    xi_sq = sum(x * x for x in mesh)
    lam = lam_axes(lam, grid.dim)
    pp = whole_space_symbol_P(xi_sq, lam, p)
    visc = lam + p.mu * xi_sq
    if np.any(pp == 0.0) or np.any(visc == 0.0):
        raise LambdaOutsideSector("multiplier denominator vanishes on "
                                  "the lattice")
    ixi_dot_f = sum(1j * mesh[j] * f_hat[j] for j in range(grid.dim))
    rho_hat = ((lam + (p.mu + p.nu) * xi_sq) / pp) * d_hat - ixi_dot_f / pp
    # component c of the coupling: -xi_j xi_c (nu lam + kappa |xi|^2) /
    # ((lam + mu |xi|^2) P) f_j summed over j; with sum_j xi_j f_j written
    # through i xi . f this flips to +i xi_c (...) (i xi . f)
    coupling = (p.nu * lam + p.kappa * xi_sq) / (visc * pp)
    u_hat = np.stack([-p.kappa * 1j * mesh[j] * xi_sq / pp * d_hat
                      + f_hat[j] / visc + 1j * mesh[j] * coupling * ixi_dot_f
                      for j in range(grid.dim)])
    return rho_hat, u_hat


def solve_whole(d, f, lam: complex, p: MaterialParams, grid: BoxGrid,
                sector: Sector | None = None) -> WholeField:
    """Apply the resolvent multipliers (see solve_whole_hat) on the box."""
    if sector is not None and not sector.contains(lam):
        raise LambdaOutsideSector(f"lambda {lam} outside sector")
    d = np.asarray(d, dtype=complex)
    f = np.asarray(f, dtype=complex)
    if d.shape != grid.shape or f.shape != (grid.dim,) + grid.shape:
        raise GridMismatch("data shapes do not match grid")
    axes = tuple(range(1, grid.dim + 1))
    rho_hat, u_hat = solve_whole_hat(np.fft.fftn(d), np.fft.fftn(f, axes=axes),
                                     lam, p, grid)
    return WholeField(grid=grid, rho=np.fft.ifftn(rho_hat),
                      u=np.fft.ifftn(u_hat, axes=axes))


def apply_lhs(field: WholeField, lam: complex, p: MaterialParams):
    """Spectral evaluation of the resolvent left-hand side.

    Returns (lam rho + div u, lam u - mu Lap u - nu grad div u
    - kappa Lap grad rho).
    """
    grid = field.grid
    mesh = grid.freq_mesh()
    xi_sq = sum(x * x for x in mesh)
    axes = tuple(range(1, grid.dim + 1))
    rho_hat = np.fft.fftn(field.rho)
    u_hat = np.fft.fftn(field.u, axes=axes)
    div_hat = sum(1j * mesh[j] * u_hat[j] for j in range(grid.dim))

    row1_hat = lam * rho_hat + div_hat
    row2_hat = np.empty_like(u_hat)
    for j in range(grid.dim):
        row2_hat[j] = (lam * u_hat[j] + p.mu * xi_sq * u_hat[j]
                       - p.nu * 1j * mesh[j] * div_hat
                       + p.kappa * 1j * mesh[j] * xi_sq * rho_hat)
    return (np.fft.ifftn(row1_hat),
            np.fft.ifftn(row2_hat, axes=axes))


@dataclass(frozen=True)
class ResidualReport:
    """Max and L2 norms of each residual row."""

    row_max: tuple
    row_l2: tuple

    def to_json(self) -> dict:
        return {"row_max": list(self.row_max), "row_l2": list(self.row_l2)}


def residual_whole(sol: WholeField, d, f, lam: complex,
                   p: MaterialParams) -> ResidualReport:
    """Residual of the two resolvent rows against the data, spectrally."""
    grid = sol.grid
    d = np.asarray(d, dtype=complex)
    f = np.asarray(f, dtype=complex)
    if d.shape != grid.shape:
        raise GridMismatch("data shapes do not match solution grid")
    row1, row2 = apply_lhs(sol, lam, p)
    r1 = row1 - d
    r2 = row2 - f
    return ResidualReport(
        row_max=(float(np.max(np.abs(r1))), float(np.max(np.abs(r2)))),
        row_l2=(l2_norm(grid, r1), l2_norm(grid, r2)))


def band_limited_field(grid: BoxGrid, rng, kmax: int, components: int = 0):
    """Random smooth field with lattice support |k_i| <= kmax per axis."""
    m = grid.points_per_axis
    if kmax >= m // 2:
        raise ValueError(f"kmax {kmax} must stay below the Nyquist mode "
                         f"points_per_axis // 2 = {m // 2}")
    shape = grid.shape if components == 0 else (components,) + grid.shape
    coeffs = np.zeros(shape, dtype=complex)
    k = np.fft.fftfreq(m, d=1.0 / m).astype(int)
    mask = np.abs(k) <= kmax
    idx = np.ix_(*([np.where(mask)[0]] * grid.dim))
    sub_shape = (mask.sum(),) * grid.dim
    if components == 0:
        coeffs[idx] = (rng.standard_normal(sub_shape)
                       + 1j * rng.standard_normal(sub_shape))
    else:
        for c in range(components):
            coeffs[(c,) + idx] = (rng.standard_normal(sub_shape)
                                  + 1j * rng.standard_normal(sub_shape))
    axes = tuple(range(len(shape) - grid.dim, len(shape)))
    return np.fft.ifftn(coeffs, axes=axes)
