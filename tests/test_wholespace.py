import numpy as np
import pytest

from korteweg.errors import LambdaOutsideSector
from korteweg.model import MaterialParams, Sector, derive_constants
from korteweg.symbols import whole_space_symbol_P
from korteweg.wholespace import (BoxGrid, WholeField, apply_lhs,
                                 band_limited_field, l2_norm, residual_whole,
                                 solve_whole)

P = MaterialParams(1.0, 1.0, 2.0)
DC = derive_constants(P)
GRID = BoxGrid(dim=2, points_per_axis=64)


def manufactured_pair(grid, rng, kmax=8):
    rho = band_limited_field(grid, rng, kmax)
    u = band_limited_field(grid, rng, kmax, components=grid.dim)
    return WholeField(grid=grid, rho=rho, u=u)


def test_zero_data_gives_zero():
    d = np.zeros(GRID.shape, dtype=complex)
    f = np.zeros((2,) + GRID.shape, dtype=complex)
    sol = solve_whole(d, f, 3.0 + 1.0j, P, GRID)
    assert np.max(np.abs(sol.rho)) == 0.0
    assert np.max(np.abs(sol.u)) == 0.0


def test_single_mode_exact():
    lam = 2.0 + 1.5j
    xs = GRID.axes()
    x, y = np.meshgrid(xs, xs, indexing="ij")
    k = (3, -2)
    mode = np.exp(1j * (k[0] * x + k[1] * y))
    xi_sq = float(k[0] ** 2 + k[1] ** 2)
    f = np.zeros((2,) + GRID.shape, dtype=complex)
    sol = solve_whole(mode, f, lam, P, GRID)
    mult = (lam + (P.mu + P.nu) * xi_sq) / whole_space_symbol_P(xi_sq, lam, P)
    assert np.max(np.abs(sol.rho - mult * mode)) < 1e-12 * abs(mult)


def test_manufactured_recovery():
    rng = np.random.default_rng(0)
    lam = 5.0 * np.exp(1j * 2.0)
    star = manufactured_pair(GRID, rng)
    d, f = apply_lhs(star, lam, P)
    sol = solve_whole(d, f, lam, P, GRID)
    rel_rho = l2_norm(GRID, sol.rho - star.rho) / l2_norm(GRID, star.rho)
    rel_u = l2_norm(GRID, sol.u - star.u) / l2_norm(GRID, star.u)
    assert rel_rho < 1e-10 and rel_u < 1e-10
    rep = residual_whole(sol, d, f, lam, P)
    scale = l2_norm(GRID, d) + l2_norm(GRID, f)
    assert max(rep.row_l2) < 1e-10 * scale


def test_residual_zero_solution_equals_data():
    rng = np.random.default_rng(1)
    d = band_limited_field(GRID, rng, 6)
    f = band_limited_field(GRID, rng, 6, components=2)
    zero = WholeField(grid=GRID, rho=np.zeros_like(d), u=np.zeros_like(f))
    rep = residual_whole(zero, d, f, 2.0 + 1j, P)
    assert rep.row_l2[0] == pytest.approx(l2_norm(GRID, d), rel=1e-12)
    assert rep.row_l2[1] == pytest.approx(l2_norm(GRID, f), rel=1e-12)


def test_residual_single_mode_perturbation():
    rng = np.random.default_rng(2)
    lam = 4.0 + 2.0j
    star = manufactured_pair(GRID, rng)
    d, f = apply_lhs(star, lam, P)
    sol = solve_whole(d, f, lam, P, GRID)
    xs = GRID.axes()
    x, y = np.meshgrid(xs, xs, indexing="ij")
    eps = 1e-3
    sol.rho = sol.rho + eps * np.exp(1j * (2 * x + y))
    rep = residual_whole(sol, d, f, lam, P)
    # first row changes by exactly |lam| eps at that mode (max norm)
    assert rep.row_max[0] == pytest.approx(abs(lam) * eps, rel=1e-9)


def test_sector_precondition():
    sec = Sector(np.pi / 4, 0.5)
    d = np.zeros(GRID.shape, dtype=complex)
    f = np.zeros((2,) + GRID.shape, dtype=complex)
    with pytest.raises(LambdaOutsideSector):
        solve_whole(d, f, -1.0 + 0.0j, P, GRID, sector=sec)


def test_mode_exactness_over_lambdas():
    # applying multipliers then the PDE operator returns the data
    # per mode to machine precision, for random sector lambdas
    rng = np.random.default_rng(3)
    small = BoxGrid(dim=2, points_per_axis=16)
    d = band_limited_field(small, rng, 4)
    f = band_limited_field(small, rng, 4, components=2)
    sec = Sector(DC.sigma_w + 0.1, 0.0)
    scale = l2_norm(small, d) + l2_norm(small, f)
    for lam in Sector(DC.sigma_w + 0.1, 1e-2).sample(rng, 100):
        sol = solve_whole(d, f, lam, P, small, sector=sec)
        rep = residual_whole(sol, d, f, lam, P)
        assert max(rep.row_l2) < 1e-10 * max(scale, abs(lam) * scale / 5)


def test_estimate_shadow_boundedness():
    # || (S rho, T u) || <= C || (d, f) ||_{W1 x L2}: the max ratio stays
    # within a factor 2 of the median over 100 sector lambdas.
    rng = np.random.default_rng(5)
    small = BoxGrid(dim=2, points_per_axis=32)
    sec = Sector(DC.sigma_w + 0.15, 0.5)
    mesh = small.freq_mesh()
    d = band_limited_field(small, rng, 6)
    f = band_limited_field(small, rng, 6, components=2)
    d_hat = np.fft.fftn(d)
    grad_d = np.stack([np.fft.ifftn(1j * mesh[j] * d_hat) for j in range(2)])
    data = np.sqrt(l2_norm(small, d) ** 2 + l2_norm(small, grad_d) ** 2
                   + l2_norm(small, f) ** 2)
    # sample angles from the inner half-sector: the claim under test is
    # uniformity across four decades of |lambda|, not the near-rim growth
    # of the angle-dependent constant
    mods = np.exp(rng.uniform(np.log(sec.delta), np.log(1e4), 100))
    angs = rng.uniform(-(np.pi - sec.sigma) / 2, (np.pi - sec.sigma) / 2, 100)
    # the S/T norm by Parseval: S = (grad^3 rho, lam^{1/2} grad^2 rho,
    # lam rho) and T = (grad^2 u, lam^{1/2} grad u, lam u)
    xi_sq = sum(x * x for x in mesh)
    ratios = []
    for lam in mods * np.exp(1j * angs):
        sol = solve_whole(d, f, lam, P, small)
        rho_hat = np.fft.fftn(sol.rho)
        u_hat = np.fft.fftn(sol.u, axes=(1, 2))
        a = abs(lam)
        out_sq = (np.sum((xi_sq ** 3 + a * xi_sq ** 2 + a * a)
                         * np.abs(rho_hat) ** 2)
                  + np.sum((xi_sq ** 2 + a * xi_sq + a * a)
                           * np.abs(u_hat) ** 2))
        out = np.sqrt(out_sq * small.cell_volume() / rho_hat.size)
        ratios.append(out / data)
    ratios = np.array(ratios)
    assert np.max(ratios) <= 2.0 * np.median(ratios)


def test_three_dimensional_support():
    grid = BoxGrid(dim=3, points_per_axis=16)
    rng = np.random.default_rng(6)
    rho = band_limited_field(grid, rng, 4)
    u = band_limited_field(grid, rng, 4, components=3)
    star = WholeField(grid, rho, u)
    lam = 3.0 + 2.0j
    d, f = apply_lhs(star, lam, P)
    sol = solve_whole(d, f, lam, P, grid)
    assert l2_norm(grid, sol.rho - star.rho) < 1e-10 * l2_norm(grid, star.rho)
