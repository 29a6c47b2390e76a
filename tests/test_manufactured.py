import numpy as np

from korteweg.model import MaterialParams
from korteweg import halfspace as hs
from korteweg import resolvent as rv
from korteweg.manufactured import (ManufacturedPair, boundary_data_of_modes,
                                   manufactured_boundary_modes,
                                   manufactured_data, manufactured_fields)

P = MaterialParams(1.0, 1.0, 2.0)
GEO = rv.HalfGeometry(dim=2, points_per_axis=128, height=10.0)


def test_zero_pair_gives_zero_data():
    pair = ManufacturedPair(grid=GEO.tangential, bump=None, layer=None)
    data = manufactured_data(pair, GEO, 50.0 + 0j, P)
    for arr in (data.d, data.f, data.g, data.h):
        assert np.max(np.abs(arr)) == 0.0


def test_single_mode_layer_has_three_exponential_channels():
    rng = np.random.default_rng(0)
    lam = 30.0 + 10.0j
    layer = manufactured_boundary_modes(GEO.tangential, lam, P, rng,
                                        kmax=1, amplitude=1.0)
    # velocity profiles carry exactly the three decaying exponentials
    for c in range(2):
        prof = layer.u_profile(c)
        assert set(prof.coeffs) == {"exp_omega", "exp_t1", "exp_t2"}
    # and the density the two t-channels
    assert set(layer.rho_profile().coeffs) == {"exp_t1", "exp_t2"}


def test_end_to_end_recovery_through_solve_general():
    rng = np.random.default_rng(1)
    lam = 130.0 * np.exp(0.4j)
    p = MaterialParams(1.0, 1.0, 2.0, gamma=0.05)
    pair = ManufacturedPair.random(GEO.tangential, lam, p, rng,
                                   kmax=5, with_layer=False)
    data = manufactured_data(pair, GEO, lam, p)
    rho_star, u_star = manufactured_fields(pair, GEO)
    sol, _ = rv.solve_general(data, lam, p)
    assert np.max(np.abs(sol.rho() - rho_star)) \
        <= 1e-8 * np.max(np.abs(rho_star))
    assert np.max(np.abs(sol.u() - u_star)) \
        <= 1e-8 * np.max(np.abs(u_star))


def test_three_dimensional_pipeline():
    # N = 3 full pipeline; the wider profile keeps the bump resolved on
    # the coarser 64-point normal grid (tail exp(-(k_max w/2)^2))
    from korteweg.manufactured import GaussProfile, InteriorBump
    geo = rv.HalfGeometry(dim=3, points_per_axis=64, height=10.0)
    rng = np.random.default_rng(5)
    lam = 110.0 * np.exp(0.5j)
    pair = ManufacturedPair.random(geo.tangential, lam, P, rng, kmax=3)
    pair = ManufacturedPair(
        grid=geo.tangential,
        bump=InteriorBump(grid=geo.tangential, rho_hat=pair.bump.rho_hat,
                          u_hat=pair.bump.u_hat,
                          rho_profile=GaussProfile(5.0, 1.1),
                          u_profile=GaussProfile(5.0, 0.99)),
        layer=pair.layer)
    data = manufactured_data(pair, geo, lam, P)
    sol = rv.solve_gamma_zero(data, lam, P)
    rho_star, u_star = manufactured_fields(pair, geo)
    assert np.max(np.abs(sol.rho() - rho_star)) \
        <= 1e-7 * np.max(np.abs(rho_star))
    assert np.max(np.abs(sol.u() - u_star)) \
        <= 1e-7 * np.max(np.abs(u_star))
    assert rv.residual_full(sol, data).max_relative() <= 1e-10


def test_three_dimensional_half_space():
    # N = 3: two tangential axes; the reduced solver and its residuals
    # run on the same vectorized path
    grid = hs.TangentialGrid(dim_t=2, modes_per_axis=32)
    normal = hs.NormalSamples.chebyshev(33, 10.0)
    rng = np.random.default_rng(2)
    lam = 25.0 * np.exp(0.7j)
    star = manufactured_boundary_modes(grid, lam, P, rng, kmax=4)
    g, h = boundary_data_of_modes(star, grid, P)
    sol = hs.solve_reduced(g, h, lam, grid, normal, P)
    x = normal.x
    rho_star = grid.ifft(star.rho_profile().evaluate(star.roots, x)
                         .transpose(2, 0, 1)).transpose(1, 2, 0)
    got = sol.rho()
    assert np.max(np.abs(got - rho_star)) <= 1e-10 * np.max(np.abs(rho_star))
    res = hs.residual_reduced(sol, g, h)
    scale = np.max(np.abs(g)) + np.max(np.abs(h))
    assert res.max_all() <= 1e-10 * scale
