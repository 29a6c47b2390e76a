import numpy as np
import pytest

from korteweg.errors import SingularLopatinskii
from korteweg.model import MaterialParams, derive_constants
from korteweg import halfspace as hs
from korteweg.manufactured import (boundary_data_of_modes,
                                   manufactured_boundary_modes)
from korteweg.symbols import characteristic_poly

P = MaterialParams(1.0, 1.0, 2.0)
DC = derive_constants(P)
GRID = hs.TangentialGrid(dim_t=1, modes_per_axis=256)
NORMAL = hs.NormalSamples.chebyshev(129, 10.0)

PARAM_SETS = [MaterialParams(*c) for c in
              [(1, 1, 2), (1, 2, 1), (2, 1, 1), (1, 1, 4), (0.5, 1.5, 0.8)]]


def random_modes(rng, n, dc, window=10.0):
    """Random scalar tangential modes in the well-conditioned window."""
    lam_mod = np.exp(rng.uniform(np.log(1e-1), np.log(1e4), n))
    amax = np.pi - dc.sigma_w - 0.2
    lam = lam_mod * np.exp(1j * rng.uniform(-amax, amax, n))
    xi = np.exp(rng.uniform(np.log(1e-3),
                            np.log(np.minimum(window * np.sqrt(lam_mod),
                                              1e3)), n))
    xi *= np.sign(rng.standard_normal(n))
    return xi, lam


def random_boundary_data(rng, n, n_comp=2):
    g = rng.standard_normal((n_comp, n)) + 1j * rng.standard_normal((n_comp, n))
    h = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return g, h


class TestNormalSamples:
    def test_chebyshev_default(self):
        ns = hs.NormalSamples.chebyshev(129, 10.0)
        assert ns.x[0] == 0.0 and ns.x[-1] == pytest.approx(10.0)
        assert np.all(np.diff(ns.x) > 0)

    def test_rejects_bad_samples(self):
        with pytest.raises(ValueError):
            hs.NormalSamples(np.array([0.1, 0.2]))
        with pytest.raises(ValueError):
            hs.NormalSamples(np.array([0.0, 0.2, 0.2]))


class TestCoefficients:
    def test_zero_data_gives_zero(self):
        xi = (np.array([0.5, -1.0, 2.0]),)
        lam = 3.0 + 1.0j
        g = np.zeros((2, 3), dtype=complex)
        h = np.zeros(3, dtype=complex)
        ms = hs.coefficients_direct(xi, lam, g, h, DC, P)
        for arr in (ms.alpha, ms.beta, ms.gamma, ms.rho1, ms.rho2):
            assert np.max(np.abs(arr)) == 0.0

    def test_direct_vs_closed_form(self):
        rng = np.random.default_rng(11)
        for p in PARAM_SETS:
            dc = derive_constants(p)
            xi, lam = random_modes(rng, 10_000, dc)
            g, h = random_boundary_data(rng, 10_000)
            d = hs.coefficients_direct((xi,), lam, g, h, dc, p)
            c = hs.coefficients_closed_form((xi,), lam, g, h, dc, p)
            for a, b in [(d.beta, c.beta), (d.gamma, c.gamma),
                         (d.alpha, c.alpha), (d.rho1, c.rho1),
                         (d.rho2, c.rho2)]:
                rel = np.abs(a - b) / (np.abs(a) + np.abs(b) + 1e-300)
                assert np.max(rel) < 1e-12

    def test_boundary_rows_satisfied(self):
        # substituting the amplitudes back into the boundary operators
        # returns the data
        rng = np.random.default_rng(13)
        xi, lam = random_modes(rng, 2000, DC)
        g, h = random_boundary_data(rng, 2000)
        ms = hs.coefficients_closed_form((xi,), lam, g, h, DC, P)
        roots = ms.roots
        xi2 = xi ** 2
        u0 = [ms.u_profile(c) for c in range(2)]
        du0 = [prof.derivative(roots).trace0() for prof in u0]
        rho0 = ms.rho_profile()
        rho2 = rho0.derivative(roots).derivative(roots)
        scale = np.max(np.abs(g)) + np.max(np.abs(h))
        row_j = P.mu * (1j * xi * u0[1].trace0() + du0[0]) + g[0]
        assert np.max(np.abs(row_j)) < 1e-11 * scale
        row_n = (2 * P.mu * du0[1] + (P.nu - P.mu) * ms.phi_profile().trace0()
                 + P.kappa * (rho2.trace0() - xi2 * rho0.trace0()) + g[1])
        assert np.max(np.abs(row_n)) < 1e-11 * scale
        row_h = ms.rho_profile().derivative(roots).trace0() + lam * 0 + h
        assert np.max(np.abs(row_h)) < 1e-11 * scale

    def test_interior_operator_annihilates_channels(self):
        # P_lam(d_N) kills the t-channels and (d_N^2 - omega^2) the
        # omega-channel: checked as exact root relations
        rng = np.random.default_rng(17)
        xi, lam = random_modes(rng, 3000, DC)
        xi2 = xi ** 2
        ms = hs.coefficients_closed_form(
            (xi,), lam, *random_boundary_data(rng, 3000), DC, P)
        scale = (np.abs(lam) + np.abs(DC.s1 * lam) + xi2) ** 2
        for t in (ms.roots.t1, ms.roots.t2):
            val = characteristic_poly(t, xi2, lam, P)
            assert np.max(np.abs(val) / scale) < 1e-11
        om_rel = ms.roots.omega ** 2 - xi2 - lam / P.mu
        assert np.max(np.abs(om_rel) / np.abs(lam)) < 1e-12

    def test_singular_guard(self):
        # eta close to zero makes l_j nearly degenerate at tuned modes is
        # hard to hit; instead force the guard with a tiny tolerance bump
        xi = (np.array([1.0]),)
        g = np.zeros((2, 1), dtype=complex)
        h = np.zeros(1, dtype=complex)
        old = hs.SINGULAR_TOL
        try:
            hs.SINGULAR_TOL = 1e30
            with pytest.raises(SingularLopatinskii):
                hs.coefficients_direct(xi, 2.0 + 1j, g, h, DC, P)
        finally:
            hs.SINGULAR_TOL = old


class TestAmplitudeRelations:
    def setup_method(self):
        rng = np.random.default_rng(19)
        self.xi, self.lam = random_modes(rng, 4000, DC)
        self.g, self.h = random_boundary_data(rng, 4000)
        self.ms = hs.coefficients_closed_form((self.xi,), self.lam, self.g,
                                              self.h, DC, P)

    def test_proportionality_relations(self):
        ms = self.ms
        rel_b = ms.beta[0] + 1j * self.xi / ms.roots.t1 * ms.beta[1]
        rel_g = ms.gamma[0] + 1j * self.xi / ms.roots.t2 * ms.gamma[1]
        scale = np.abs(ms.beta[1]) + np.abs(ms.gamma[1]) + 1e-300
        assert np.max(np.abs(rel_b) / scale) < 1e-12
        assert np.max(np.abs(rel_g) / scale) < 1e-12

    def test_divergence_channel_combinations(self):
        # i xi . beta' - t1 beta_N = -(t1^2-|xi|^2)/t1 beta_N per mode
        ms = self.ms
        xi2 = self.xi ** 2
        lhs = 1j * self.xi * ms.beta[0] - ms.roots.t1 * ms.beta[1]
        rhs = -(ms.roots.t1 ** 2 - xi2) / ms.roots.t1 * ms.beta[1]
        scale = np.abs(lhs) + np.abs(rhs) + 1e-300
        assert np.max(np.abs(lhs - rhs) / scale) < 1e-12
        lhs = 1j * self.xi * ms.gamma[0] - ms.roots.t2 * ms.gamma[1]
        rhs = -(ms.roots.t2 ** 2 - xi2) / ms.roots.t2 * ms.gamma[1]
        assert np.max(np.abs(lhs - rhs) / (np.abs(lhs) + np.abs(rhs)
                                           + 1e-300)) < 1e-12

    def test_omega_channel_cancellation(self):
        # i xi . (alpha'-beta'-gamma') - omega(alpha_N-beta_N-gamma_N) = 0
        ms = self.ms
        val = (1j * self.xi * (ms.alpha[0] - ms.beta[0] - ms.gamma[0])
               - ms.roots.omega * (ms.alpha[1] - ms.beta[1] - ms.gamma[1]))
        scale = (np.abs(ms.roots.omega) * (np.abs(ms.alpha[1])
                 + np.abs(ms.beta[1]) + np.abs(ms.gamma[1])) + 1e-300)
        assert np.max(np.abs(val) / scale) < 1e-11

    def test_divergence_two_exponential_structure(self):
        # div u has no omega channel
        phi = self.ms.phi_profile()
        assert "exp_omega" not in phi.coeffs or np.max(
            np.abs(phi.coeffs.get("exp_omega", 0.0))) < 1e-11

    def test_mass_row_couples_density(self):
        # rho = -phi/lam per mode and channel
        ms = self.ms
        phi = ms.phi_profile()
        scale = np.abs(ms.rho1) + np.abs(ms.rho2) + 1e-300
        assert np.max(np.abs(ms.rho1 + phi.coeffs["exp_t1"] / self.lam)
                      / scale) < 1e-12
        assert np.max(np.abs(ms.rho2 + phi.coeffs["exp_t2"] / self.lam)
                      / scale) < 1e-12


class TestS6Path:
    def test_matches_amplitude_path(self):
        # comparison restricted to the window where the two-exponential
        # amplitude representation is itself well-conditioned; outside it
        # only the eliminated path is trustworthy (which is why it is the
        # production path)
        rng = np.random.default_rng(23)
        for p in PARAM_SETS:
            dc = derive_constants(p)
            lam = complex(np.exp(rng.uniform(0, 6))
                          * np.exp(1j * rng.uniform(-1.8, 1.8)))
            xi = np.exp(rng.uniform(np.log(1e-3),
                                    np.log(10 * np.sqrt(abs(lam))), 3000))
            xi *= np.sign(rng.standard_normal(3000))
            g, h = random_boundary_data(rng, 3000)
            ms = hs.coefficients_closed_form((xi,), lam, g, h, dc, p)
            rho6, u6, roots = hs.s6_profiles((xi,), lam, g, h, dc, p)
            x = np.linspace(0.0, 10.0, 9)
            a = ms.rho_profile().evaluate(ms.roots, x)
            b = rho6.evaluate(roots, x)
            assert np.max(np.abs(a - b)) < 1e-10 * np.max(np.abs(a))
            for c in range(2):
                a = ms.u_profile(c).evaluate(ms.roots, x)
                b = u6[c].evaluate(roots, x)
                assert np.max(np.abs(a - b)) < 1e-10 * np.max(np.abs(a))

    def test_h_only_data_excites_kernel_channels(self):
        # with g = 0 the density profile keeps its h-driven channels
        xi = (np.array([1.5]),)
        g = np.zeros((2, 1), dtype=complex)
        h = np.ones(1, dtype=complex)
        rho6, _, _ = hs.s6_profiles(xi, 4.0 + 3.0j, g, h, DC, P)
        assert np.max(np.abs(rho6.coeffs["M0"])) > 0
        g = np.ones((2, 1), dtype=complex)
        h = np.zeros(1, dtype=complex)
        rho6g, _, _ = hs.s6_profiles(xi, 4.0 + 3.0j, g, h, DC, P)
        assert set(rho6g.coeffs) == {"exp_t1", "M0"}


class TestSolveReduced:
    def test_zero_data(self):
        g = np.zeros((2,) + GRID.shape, dtype=complex)
        h = np.zeros(GRID.shape, dtype=complex)
        sol = hs.solve_reduced(g, h, 5.0 + 2.0j, GRID, NORMAL, P, DC)
        assert np.max(np.abs(sol.rho())) < 1e-14
        assert np.max(np.abs(sol.u())) < 1e-14

    def test_manufactured_recovery(self):
        rng = np.random.default_rng(29)
        lam = 25.0 * np.exp(1.9j)
        star = manufactured_boundary_modes(GRID, lam, DC, P, rng)
        g, h = boundary_data_of_modes(star, GRID, P)
        sol = hs.solve_reduced(g, h, lam, GRID, NORMAL, P, DC)
        x = NORMAL.x
        rho_star = np.fft.ifft(star.rho_profile().evaluate(star.roots, x),
                               axis=0)
        u_star = np.stack([np.fft.ifft(star.u_profile(c).evaluate(
            star.roots, x), axis=0) for c in range(2)])
        assert np.max(np.abs(sol.rho() - rho_star)) \
            < 1e-8 * np.max(np.abs(rho_star))
        assert np.max(np.abs(sol.u() - u_star)) \
            < 1e-8 * np.max(np.abs(u_star))

    def test_residuals_small(self):
        rng = np.random.default_rng(31)
        lam = 12.0 * np.exp(-1.2j)
        star = manufactured_boundary_modes(GRID, lam, DC, P, rng)
        g, h = boundary_data_of_modes(star, GRID, P)
        sol = hs.solve_reduced(g, h, lam, GRID, NORMAL, P, DC)
        res = hs.residual_reduced(sol, g, h)
        scale = np.max(np.abs(g)) + np.max(np.abs(h))
        assert res.max_all() < 1e-10 * scale

    def test_zero_fields_residual_equals_data(self):
        rng = np.random.default_rng(37)
        g = (rng.standard_normal((2,) + GRID.shape)
             + 1j * rng.standard_normal((2,) + GRID.shape))
        h = np.zeros(GRID.shape, dtype=complex)
        sol = hs.solve_reduced(np.zeros_like(g), h, 4.0 + 1j, GRID, NORMAL,
                               P, DC)
        res = hs.residual_reduced(sol, g, h)
        assert res.boundary_stress == pytest.approx(np.max(np.abs(g)),
                                                    rel=1e-10)

    def test_sample_set_independence(self):
        # two normal-sample sets agree at shared points
        rng = np.random.default_rng(41)
        lam = 8.0 + 5.0j
        star = manufactured_boundary_modes(GRID, lam, DC, P, rng)
        g, h = boundary_data_of_modes(star, GRID, P)
        shared = np.array([0.0, 0.7, 1.9, 4.4])
        na = hs.NormalSamples(shared)
        nb = hs.NormalSamples(np.sort(np.concatenate([shared,
                                                      [0.3, 2.5, 7.0]])))
        sa = hs.solve_reduced(g, h, lam, GRID, na, P, DC)
        sb = hs.solve_reduced(g, h, lam, GRID, nb, P, DC)
        ib = [int(np.where(nb.x == v)[0][0]) for v in shared]
        assert np.max(np.abs(sa.rho() - sb.rho()[..., ib])) < 1e-12

    def test_adopt_table_only_at_same_exponents_and_samples(self):
        rng = np.random.default_rng(47)
        lam = 8.0 + 5.0j
        g, h = random_boundary_data(rng, GRID.shape[0])
        owner = hs.solve_reduced(g, h, lam, GRID, NORMAL, P, DC)
        same = hs.solve_reduced(2.0 * g, h, lam, GRID, NORMAL, P, DC)
        own = same.rho_hat()
        same.adopt_table(owner)
        assert same._table is owner._table
        assert np.array_equal(same.rho_hat(), own)
        for other in (hs.solve_reduced(g, h, lam * (1 + 1e-15), GRID, NORMAL,
                                       P, DC),
                      hs.solve_reduced(g, h, lam, GRID,
                                       hs.NormalSamples.chebyshev(65, 10.0),
                                       P, DC)):
            with pytest.raises(ValueError):
                other.adopt_table(owner)

    def test_analytic_normal_derivative_vs_finite_difference(self):
        rng = np.random.default_rng(43)
        lam = 9.0 * np.exp(0.7j)
        star = manufactured_boundary_modes(GRID, lam, DC, P, rng)
        g, h = boundary_data_of_modes(star, GRID, P)
        sol = hs.solve_reduced(g, h, lam, GRID, NORMAL, P, DC)
        x0 = np.array([0.0, 1.3, 3.3])
        eps = 1e-5
        d_an = sol.rho_prof.derivative(sol.roots).evaluate(sol.roots, x0)
        d_fd = (sol.rho_prof.evaluate(sol.roots, x0 + eps)
                - sol.rho_prof.evaluate(sol.roots, np.maximum(x0 - eps, 0)
                                        + (x0 - eps < 0) * eps * 0)) \
            / (2 * eps)
        # one-sided issue at 0: only compare interior points
        assert np.max(np.abs(d_an[:, 1:] - d_fd[:, 1:])) < 1e-7 * max(
            1.0, float(np.max(np.abs(d_an))))

    def test_mode_solution_json(self):
        xi = (np.array([1.0, 2.0]),)
        g = np.ones((2, 2), dtype=complex)
        h = np.ones(2, dtype=complex)
        ms = hs.coefficients_closed_form(xi, 3.0 + 1j, g, h, DC, P)
        blob = ms.to_json()
        assert "alpha" in blob and len(blob["t1"]["re"]) == 2

    def test_boundedness_shadow(self):
        # weighted solution blocks against the weighted boundary-data
        # norm: the max ratio stays within a factor 2 of the median over
        # 100 lambdas spanning the modulus range (interior half-angles,
        # as the near-rim constant growth is separate behavior)
        from korteweg import resolvent as rv
        geo = rv.HalfGeometry(dim=2, points_per_axis=32, height=10.0)
        rng = np.random.default_rng(47)
        data = rv.random_full_data(geo, rng)
        data.d[:] = 0
        data.f[:] = 0
        sigma = DC.sigma_w + 0.15
        mods = np.exp(rng.uniform(np.log(0.5), np.log(1e4), 100))
        angs = rng.uniform(-(np.pi - sigma) / 2, (np.pi - sigma) / 2, 100)
        ratios = []
        for lam in mods * np.exp(1j * angs):
            sol = rv.solve_gamma_zero(data, complex(lam), P, DC)
            ratios.append(sol.output_norm()
                          / rv.fx_norm(data, complex(lam)))
        ratios = np.array(ratios)
        assert np.max(ratios) <= 2.0 * np.median(ratios)
