import itertools

import numpy as np
import pytest

from korteweg import halfspace as hs
from korteweg.errors import (GridMismatch, LambdaOutsideSector,
                             NeumannDiverged, SingularLopatinskii)
from korteweg.model import MaterialParams, derive_constants
from korteweg import resolvent as rv
from korteweg.halfspace import solve_reduced_hat
from korteweg.manufactured import (ManufacturedPair, manufactured_data,
                                   manufactured_fields)
from korteweg.symbols import frak_symbols, roots_t
from korteweg.verification import spearman_rho
from korteweg.wholespace import solve_whole

P = MaterialParams(1.0, 1.0, 2.0)
DC = derive_constants(P)
GEO = rv.HalfGeometry(dim=2, points_per_axis=128, height=10.0)


def manufactured_case(geo, lam, rng, gamma=0.0, with_layer=True,
                      layer_amp=0.5):
    """Star pair, its data rows, and its half-grid samples."""
    params = MaterialParams(P.mu, P.nu, P.kappa, gamma)
    pair = ManufacturedPair.random(geo.tangential, lam, DC, params, rng,
                                   kmax=5, layer_amplitude=layer_amp,
                                   with_layer=with_layer)
    data = manufactured_data(pair, geo, lam, params, gamma)
    rho_star, u_star = manufactured_fields(pair, geo)
    return data, rho_star, u_star, params


class TestExtensions:
    def test_even_constant(self):
        c = np.ones(GEO.half_shape, dtype=complex) * 2.5
        ext = rv.extend_even(GEO, c)
        assert np.all(ext == 2.5)

    def test_zero_extension_round_trip(self):
        rng = np.random.default_rng(0)
        f = rng.standard_normal(GEO.half_shape) + 0j
        back = rv.restrict(GEO, rv.extend_zero(GEO, f))
        assert np.array_equal(back, f)

    def test_even_continuity(self):
        rng = np.random.default_rng(1)
        d = rv.random_full_data(GEO, rng).d
        ext = rv.extend_even(GEO, d)
        m = GEO.points_per_axis
        # mirror pairs agree identically
        assert np.array_equal(ext[..., m // 2 + 3], ext[..., m // 2 - 3])

    def test_even_round_trip(self):
        rng = np.random.default_rng(2)
        d = rv.random_full_data(GEO, rng).d
        assert np.array_equal(rv.restrict(GEO, rv.extend_even(GEO, d)), d)


class TestBoundaryCorrection:
    def test_zero_interior_data_keeps_boundary_data(self):
        rng = np.random.default_rng(3)
        data = rv.random_full_data(GEO, rng)
        data.d[:] = 0
        data.f[:] = 0
        whole = rv._WholePart(GEO, np.zeros(GEO.box.shape, dtype=complex),
                              np.zeros((2,) + GEO.box.shape, dtype=complex))
        g_t, h_t = rv.correct_boundary_data_hat(data, whole, P)
        tan = GEO.tangential
        assert np.allclose(g_t, tan.fft(data.g[..., 0]), atol=1e-14)
        assert np.allclose(h_t, tan.fft(data.h[..., 0]), atol=1e-14)

    def test_correction_additive_in_interior_data(self):
        rng = np.random.default_rng(4)
        lam = 60.0 + 10.0j
        d1 = rv.random_full_data(GEO, rng)
        d2 = rv.random_full_data(GEO, rng)
        both = d1.combine(d2)
        sols = [rv.solve_gamma_zero(x, lam, P, DC) for x in (d1, d2, both)]
        g1, h1 = rv.correct_boundary_data_hat(d1, sols[0].whole, P)
        g2, h2 = rv.correct_boundary_data_hat(d2, sols[1].whole, P)
        gb, hb = rv.correct_boundary_data_hat(both, sols[2].whole, P)
        assert np.allclose(gb, g1 + g2, atol=1e-12)
        assert np.allclose(hb, h1 + h2, atol=1e-12)


class TestGammaZeroPipeline:
    def test_zero_data(self):
        sol = rv.solve_gamma_zero(rv.FullData.zeros(GEO), 50.0 + 0j, P, DC)
        assert np.max(np.abs(sol.rho())) < 1e-14
        assert np.max(np.abs(sol.u())) < 1e-14

    def test_manufactured_recovery(self):
        rng = np.random.default_rng(5)
        lam = 110.0 * np.exp(0.8j)
        data, rho_star, u_star, params = manufactured_case(GEO, lam, rng)
        sol = rv.solve_gamma_zero(data, lam, params, DC)
        assert np.max(np.abs(sol.rho() - rho_star)) \
            < 1e-8 * np.max(np.abs(rho_star))
        assert np.max(np.abs(sol.u() - u_star)) \
            < 1e-8 * np.max(np.abs(u_star))

    def test_residual_arbitrary_data(self):
        rng = np.random.default_rng(6)
        data = rv.random_full_data(GEO, rng)
        for lam in (100.0 + 0j, 3.0 + 8.0j, 0.7 - 0.4j):
            sol = rv.solve_gamma_zero(data, lam, P, DC)
            assert rv.residual_full(sol, data, 0.0).max_relative() < 1e-10

    def test_homogeneous_uniqueness_shadow(self):
        sol = rv.solve_gamma_zero(rv.FullData.zeros(GEO), 7.0 + 2.0j, P, DC)
        assert sol.output_norm() < 1e-12

    def test_boundary_only_short_circuit(self):
        # with d = 0, f = 0 the pipeline equals the reduced solver
        # bit for bit
        rng = np.random.default_rng(7)
        lam = 20.0 * np.exp(-0.5j)
        data = rv.random_full_data(GEO, rng)
        data.d[:] = 0
        data.f[:] = 0
        sol = rv.solve_gamma_zero(data, lam, P, DC)
        tan = GEO.tangential
        red = solve_reduced_hat(tan.fft(data.g[..., 0]),
                                tan.fft(data.h[..., 0]), lam, tan,
                                GEO.normal_samples(), P, DC)
        assert np.array_equal(sol.corrector.red.rho_hat(), red.rho_hat())
        assert np.max(np.abs(sol.rho() - red.rho())) < 1e-17


class TestGammaPerturbation:
    def test_gamma_zero_trivial_iteration(self):
        rng = np.random.default_rng(8)
        data = rv.random_full_data(GEO, rng)
        p0 = MaterialParams(1, 1, 2, gamma=0.0)
        sol, state = rv.solve_general(data, 80.0 + 0j, p0)
        assert state.iterations == 1 and state.ratio_history == [0.0]
        direct = rv.solve_gamma_zero(data, 80.0 + 0j, p0)
        assert np.array_equal(sol.rho(), direct.rho())
        assert np.array_equal(sol.u(), direct.u())

    def test_converges_and_solves(self):
        rng = np.random.default_rng(9)
        data = rv.random_full_data(GEO, rng)
        p1 = MaterialParams(1, 1, 2, gamma=0.1)
        sol, state = rv.solve_general(data, 100.0 + 0j, p1)
        assert all(r < 0.5 for r in state.ratio_history)
        assert rv.residual_full(sol, data).max_relative() < 1e-8

    def test_manufactured_recovery_with_gamma(self):
        # interior-only star: the gamma feedback field then has kink-free
        # zero extension, which is what the recovery oracle requires; the
        # layered gamma case is covered by the residual checks
        rng = np.random.default_rng(10)
        lam = 120.0 * np.exp(0.5j)
        data, rho_star, u_star, params = manufactured_case(
            GEO, lam, rng, gamma=0.05, with_layer=False)
        sol, _ = rv.solve_general(data, lam, params)
        assert np.max(np.abs(sol.rho() - rho_star)) \
            < 1e-8 * np.max(np.abs(rho_star))
        assert np.max(np.abs(sol.u() - u_star)) \
            < 1e-8 * np.max(np.abs(u_star))

    def test_layered_gamma_residual(self):
        # with a boundary layer present the gamma solve is verified
        # through the residual of the full system
        rng = np.random.default_rng(101)
        lam = 120.0 * np.exp(0.5j)
        data, _, _, params = manufactured_case(GEO, lam, rng, gamma=0.05,
                                               layer_amp=0.2)
        sol, _ = rv.solve_general(data, lam, params)
        assert rv.residual_full(sol, data).max_relative() < 1e-8

    def test_divergence_detected(self):
        rng = np.random.default_rng(11)
        data = rv.random_full_data(GEO, rng)
        pbig = MaterialParams(1, 1, 2, gamma=1e3)
        with pytest.raises(NeumannDiverged):
            rv.solve_general(data, 1.0 + 0j, pbig)

    def test_zero_data_contracts_to_zero(self):
        # uniqueness shadow: iterating the coupling map from a random
        # seed with zero forcing collapses to zero
        rng = np.random.default_rng(12)
        p1 = MaterialParams(1, 1, 2, gamma=0.3)
        state = rv.random_full_data(GEO, rng)
        lam = 50.0 + 0j
        for _ in range(24):
            state = rv.apply_G(state, lam, p1, DC)
        sol = rv.solve_gamma_zero(state, lam, p1, DC)
        assert sol.output_norm() < 1e-10

    def test_resolvent_decay_band(self):
        # lam-weighted solution blocks stay within a factor 4 band as
        # |lambda| spans two decades above the floor
        rng = np.random.default_rng(13)
        geo = rv.HalfGeometry(dim=2, points_per_axis=32, height=10.0)
        data = rv.random_full_data(geo, rng)
        p1 = MaterialParams(1, 1, 2, gamma=0.1)
        vals = []
        for lam in (2.0, 20.0, 200.0, 2000.0, 2.0e4):
            sol, _ = rv.solve_general(data, complex(lam), p1)
            norm = geo.half_l2(np.abs(complex(lam)) * sol.rho()) \
                + geo.half_l2(np.abs(complex(lam)) * sol.u())
            vals.append(norm / rv.fx_norm(data, complex(lam)))
        vals = np.array(vals)
        assert vals.max() / vals.min() < 4.0


class TestContractionProbe:
    def test_gamma_zero_ratios_vanish(self):
        p0 = MaterialParams(1, 1, 2, gamma=0.0)
        geo = rv.HalfGeometry(dim=2, points_per_axis=32)
        rows = rv.contraction_probe(p0, geo, [1.0, 10.0], seed=1)
        assert all(r == 0.0 for _, r in rows)

    def test_gamma_linearity(self):
        geo = rv.HalfGeometry(dim=2, points_per_axis=32)
        pa = MaterialParams(1, 1, 2, gamma=0.2)
        pb = MaterialParams(1, 1, 2, gamma=0.4)
        ra = rv.contraction_probe(pa, geo, [1.0, 100.0], seed=2)
        rb = rv.contraction_probe(pb, geo, [1.0, 100.0], seed=2)
        for (_, a), (_, b) in zip(ra, rb):
            assert b == pytest.approx(2 * a, rel=1e-12)

    def test_monotone_decay(self):
        geo = rv.HalfGeometry(dim=2, points_per_axis=32)
        p1 = MaterialParams(1, 1, 2, gamma=0.2)
        lambdas = [1.0, 10.0, 100.0, 1e3, 1e4]
        rows = rv.contraction_probe(p1, geo, lambdas, seed=3)
        ratios = [r for _, r in rows]
        assert spearman_rho(lambdas, ratios) <= -0.9

    def test_auto_lambda0(self):
        geo = rv.HalfGeometry(dim=2, points_per_axis=32)
        p1 = MaterialParams(1, 1, 2, gamma=0.5)
        lam0 = rv.auto_lambda0(p1, geo)
        rng = np.random.default_rng(0)
        data = rv.random_full_data(geo, rng)
        assert rv.one_step_ratio(data, complex(lam0), p1) <= 0.45


def test_fx_norm_block_composition():
    rng = np.random.default_rng(14)
    data = rv.random_full_data(GEO, rng)
    only_h = rv.FullData.zeros(GEO)
    only_h.h = data.h.copy()
    blocks = rv.data_blocks(only_h, 1.0)
    hess, grad_h, h = (GEO.half_l2(blocks[4]), GEO.half_l2(blocks[5]),
                       GEO.half_l2(blocks[6]))
    for lam in (1.0, 100.0, 1e6):
        expect = np.sqrt(hess ** 2 + lam * grad_h ** 2 + lam ** 2 * h ** 2)
        assert rv.fx_norm(only_h, lam) == pytest.approx(expect, rel=1e-12)
    # the lam h block eventually dominates: growth is asymptotically linear
    assert rv.fx_norm(only_h, 1e6) > 1e3 * rv.fx_norm(only_h, 1.0)


def member(data, i):
    """Datum i of a batch with one batch axis."""
    return rv.FullData(data.geometry, data.d[i], data.f[:, i], data.g[:, i],
                       data.h[i])


# small, large, both half-planes, and the negative real side
MIXED_LAMS = np.array([0.7 - 0.4j, 3.0 + 8.0j, 2.0e3 * np.exp(-2.0j),
                       150.0 + 0j, 40.0 * np.exp(2.5j)])


class TestBatchedSolve:
    @pytest.mark.parametrize("dim,m", [(2, 16), (3, 8)])
    def test_batched_blocks_match_single_solves(self, dim, m):
        geo = rv.HalfGeometry(dim=dim, points_per_axis=m, height=10.0)
        data = rv.random_full_data(geo, np.random.default_rng(15),
                                   batch=len(MIXED_LAMS))
        batched = rv.solve_gamma_zero(data, MIXED_LAMS, P, DC)
        blocks = list(batched.s_blocks()) + list(batched.t_blocks())
        for i, lam in enumerate(MIXED_LAMS):
            single = rv.solve_gamma_zero(member(data, i), complex(lam), P, DC)
            ref = list(single.s_blocks()) + list(single.t_blocks())
            for b, r in zip(blocks, ref):
                got = np.take(b, i, axis=-dim - 1)  # the batch axis
                assert got.shape == r.shape
                err = np.max(np.abs(got - r))
                assert err <= 1e-12 * np.max(np.abs(r))

    def test_batched_data_match_repeated_draws(self):
        geo = rv.HalfGeometry(dim=2, points_per_axis=16)
        batch = rv.random_full_data(geo, np.random.default_rng(16), batch=3)
        rng = np.random.default_rng(16)
        for i in range(3):
            one = rv.random_full_data(geo, rng)
            got = member(batch, i)
            for a, b in ((got.d, one.d), (got.f, one.f), (got.g, one.g),
                         (got.h, one.h)):
                assert np.array_equal(a, b)

    def test_singular_member_anywhere_raises(self, monkeypatch):
        # put the guard threshold between the margins of two members, so
        # only the second one trips it
        geo = rv.HalfGeometry(dim=2, points_per_axis=16)
        lams = np.array([300.0 + 0j, 2.0 + 1.0j])
        xi2 = geo.tangential.xi_sq()

        def margin(lam):
            fr = frak_symbols(xi2, lam, DC, P, roots_t(xi2, lam, DC, P.mu))
            scale = (np.sqrt(abs(lam)) + np.sqrt(xi2)) ** 6
            return np.min(np.minimum(np.abs(fr.l1), np.abs(fr.l2)) / scale)

        lo, hi = sorted(margin(lam) for lam in lams)
        assert margin(lams[1]) == lo < hi
        monkeypatch.setattr(hs, "SINGULAR_TOL", np.sqrt(lo * hi))
        data = rv.random_full_data(geo, np.random.default_rng(17), batch=2)
        rv.solve_gamma_zero(member(data, 0), complex(lams[0]), P, DC)
        with pytest.raises(SingularLopatinskii):
            rv.solve_gamma_zero(member(data, 1), complex(lams[1]), P, DC)
        with pytest.raises(SingularLopatinskii):
            rv.solve_gamma_zero(data, lams, P, DC)


class TestOneWholeSpaceMultiplier:
    """The whole part of the gamma = 0 solve is solve_whole on the
    extended data: both go through the same coefficient-space multiplier."""

    @staticmethod
    def whole_fields(sol, geo):
        axes = tuple(range(-geo.dim, 0))
        return (np.fft.ifftn(sol.whole.rho_hat, axes=axes),
                np.fft.ifftn(sol.whole.u_hat, axes=axes))

    @staticmethod
    def reference(datum, lam, geo):
        ref = solve_whole(rv.extend_even(geo, datum.d),
                          rv.extend_zero(geo, datum.f), lam, P, geo.box)
        return ref.rho, ref.u

    @staticmethod
    def assert_close(got, ref):
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))

    @pytest.mark.parametrize("dim,m", [(2, 16), (3, 8)])
    def test_single_datum(self, dim, m):
        geo = rv.HalfGeometry(dim=dim, points_per_axis=m, height=10.0)
        data = rv.random_full_data(geo, np.random.default_rng(20))
        lam = 3.0 + 8.0j
        rho, u = self.whole_fields(rv.solve_gamma_zero(data, lam, P, DC),
                                   geo)
        ref_rho, ref_u = self.reference(data, lam, geo)
        self.assert_close(rho, ref_rho)
        self.assert_close(u, ref_u)

    def test_batch_of_three(self):
        geo = rv.HalfGeometry(dim=2, points_per_axis=16, height=10.0)
        data = rv.random_full_data(geo, np.random.default_rng(21), batch=3)
        lams = MIXED_LAMS[:3]
        rho, u = self.whole_fields(rv.solve_gamma_zero(data, lams, P, DC),
                                   geo)
        for i, lam in enumerate(lams):
            ref_rho, ref_u = self.reference(member(data, i), complex(lam),
                                            geo)
            self.assert_close(rho[i], ref_rho)
            self.assert_close(u[:, i], ref_u)


class TestVanishingMultiplier:
    """lam = 0 makes P(0, lam) vanish at xi = 0: the gamma = 0 solve stops
    before dividing, as solve_whole does."""

    @pytest.mark.filterwarnings("error")
    def test_single_lambda_zero(self):
        geo = rv.HalfGeometry(dim=2, points_per_axis=16)
        data = rv.random_full_data(geo, np.random.default_rng(22))
        with pytest.raises(LambdaOutsideSector):
            rv.solve_gamma_zero(data, 0.0, MaterialParams(1, 1, 2))

    @pytest.mark.filterwarnings("error")
    def test_batch_containing_lambda_zero(self):
        geo = rv.HalfGeometry(dim=2, points_per_axis=16)
        data = rv.random_full_data(geo, np.random.default_rng(23), batch=3)
        with pytest.raises(LambdaOutsideSector):
            rv.solve_gamma_zero(data, np.array([5.0, 0.0, 2.0j]), P, DC)


class TestMultiplicityWeighting:
    """Blocks store each distinct derivative once, scaled by the root of
    its multiplicity; the norm must equal the full-tensor norm over every
    ordered index tuple."""

    @staticmethod
    def full_tensor_norm(sol, lam):
        geo = sol.geometry
        n = geo.dim
        lam = np.reshape(lam, np.shape(lam) + (1,) * n)

        def sq(which, k, weight=1.0):
            return sum(geo.block_sq([weight * sol.field(
                which, tuple(idx.count(a) for a in range(n)))])
                for idx in itertools.product(range(n), repeat=k))

        comps = range(n)
        total = (sq("rho", 3) + sq("rho", 2, np.sqrt(lam))
                 + sq("rho", 0, lam))
        total += sum(sq(c, 2) + sq(c, 1, np.sqrt(lam)) + sq(c, 0, lam)
                     for c in comps)
        return np.sqrt(total)

    @pytest.mark.parametrize("dim,m", [(2, 16), (3, 8)])
    @pytest.mark.parametrize("batch", [None, 3])
    def test_output_norm_is_full_tensor_norm(self, dim, m, batch):
        geo = rv.HalfGeometry(dim=dim, points_per_axis=m, height=10.0)
        data = rv.random_full_data(geo, np.random.default_rng(24),
                                   batch=batch)
        lam = 3.0 + 8.0j if batch is None else MIXED_LAMS[:batch]
        sol = rv.solve_gamma_zero(data, lam, P, DC)
        got = sol.output_norm()
        ref = self.full_tensor_norm(sol, lam)
        assert abs(got - ref) <= 1e-13 * ref


class TestFullDataShapes:
    def test_wrong_spatial_shape(self):
        data = rv.random_full_data(GEO, np.random.default_rng(18))
        with pytest.raises(GridMismatch):
            rv.FullData(GEO, data.d[:, :-1], data.f, data.g, data.h)
        with pytest.raises(GridMismatch):
            rv.FullData(GEO, data.d, data.f, data.g[:1], data.h)

    def test_batch_shapes_must_agree(self):
        data = rv.random_full_data(GEO, np.random.default_rng(19), batch=3)
        assert data.h.shape == (3,) + GEO.half_shape
        with pytest.raises(GridMismatch):
            rv.FullData(GEO, data.d[:2], data.f, data.g, data.h)
        with pytest.raises(GridMismatch):
            rv.FullData(GEO, data.d, data.f, data.g, data.h[0])
        with pytest.raises(GridMismatch):
            rv.FullData(GEO, data.d, data.f[:, :1], data.g, data.h)
