import gc
import itertools
import weakref

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


def tensor_sq(geo, derivative, total, weight=1.0):
    """Squared norm of the order-``total`` derivative tensor: the physical
    field ``derivative(orders)`` for every ordered index tuple, by
    half_l2."""
    n = geo.dim
    return sum(geo.half_l2(weight * derivative(
        tuple(idx.count(a) for a in range(n)))) ** 2
        for idx in itertools.product(range(n), repeat=total))


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
        assert np.array_equal(sol.corrector.rho_hat(), red.rho_hat())
        assert np.max(np.abs(sol.rho() - red.rho())) < 1e-17

    @pytest.mark.parametrize("dim", [2, 3])
    def test_corrector_samples_are_profile_values(self, dim):
        # every normal derivative the blocks and residuals read from the
        # corrector's one channel table equals a fresh evaluation of its
        # profile, bit for bit
        geo = rv.HalfGeometry(dim=dim, points_per_axis=16, height=10.0)
        data = rv.random_full_data(geo, np.random.default_rng(12))
        sol = rv.solve_gamma_zero(data, 30.0 * np.exp(0.8j), P, DC)
        sol.s_blocks()
        sol.t_blocks()
        rv.residual_full(sol, data)
        asked = set(sol._rows)
        assert asked == ({("rho", k) for k in range(4)}
                         | {(c, k) for c in range(dim) for k in range(3)})
        red = sol.corrector
        for which, k in asked:
            want = red.profile(which, k).evaluate(red.roots, red.normal.x)
            assert np.array_equal(red.sample(which, k), want)


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

    def test_one_lambda_state_per_solve(self, monkeypatch):
        # every iterate and the final solve share one LambdaState, which
        # builds the multipliers and the channel table once and is gone
        # when solve_general returns; the solution is what a fresh
        # one-shot solve of the final iterate's data gives
        geo = rv.HalfGeometry(dim=2, points_per_axis=16, height=10.0)
        data = rv.random_full_data(geo, np.random.default_rng(9))
        p1 = MaterialParams(1, 1, 2, gamma=0.1)
        builds = {"table": 0, "multipliers": 0}
        solves, states = [], []
        solve = rv.solve_gamma_zero

        def counted(name, fn):
            def wrapper(*args):
                builds[name] += 1
                return fn(*args)
            return wrapper

        def recorded_solve(*args, **kwargs):
            solves.append(args)
            return solve(*args, **kwargs)

        class RecordedState(rv.LambdaState):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                states.append(weakref.ref(self))

        monkeypatch.setattr(hs, "channel_table",
                            counted("table", hs.channel_table))
        monkeypatch.setattr(rv, "whole_multipliers",
                            counted("multipliers", rv.whole_multipliers))
        monkeypatch.setattr(rv, "solve_gamma_zero", recorded_solve)
        monkeypatch.setattr(rv, "LambdaState", RecordedState)
        sol, state = rv.solve_general(data, 100.0 + 0j, p1)
        assert state.iterations == 3 and len(solves) == 4
        assert all(args[1] == 100.0 + 0j for args in solves)
        assert builds == {"table": 1, "multipliers": 1}
        gc.collect()
        assert len(states) == 1 and states[0]() is None

        def outputs(s):
            return list(s.s_blocks()) + list(s.t_blocks()) + [s.rho(), s.u()]

        fresh = solve(*solves[-1])  # the final iterate, with its own state
        for got, ref in zip(outputs(sol), outputs(fresh)):
            assert np.array_equal(got, ref)
        assert builds == {"table": 2, "multipliers": 2}

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
        # G vanishes with gamma, so every ratio is 0 and the probe, which
        # could only report those zeros, refuses gamma = 0
        p0 = MaterialParams(1, 1, 2, gamma=0.0)
        geo = rv.HalfGeometry(dim=2, points_per_axis=32)
        data = rv.random_full_data(geo, np.random.default_rng(1))
        assert rv.one_step_ratio(data, 10.0 + 0j, p0) == 0.0
        with pytest.raises(ValueError, match="params.gamma"):
            rv.contraction_probe(p0, geo, [1.0, 10.0], seed=1)

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
    hess, grad_h, h = (np.sqrt(GEO.block_sq([b])) for b in blocks[4:])
    for lam in (1.0, 100.0, 1e6):
        expect = np.sqrt(hess ** 2 + lam * grad_h ** 2 + lam ** 2 * h ** 2)
        assert rv.fx_norm(only_h, lam) == pytest.approx(expect, rel=1e-12)
    # the lam h block eventually dominates: growth is asymptotically linear
    assert rv.fx_norm(only_h, 1e6) > 1e3 * rv.fx_norm(only_h, 1.0)


class TestDataDerivatives:
    """The data-norm derivatives against analytic and independent
    references: tangential axes first, the normal axis last."""

    K = 2 * 2 * np.pi / 20  # mode 2 on the period-20 box

    @staticmethod
    def sin_cos(geo):
        """F = sin(k y_1) cos(k x_N) (times cos(k y_2) in 3-D), as the
        phases of one sine per axis."""
        y = np.arange(geo.points_per_axis) * geo.period / geo.points_per_axis
        coords = [y] * (geo.dim - 1) + [geo.normal_samples().x]
        phases = [0.0] + [np.pi / 2] * (geo.dim - 1)
        return np.meshgrid(*coords, indexing="ij"), phases

    def analytic(self, grid, phases, orders):
        out = 1.0
        for x, ph, k in zip(grid, phases, orders):
            out = out * self.K ** k * np.sin(self.K * x + ph + k * np.pi / 2)
        return out

    @pytest.mark.parametrize("dim,m", [(2, 16), (2, 64), (3, 16), (3, 64)])
    def test_sin_cos_gradient_and_hessian(self, dim, m):
        geo = rv.HalfGeometry(dim=dim, points_per_axis=m, height=10.0)
        grid, phases = self.sin_cos(geo)
        data = rv.FullData.zeros(geo)
        data.h = self.analytic(grid, phases, (0,) * dim) + 0j
        blocks = rv.data_blocks(data, 1.0)
        for block, total in ((blocks[4], 2), (blocks[5], 1)):
            assert block.shape == (total + 1, 1) + geo.half_shape
            got = np.sqrt(geo.block_sq([block]))
            ref = np.sqrt(tensor_sq(
                geo, lambda o: self.analytic(grid, phases, o), total))
            assert abs(got - ref) <= 1e-12 * ref

    @staticmethod
    def box_derivative(geo, h, counts):
        """A derivative of h through the full-box transform of its even
        extension, one ordered index tuple at a time."""
        axes = tuple(range(-geo.dim, 0))
        hat = np.fft.fftn(rv.extend_even(geo, h), axes=axes)
        for mesh, k in zip(geo.box.freq_mesh(), counts):
            hat = hat * (1j * mesh) ** k
        return rv.restrict(geo, np.fft.ifftn(hat, axes=axes))

    @pytest.mark.parametrize("dim,m", [(2, 16), (3, 8)])
    @pytest.mark.parametrize("batch", [None, 3])
    def test_hessian_norm_is_full_tensor_norm(self, dim, m, batch):
        # every data block against physical references: d, f, grad g,
        # |lam|^{1/2} g, the second gradient of h, |lam|^{1/2} grad h and
        # lam h, the derivatives one ordered index tuple at a time
        geo = rv.HalfGeometry(dim=dim, points_per_axis=m, height=10.0)
        data = rv.random_full_data(geo, np.random.default_rng(25),
                                   batch=batch)
        lam = 3.0 + 4.0j
        sq = np.sqrt(abs(lam))
        blocks = rv.data_blocks(data, lam)

        def g(orders):
            return self.box_derivative(geo, data.g, orders)

        def h(orders):
            return self.box_derivative(geo, data.h, orders)

        refs = [geo.half_l2(data.d) ** 2, geo.half_l2(data.f) ** 2,
                tensor_sq(geo, g, 1), tensor_sq(geo, g, 0, sq),
                tensor_sq(geo, h, 2), tensor_sq(geo, h, 1, sq),
                geo.half_l2(lam * data.h) ** 2]
        for block, ref_sq in zip(blocks, refs, strict=True):
            got, ref = np.sqrt(geo.block_sq([block])), np.sqrt(ref_sq)
            assert abs(got - ref) <= 1e-13 * ref

    @pytest.mark.parametrize("dim,m", [(2, 16), (3, 8)])
    def test_zero_field_is_not_transformed(self, dim, m, monkeypatch):
        # the rows of a zero field are exact zeros, the other rows are
        # the rows of the stack without it, and only the nonzero fields
        # reach the forward transforms
        geo = rv.HalfGeometry(dim=dim, points_per_axis=m, height=10.0)
        data = rv.random_full_data(geo, np.random.default_rng(26))
        a, b = data.h, data.d
        dense = [rv.data_rows(geo, np.stack([a, b]), top)
                 for top in (0, 2)]
        sizes = []
        fftn = np.fft.fftn

        def counted_fftn(arr, *args, **kwargs):
            sizes.append(np.shape(arr)[0])
            return fftn(arr, *args, **kwargs)

        monkeypatch.setattr(np.fft, "fftn", counted_fftn)
        skipped = [rv.data_rows(geo, np.stack([a, np.zeros_like(a), b]), top)
                   for top in (0, 2)]
        assert sizes == [2, 2]  # one forward transform per call
        for got_rows, ref_rows in zip(skipped, dense):
            assert len(got_rows) == len(ref_rows)
            for got, ref in zip(got_rows, ref_rows):
                assert np.array_equal(got[[0, 2]], ref)
                assert got[1].dtype == complex and not np.any(got[1])

    @pytest.mark.parametrize("dim,m", [(2, 16), (3, 8)])
    def test_zero_h_batch_data_blocks(self, dim, m):
        # a batched Neumann increment: h and the tangential g are zero
        geo = rv.HalfGeometry(dim=dim, points_per_axis=m, height=10.0)
        data = rv.random_full_data(geo, np.random.default_rng(27), batch=3)
        g = data.g.copy()
        g[:-1] = 0.0
        increment = rv.FullData(geo, data.d, data.f, g,
                                np.zeros_like(data.h))
        lams = MIXED_LAMS[:3]
        got = rv.data_blocks(increment, lams)
        ref = rv.data_blocks(rv.FullData(geo, data.d, data.f, g, data.h),
                             lams)
        ref_grad_normal = rv.mode_block(geo, rv.data_rows(geo, g[-1:], 1), 1)
        assert [b.shape for b in got] == [b.shape for b in ref]
        for i in (0, 1, 3):  # d, f, |lam|^{1/2} g
            assert np.array_equal(got[i], ref[i])
        assert np.array_equal(got[2], ref[2])
        assert np.array_equal(got[2][:, -1:], ref_grad_normal)
        assert not np.any(got[2][:, :-1])
        for block in got[4:]:  # second gradient, gradient and lam h
            assert not np.any(block)


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

    @pytest.mark.parametrize("dim,m", [(2, 16), (3, 8)])
    def test_batched_residual_is_max_over_members(self, dim, m):
        geo = rv.HalfGeometry(dim=dim, points_per_axis=m, height=10.0)
        data = rv.random_full_data(geo, np.random.default_rng(15),
                                   batch=len(MIXED_LAMS))
        batched = rv.residual_full(rv.solve_gamma_zero(data, MIXED_LAMS, P,
                                                       DC), data).to_json()
        singles = [rv.residual_full(rv.solve_gamma_zero(
                       member(data, i), complex(lam), P, DC),
                       member(data, i)).to_json()
                   for i, lam in enumerate(MIXED_LAMS)]
        for key, value in batched.items():
            assert value == max(s[key] for s in singles)

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


class TestFieldKernel:
    @pytest.mark.parametrize("dim,m", [(2, 16), (3, 8)])
    @pytest.mark.parametrize("batch", [None, 3])
    def test_blocks_do_not_depend_on_the_cache(self, dim, m, batch):
        # blocks of a fresh solution equal, bit for bit, those taken after
        # residual_full and the fields have cached every row they read;
        # taking the blocks leaves every cached row and every field as
        # it was
        geo = rv.HalfGeometry(dim=dim, points_per_axis=m, height=10.0)
        data = rv.random_full_data(geo, np.random.default_rng(31),
                                   batch=batch)
        lam = 30.0 * np.exp(0.8j) if batch is None else MIXED_LAMS[:batch]

        def blocks(sol):
            return list(sol.s_blocks()) + list(sol.t_blocks())

        def fields(sol):
            return [sol.rho(), sol.u(), sol.grad_rho()]

        fresh = blocks(rv.solve_gamma_zero(data, lam, P, DC))
        sol = rv.solve_gamma_zero(data, lam, P, DC)
        rv.residual_full(sol, data)
        before_fields = fields(sol)
        before = {key: arr.copy() for key, arr in sol._rows.items()}
        assert set(before) == ({("rho", k) for k in range(4)}
                               | {(c, k) for c in range(dim)
                                  for k in range(3)})
        for got, ref in zip(blocks(sol), fresh, strict=True):
            assert np.array_equal(got, ref)
        for key, arr in before.items():
            assert np.array_equal(sol._rows[key], arr)
        for got, ref in zip(fields(sol), before_fields):
            assert np.array_equal(got, ref)


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
    """Blocks hold per-mode normal-derivative rows weighted by
    sqrt(C(t, k)) |xi'|^(t - k); the norm must equal the full-tensor norm
    over every ordered index tuple of the physical fields."""

    @staticmethod
    def full_tensor_norm(sol, lam):
        geo = sol.geometry
        n = geo.dim
        lam = np.reshape(lam, np.shape(lam) + (1,) * n)

        def sq(which, k, weight=1.0):
            return tensor_sq(geo, lambda o: sol.field(which, o), k, weight)

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
