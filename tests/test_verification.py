import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from korteweg import model
from korteweg.errors import StepOutsideSector, ZeroDenominator
from korteweg.model import MaterialParams, Sector, radial_factors
from korteweg import resolvent as rv
from korteweg import verification as vf

P = MaterialParams(1.0, 1.0, 2.0)
SEC = Sector(1.2, 0.5)
GEO = rv.HalfGeometry(dim=2, points_per_axis=16, height=10.0)


def random_vectors(rng, m, dim=40):
    return [rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            for _ in range(m)]


def scaled_data(factor):
    """``random_full_data`` with every row multiplied by ``factor``."""
    def draw(*args, **kwargs):
        d = rv.random_full_data(*args, **kwargs)
        return rv.FullData(d.geometry, factor * d.d, factor * d.f,
                           factor * d.g, factor * d.h)

    return draw


class TestRademacher:
    def test_exact_matches_orthogonality(self):
        rng = np.random.default_rng(0)
        for m in (1, 3, 6, 8):
            vecs = random_vectors(rng, m)
            w = rng.uniform(0.1, 3.0, 40)
            exact = vf.rademacher_mean_sq(vecs, w, "exact")
            closed = vf.rademacher_closed_form(vecs, w)
            assert abs(exact - closed) <= 1e-12 * closed

    def test_montecarlo_close_to_exact(self):
        rng = np.random.default_rng(1)
        vecs = random_vectors(rng, 6)
        exact = vf.rademacher_mean_sq(vecs, None, "exact")
        mc = vf.rademacher_mean_sq(vecs, None, "montecarlo",
                                   rng=np.random.default_rng(2),
                                   draws=10_000)
        assert abs(mc - exact) / exact < 0.02

    def test_ratio_scale_invariance(self, monkeypatch):
        # the families are linear, so scaling every datum leaves each
        # trial's ratio unchanged
        ref = vf.estimate_rbound("T_B", SEC, P, GEO, m_max=3, trials=3,
                                 seed=4)
        monkeypatch.setattr(vf, "random_full_data", scaled_data(10.0))
        got = vf.estimate_rbound("T_B", SEC, P, GEO, m_max=3, trials=3,
                                 seed=4)
        assert got.ratios == pytest.approx(ref.ratios, rel=1e-12)

    def test_ratio_permutation_invariance(self):
        # a trial's ratio does not depend on the order of its members
        rng = np.random.default_rng(5)
        lams = SEC.sample(rng, 5)
        data = rv.random_full_data(GEO, rng, batch=5)
        perm = [3, 1, 4, 0, 2]
        shuffled = rv.FullData(GEO, data.d[perm], data.f[:, perm],
                               data.g[:, perm], data.h[perm])
        r1, = vf._group_ratios("S_A", [(lams, data)], P, SEC)
        r2, = vf._group_ratios("S_A", [(lams[perm], shuffled)], P, SEC)
        assert r1 == pytest.approx(r2, rel=1e-12)

    def test_zero_denominator(self, monkeypatch):
        monkeypatch.setattr(vf, "random_full_data", scaled_data(0.0))
        with pytest.raises(ZeroDenominator):
            vf.estimate_rbound("S_A", SEC, P, GEO, m_max=2, trials=1)

    @settings(max_examples=30, deadline=None)
    @given(m=st.integers(min_value=1, max_value=7),
           seed=st.integers(min_value=0, max_value=10_000))
    def test_orthogonality_property(self, m, seed):
        rng = np.random.default_rng(seed)
        vecs = random_vectors(rng, m, dim=10)
        exact = vf.rademacher_mean_sq(vecs, None, "exact")
        closed = vf.rademacher_closed_form(vecs)
        assert abs(exact - closed) <= 1e-12 * max(closed, 1e-30)


class TestLambdaDerivative:
    def test_linear_case(self):
        v = np.arange(1.0, 6.0)
        lam = 2.0 + 1.0j
        out = vf.lambda_derivative_family(lambda z: z * v, lam)
        assert np.max(np.abs(out - lam * v)) < 1e-10 * abs(lam) * 5

    def test_quadratic_case(self):
        v = np.ones(3)
        lam = 3.0 + 1.0j
        out = vf.lambda_derivative_family(lambda z: z ** 2 * v, lam)
        expect = 2 * lam ** 2 * v
        assert np.max(np.abs(out - expect)) < 1e-9 * np.max(np.abs(expect))

    def test_step_independence(self, monkeypatch):
        lam = 4.0 * np.exp(0.7j)
        f = lambda z: np.array([np.exp(z / 10)])  # noqa: E731
        monkeypatch.setattr(model, "LAM_REL_STEP", 1e-5)
        a = vf.lambda_derivative_family(f, lam)
        monkeypatch.setattr(model, "LAM_REL_STEP", 1e-6)
        b = vf.lambda_derivative_family(f, lam)
        assert np.abs(a - b) / np.abs(a) < 1e-7

    def test_sector_guard(self):
        sec = Sector(0.5, 1.0)
        lam = 1.0 + 1e-6 + 0.0j  # just above the floor: steps dip below it
        with pytest.raises(StepOutsideSector):
            vf.lambda_derivative_family(lambda z: np.array([z]), lam, sec)


class TestEstimateRBound:
    def test_finite_and_deterministic(self):
        a = vf.estimate_rbound("S_A", SEC, P, GEO, m_max=4, trials=10,
                               seed=7)
        b = vf.estimate_rbound("S_A", SEC, P, GEO, m_max=4, trials=10,
                               seed=7)
        assert np.isfinite(a.estimated_bound)
        assert a.estimated_bound == b.estimated_bound

    def test_monotone_in_trials(self):
        a = vf.estimate_rbound("T_B", SEC, P, GEO, m_max=4, trials=5, seed=1)
        b = vf.estimate_rbound("T_B", SEC, P, GEO, m_max=4, trials=15,
                               seed=1)
        assert b.estimated_bound >= a.estimated_bound

    @pytest.mark.parametrize("key", ["trials", "m_max"])
    def test_invalid_sizes_name_their_key(self, key):
        with pytest.raises(ValueError, match=key):
            vf.estimate_rbound("S_A", SEC, P, GEO, **{key: 0})

    @pytest.mark.parametrize("family", ["S_A", "T_B_dlambda"])
    def test_argmax_trial_and_solves(self, monkeypatch, family):
        solves = []

        def counted(*args, **kwargs):
            solves.append(args[1])
            return rv.solve_gamma_zero(*args, **kwargs)

        monkeypatch.setattr(vf, "solve_gamma_zero", counted)
        est = vf.estimate_rbound(family, SEC, P, GEO, m_max=4, trials=12,
                                 seed=3)
        arg, ratios = est.argmax_trial, est.ratios
        assert len(ratios) == 12
        assert ratios[arg["trial"]] == est.estimated_bound == max(ratios)
        rng = np.random.default_rng((3, arg["trial"]))
        m = int(rng.integers(1, 5))
        lams = SEC.sample(rng, m, lam_hi=1e3)
        assert arg["m"] == m
        assert arg["lambdas"] == [[z.real, z.imag] for z in lams]
        assert est.solves == len(solves)
        out = est.to_json()
        assert out["argmax_trial"] == arg and out["solves"] == est.solves
        assert set(out) == {"family_id", "p", "m_max", "trials",
                            "estimated_bound", "sigma", "delta", "seed",
                            "argmax_trial", "solves"}

    def test_delta_floor_uniformity(self):
        # estimates stay within a factor 4 band as the lambda draws move
        # up two decades
        vals = []
        for lo, hi in ((0.5, 5.0), (5.0, 50.0), (50.0, 500.0)):
            sec = Sector(1.2, lo)
            est = vf.estimate_rbound("T_B", sec, P, GEO, m_max=4, trials=40,
                                     seed=4, lam_hi=hi)
            vals.append(est.estimated_bound)
        assert max(vals) / min(vals) < 4.0


def test_spearman_exact_orders():
    assert vf.spearman_rho([1, 2, 3, 4], [10, 20, 30, 40]) == 1.0
    assert vf.spearman_rho([1, 2, 3, 4], [9, 7, 5, 3]) == -1.0


def trials_with_members(family, seed=5, trials=6, m_max=8):
    """Each batched trial ratio with its members' (numerator, denominator)
    rebuilt one lambda at a time from the same draws."""
    ratios = vf.estimate_rbound(family, SEC, P, GEO, m_max=m_max,
                                trials=trials, seed=seed).ratios
    out = []
    for t, ratio in enumerate(ratios):
        rng = np.random.default_rng((seed, t))
        m = int(rng.integers(1, m_max + 1))
        members = []
        for lam in SEC.sample(rng, m, lam_hi=1e3):
            data = rv.random_full_data(GEO, rng)
            members.append((
                GEO.block_sq(vf.family_apply(family, data, complex(lam), P,
                                             SEC)),
                GEO.block_sq(rv.data_blocks(data, complex(lam)))))
        out.append((ratio, members))
    return out


def member_tol(family):
    # the 1e-5 radial step of the dlambda families amplifies last-bit FFT
    # differences by ~1e5
    return 1e-10 if family.endswith("_dlambda") else 1e-12


@pytest.mark.parametrize("family", vf.FAMILIES)
def test_batched_trials_match_per_lambda_reference(family):
    # each trial is one batched solve; rebuild its ratio one lambda at a
    # time from the same draws
    tol = member_tol(family)
    for ratio, members in trials_with_members(family):
        numer, denom = np.sum(members, axis=0)
        ref = np.sqrt(numer / denom)
        assert abs(ratio - ref) <= tol * ref


@pytest.mark.parametrize("family", vf.FAMILIES)
def test_trial_ratio_between_member_ratios(family):
    # with p = 2 a trial's squared ratio is the ||f_j||^2-weighted mean of
    # its members' squared single-lambda ratios, so it lies between the
    # smallest and the largest of them
    tol = member_tol(family)
    for ratio, members in trials_with_members(family):
        single = [np.sqrt(n / d) for n, d in members]
        assert min(single) * (1 - tol) <= ratio <= max(single) * (1 + tol)


def test_derivative_family_shares_the_stencil():
    # the batched dlambda blocks equal lambda_derivative_family applied to
    # the plain family, point by point
    rng = np.random.default_rng(12)
    data = rv.random_full_data(GEO, rng)
    lam = 25.0 * np.exp(1.1j)

    def flat(blocks):
        return np.concatenate([b.ravel() for b in blocks])

    vec = flat(vf.family_apply("T_B_dlambda", data, lam, P, SEC))
    ref = vf.lambda_derivative_family(
        lambda z: flat(vf.family_apply("T_B", data, z, P)), lam, SEC)
    assert np.max(np.abs(vec - ref)) <= 1e-10 * np.max(np.abs(ref))


def test_batched_stencil_checks_sector_before_solving(monkeypatch):
    calls = []
    monkeypatch.setattr(vf, "solve_gamma_zero",
                        lambda *a, **k: calls.append(a))
    data = rv.random_full_data(GEO, np.random.default_rng(13), batch=2)
    lams = np.array([10.0 + 0j, 1.000001 + 0j])  # the second dips below
    with pytest.raises(StepOutsideSector):
        vf.family_apply("S_A_dlambda", data, lams, P, Sector(0.5, 1.0))
    assert calls == []


def trial_sizes(seed, trials, m_max):
    return [int(np.random.default_rng((seed, t)).integers(1, m_max + 1))
            for t in range(trials)]


@pytest.mark.parametrize("family", vf.FAMILIES)
@pytest.mark.parametrize("m_max", [3, 8])
def test_solves_hold_at_most_one_dlambda_trial(monkeypatch, family, m_max):
    # trials are packed greedily, in order, into solves of at most
    # m_max * len(radial_factors()) (datum, lambda) pairs
    sizes = []

    def recorded(data, lam, *args, **kwargs):
        sizes.append(int(np.prod(np.broadcast_shapes(
            data.d.shape[:-GEO.dim], np.shape(lam)))))
        return rv.solve_gamma_zero(data, lam, *args, **kwargs)

    monkeypatch.setattr(vf, "solve_gamma_zero", recorded)
    est = vf.estimate_rbound(family, SEC, P, GEO, m_max=m_max, trials=40,
                             seed=2)
    cap = m_max * len(radial_factors())
    width = len(radial_factors()) if family.endswith("_dlambda") else 1
    expected, load = [], 0
    for m in trial_sizes(2, 40, m_max):
        if load + width * m > cap:
            expected.append(load)
            load = 0
        load += width * m
    expected.append(load)
    assert max(sizes) <= cap
    assert sizes == expected and est.solves == len(sizes)


@pytest.mark.parametrize("family", vf.FAMILIES)
def test_trial_ratios_are_a_prefix(family):
    # grouping follows the trial sequence only: a T-trial call gives the
    # first T ratios of a longer call, bit for bit
    for seed in range(4):
        full = vf.estimate_rbound(family, SEC, P, GEO, m_max=8,
                                  trials=14, seed=seed).ratios
        for trials in (1, 3, 5):
            part = vf.estimate_rbound(family, SEC, P, GEO, m_max=8,
                                      trials=trials, seed=seed).ratios
            assert part == full[:trials]
