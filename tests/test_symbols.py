import dataclasses

import numpy as np
import pytest

from korteweg.errors import BranchCutHit
from korteweg.halfspace import ChannelProfile
from korteweg.model import MaterialParams, derive_constants
from korteweg import symbols as sy

P112 = MaterialParams(1.0, 1.0, 2.0)
DC112 = derive_constants(P112)

PARAM_SETS = [MaterialParams(*c) for c in
              [(1, 1, 2), (1, 2, 1), (2, 1, 1), (1, 1, 4), (0.5, 1.5, 0.8)]]


def free_exponents(omega, t1, t2):
    """A RootSet of exponents chosen freely, not taken at a symbol point:
    the kernels read only the exponents, so the point is left NaN."""
    return sy.RootSet(xi2=np.nan, lam=np.nan, omega=omega, t1=t1, t2=t2,
                      s1=DC112.s1, s2=DC112.s2, mu=P112.mu)


def kernel(j, x, r):
    """M_j at the normal samples x, from the exponentials of ``r`` there."""
    return sy.kernel_M(j, x, r, sy.decay_exponentials(r, x))


def sector_samples(dc, rng, n, sigma_extra=0.2, lam_range=(1e-2, 1e4),
                   conditioned=False):
    """Random (xi'^2, lambda) pairs inside Sigma_{sigma_w+extra, 0}.

    With conditioned=True the draw is restricted to xi^2/|lam| <= 100, the
    window where the naive 2x2 determinant is well-conditioned; the
    factored/eliminated forms are exact everywhere and are the production
    path outside it.
    """
    mod = np.exp(rng.uniform(np.log(lam_range[0]), np.log(lam_range[1]), n))
    amax = np.pi - (dc.sigma_w + sigma_extra)
    lam = mod * np.exp(1j * rng.uniform(-amax, amax, n))
    hi = np.minimum(10.0 * np.sqrt(mod), 1e3) if conditioned else 1e3
    xi = np.exp(rng.uniform(np.log(1e-3), np.log(hi), n))
    return xi ** 2, lam


class TestOmegaAndRoots:
    def test_omega_examples(self):
        assert sy.omega_lambda(0.0, 4.0, 1.0) == pytest.approx(2.0)
        assert sy.omega_lambda(0.0, 1j, 1.0) == pytest.approx(
            np.exp(1j * np.pi / 4), abs=1e-15)
        assert sy.omega_lambda(1.0, 3.0, 1.0) == pytest.approx(2.0)

    def test_omega_branch_cut(self):
        with pytest.raises(BranchCutHit):
            sy.omega_lambda(0.0, -4.0, 1.0)

    def test_roots_example_112(self):
        r = sy.roots_t(0.0, 1.0, DC112, P112.mu)
        assert r.t1 == pytest.approx(0.77688698 + 0.32179713j, abs=1e-8)
        assert r.t2 == pytest.approx(np.conj(r.t1), abs=1e-15)

    def test_roots_continuity_at_zero(self):
        r = sy.roots_t(1.0, 1e-12, DC112, P112.mu)
        assert abs(r.t1 - 1.0) < 1e-9 and abs(r.t2 - 1.0) < 1e-9

    def test_defining_identities(self):
        rng = np.random.default_rng(3)
        xi2, lam = sector_samples(DC112, rng, 2000)
        r = sy.roots_t(xi2, lam, DC112, P112.mu)
        for t, s in [(r.t1, DC112.s1), (r.t2, DC112.s2)]:
            lhs = t * t - xi2 - s * lam
            assert np.max(np.abs(lhs) / np.abs(xi2 + s * lam)) < 1e-13
        lhs = r.omega ** 2 - xi2 - lam / P112.mu
        assert np.max(np.abs(lhs) / np.abs(xi2 + lam / P112.mu)) < 1e-13

    def test_branch_safety_100k(self):
        # Lemma-level sign assertion: all three roots have positive real
        # part for lambda in any sector strictly above sigma_w.
        rng = np.random.default_rng(7)
        for p in PARAM_SETS:
            dc = derive_constants(p)
            xi2, lam = sector_samples(dc, rng, 100_000, sigma_extra=0.01)
            r = sy.roots_t(xi2, lam, dc, p.mu)
            assert np.all(r.omega.real > 0)
            assert np.all(r.t1.real > 0)
            assert np.all(r.t2.real > 0)

    def test_root_property_quartic(self):
        rng = np.random.default_rng(11)
        xi2, lam = sector_samples(DC112, rng, 5000)
        r = sy.roots_t(xi2, lam, DC112, P112.mu)
        scale = np.abs(lam) ** 2 + np.abs(lam) * (np.abs(xi2) + np.abs(
            DC112.s1 * lam))
        for t in [r.t1, r.t2, -r.t1, -r.t2]:
            val = sy.characteristic_poly(t, xi2, lam, P112)
            assert np.max(np.abs(val) / scale) < 1e-11


class TestWholeSpaceSymbol:
    def test_examples(self):
        assert sy.whole_space_symbol_P(0.0, 3.0 + 1j, P112) == (3 + 1j) ** 2
        assert sy.whole_space_symbol_P(1.0, 1.0, P112) == pytest.approx(5.0)
        assert sy.whole_space_symbol_P(1.0, 0.0, P112) == pytest.approx(
            P112.kappa)

    def test_factored_equals_direct(self):
        rng = np.random.default_rng(5)
        for p in PARAM_SETS:
            dc = derive_constants(p)
            xi2, lam = sector_samples(dc, rng, 5000)
            direct = sy.whole_space_symbol_P(xi2, lam, p)
            fact = sy.whole_space_symbol_P_factored(xi2, lam, p, dc)
            assert np.max(np.abs(direct - fact) / np.abs(direct)) < 1e-12


class TestLopatinskii:
    def test_det_two_ways(self):
        rng = np.random.default_rng(13)
        for p in PARAM_SETS:
            dc = derive_constants(p)
            xi2, lam = sector_samples(dc, rng, 10_000, conditioned=True)
            L = sy.lopatinskii(sy.roots_t(xi2, lam, dc, p.mu))
            rel = np.abs(L.det_direct - L.det_factored) / np.abs(L.det_factored)
            assert np.max(rel) < 1e-12

    def test_nonzero_on_right_half_plane(self):
        # Non-degeneracy statement: det L != 0 on the closed right
        # half-plane minus the origin.  The determinant vanishes like
        # lam^2 (|lam|^{1/2}+|xi|)^3 as lam -> 0 (two powers from the
        # lam (t2-t1) factor), so that is the correct scaling.
        rng = np.random.default_rng(17)
        for p in PARAM_SETS:
            dc = derive_constants(p)
            mod = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), 20_000))
            ang = rng.uniform(-np.pi / 2, np.pi / 2, 20_000)
            lam = mod * np.exp(1j * ang)
            xi2 = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), 20_000)) ** 2
            L = sy.lopatinskii(sy.roots_t(xi2, lam, dc, p.mu))
            scale = np.abs(lam) ** 2 * (np.sqrt(np.abs(lam))
                                        + np.sqrt(xi2)) ** 3
            assert np.min(np.abs(L.det_factored) / scale) > 1e-2

    def test_entries_at_zero_tangential(self):
        r = sy.roots_t(0.0, 2.0 + 1j, DC112, P112.mu)
        L = sy.lopatinskii(r)
        assert L.L11 == pytest.approx(r.t2 ** 2, rel=1e-14)
        assert L.L21 == pytest.approx(-r.t1 ** 2, rel=1e-14)


class TestFrakSymbols:
    def test_det_factorization_both_indices(self):
        rng = np.random.default_rng(19)
        for p in PARAM_SETS:
            dc = derive_constants(p)
            xi2, lam = sector_samples(dc, rng, 10_000, conditioned=True)
            roots = sy.roots_t(xi2, lam, dc, p.mu)
            L = sy.lopatinskii(roots)
            fr = sy.frak_symbols(roots)
            for t, l in [(roots.t1, fr.l1), (roots.t2, fr.l2)]:
                lhs = L.det_direct * t * (t + roots.omega)
                rhs = lam * (roots.t2 - roots.t1) * l
                assert np.max(np.abs(lhs - rhs) / np.abs(rhs)) < 1e-12

    def test_p_minus_q(self):
        # Subtracting the two displayed linear forms gives
        # p_j - q_j = 2 (s_j - 1/mu) omega.
        rng = np.random.default_rng(23)
        xi2, lam = sector_samples(DC112, rng, 2000)
        roots = sy.roots_t(xi2, lam, DC112, P112.mu)
        fr = sy.frak_symbols(roots)
        for j, (pj, qj, s) in enumerate([(fr.p1, fr.q1, DC112.s1),
                                         (fr.p2, fr.q2, DC112.s2)], 1):
            expect = 2.0 * (s - 1 / P112.mu) * roots.omega
            assert np.max(np.abs(pj - qj - expect) / np.abs(expect)) < 1e-12

    def test_m_quotient_vs_polynomial(self):
        rng = np.random.default_rng(29)
        xi2, lam = sector_samples(DC112, rng, 5000, conditioned=True)
        roots = sy.roots_t(xi2, lam, DC112, P112.mu)
        keep = (np.abs(roots.t2 - roots.t1)
                > 1e-3 * (np.abs(roots.t1) + np.abs(roots.t2)))
        fr = sy.frak_symbols(roots)
        for j, mj in [(1, fr.m1), (2, fr.m2)]:
            quot = sy.frak_m_quotient(j, roots)
            rel = np.abs(quot - mj) / np.abs(mj)
            assert np.max(rel[keep]) < 1e-10


class TestKernels:
    def roots_at(self, xi2, lam, p=P112, dc=DC112):
        return sy.roots_t(xi2, lam, dc, p.mu)

    def test_zero_at_origin(self):
        r = self.roots_at(1.0, 2.0 + 1j)
        for j in range(3):
            assert kernel(j, 0.0, r) == pytest.approx(0.0, abs=1e-15)

    def test_direct_value(self):
        r = free_exponents(1.5 + 0j, 1.0 + 0j, 2.0 + 0j)
        got = kernel(0, 1.0, r)
        assert got == pytest.approx(np.exp(-2) - np.exp(-1), rel=1e-14)

    def test_coincidence_limit(self):
        # As t2 -> t1 the kernel tends to -x exp(-t1 x); both evaluation
        # paths must agree with the limit.
        t1 = 1.3 + 0.4j
        x = np.linspace(0.0, 8.0, 23)
        for gap in [1e-3, 1e-6]:
            t2 = t1 + gap
            r = free_exponents(2.0 + 0j, t1, t2)
            got = kernel(0, x, r)
            limit = -x * np.exp(-t1 * x)
            tol = 1e-10 if gap == 1e-3 else 1e-9
            assert np.max(np.abs(got - limit)) < max(gap * 10, tol * 10)
        # sharp check at the tightest gap of the acceptance criterion
        r = free_exponents(2.0 + 0j, t1, t1 + 1e-6)
        got = kernel(0, x, r)
        assert np.max(np.abs(got - (-x * np.exp(-t1 * x)))) < 1e-5

    def test_dual_path_overlap_band(self):
        # In the band [eps, 10 eps] the kernel straddles the switch; check
        # the produced value against an independent 32-node quadrature of
        # the integral form (the other path, computed from scratch).
        rng = np.random.default_rng(31)
        x = np.linspace(0.0, 10.0, 41)
        th, w = np.polynomial.legendre.leggauss(32)
        th = 0.5 * (th + 1.0)
        w = 0.5 * w
        for _ in range(50):
            t1 = complex(rng.uniform(0.5, 3), rng.uniform(-1, 1))
            rel_gap = rng.uniform(sy.EPS_SWITCH, 10 * sy.EPS_SWITCH)
            t2 = t1 * (1 + rel_gap)
            exponents = t1 + th * (t2 - t1)
            ref = -x * np.tensordot(
                w, np.exp(-np.multiply.outer(exponents, x)), axes=(0, 0))
            r = free_exponents(2.0 + 0j, t1, t2)
            got = kernel(0, x, r)
            scale = np.max(np.abs(ref))
            assert np.max(np.abs(got - ref)) / scale < 1e-10

    def test_batch_mixing_near_and_far_modes(self):
        # |xi'|^2 >> |lam| brings omega, t1 and t2 together: the first 9
        # modes lie outside the EPS_SWITCH band of every kernel, the other
        # 16 inside; each mode of the batch equals that mode alone
        r = self.roots_at(np.logspace(0.0, 12.0, 25), 10.0 * np.exp(0.5j))
        x = np.linspace(0.0, 10.0, 41)
        for j, (a, b) in enumerate([(r.t1, r.t2), (r.omega, r.t1),
                                    (r.omega, r.t2)]):
            near = np.abs(b - a) <= sy.EPS_SWITCH * (np.abs(a) + np.abs(b))
            assert near.tolist() == [False] * 9 + [True] * 16
            batch = kernel(j, x, r)
            for k in range(25):
                one = dataclasses.replace(
                    r, xi2=r.xi2[k:k + 1], omega=r.omega[k:k + 1],
                    t1=r.t1[k:k + 1], t2=r.t2[k:k + 1])
                assert np.array_equal(kernel(j, x, one)[0], batch[k]), (j, k)

    @staticmethod
    def kernel_derivative(j, x, r):
        """dM_j/dx_N by the channel recurrence the solvers use."""
        return ChannelProfile({f"M{j}": 1.0}).derivative(r).evaluate(r, x)

    def test_derivative_at_zero(self):
        r = self.roots_at(1.0, 2.0 + 1j)
        assert self.kernel_derivative(0, 0.0, r) == pytest.approx(
            -1.0, abs=1e-14)
        for j in (1, 2):
            got = self.kernel_derivative(j, 0.0, r)
            assert got == pytest.approx(-complex(r.r_frak(j)), rel=1e-13)

    def test_derivative_matches_finite_difference(self):
        rng = np.random.default_rng(37)
        xi2, lam = sector_samples(DC112, rng, 30)
        r = self.roots_at(xi2, lam)
        x = rng.uniform(0.2, 3.0, 30)
        h = 1e-6
        for j in range(3):
            fd = (kernel(j, x + h, r) - kernel(j, x - h, r)) / (2 * h)
            got = self.kernel_derivative(j, x, r)
            # diagonal of the modes-by-samples arrays
            fd = np.diagonal(fd) if fd.ndim == 2 else fd
            got_d = np.diagonal(got) if got.ndim == 2 else got
            assert np.max(np.abs(got_d - fd)) < 1e-8


def test_kernel_paths_agree_on_mode_arrays():
    rng = np.random.default_rng(41)
    xi2 = np.exp(rng.uniform(-2, 2, 64))
    lam = 10.0 * np.exp(1j * rng.uniform(-2, 2, 64))
    r = sy.roots_t(xi2, lam, DC112, P112.mu)
    x = np.linspace(0, 10, 17)
    out = kernel(0, x, r)
    assert out.shape == (64, 17)
