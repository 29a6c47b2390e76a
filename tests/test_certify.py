import gc
import math
import weakref

import mpmath as mp
import numpy as np
import pytest

from korteweg import certify, symbols
from korteweg.certify import (Certificate, GridSpec, Jet,
                              certify_multiplier, certify_registry,
                              empirical_sigma_star, jet_derivatives,
                              scan_lower_bound, symbol_registry)
from korteweg.errors import BranchCutHit, EmptyGrid
from korteweg.model import (MaterialParams, Sector, default_sigma,
                            derive_constants)

from paramsets import ACCEPTANCE_SETS

P = MaterialParams(1.0, 1.0, 2.0)
DC = derive_constants(P)

PARAM_SETS = ACCEPTANCE_SETS


class TestScans:
    def test_empty_grid_rejected(self):
        with pytest.raises(EmptyGrid):
            GridSpec(n_lambda=0).points(Sector(1.0, 0.0))

    def test_p_scan_positive_and_stable(self):
        grid = GridSpec()
        for sigma in (DC.sigma_w + 0.1, math.pi / 3):
            sec = Sector(sigma, 0.0)
            r = scan_lower_bound("P", sec, grid, P, DC)
            r2 = scan_lower_bound("P", sec, grid.refine(2), P, DC)
            assert r.constant > 0
            assert abs(r2.constant - r.constant) <= 0.10 * r.constant

    def test_re_omega_positive(self):
        for sigma in (0.3, 0.8, 1.4):
            r = scan_lower_bound("re_omega", Sector(sigma, 0.0), GridSpec(),
                                 P, DC)
            assert r.constant > 0

    def test_re_roots_positive(self):
        sec = Sector(DC.sigma_w + 0.2, 0.0)
        for target in ("re_t1", "re_t2"):
            r = scan_lower_bound(target, sec, GridSpec(), P, DC)
            assert r.constant > 0

    def test_l_scan_positive_and_stable_all_sets(self):
        grid = GridSpec()
        for p in PARAM_SETS:
            dc = derive_constants(p)
            sec = Sector(dc.sigma_w + 0.2, 0.0)
            for target in ("l1", "l2"):
                r = scan_lower_bound(target, sec, grid, p, dc)
                r2 = scan_lower_bound(target, sec, grid.refine(2), p, dc)
                assert r.constant > 0
                assert abs(r2.constant - r.constant) <= 0.10 * r.constant

    def test_det_scan_matches_l1_scan(self):
        sec = Sector(DC.sigma_w + 0.3, 0.0)
        grid = GridSpec(20, 7, 20)
        det = scan_lower_bound("detL", sec, grid, P, DC)
        l1 = scan_lower_bound("l1", sec, grid, P, DC)
        assert det.constant == pytest.approx(l1.constant, rel=1e-9)

    def test_scan_json(self):
        r = scan_lower_bound("P", Sector(1.0, 0.0), GridSpec(8, 3, 8), P, DC)
        blob = r.to_json()
        assert blob["target"] == "P" and blob["C"] > 0

    def test_unknown_target_refused_before_evaluation(self, monkeypatch):
        def roots_t(*args, **kwargs):
            raise AssertionError("roots_t evaluated")

        monkeypatch.setattr(certify, "roots_t", roots_t)
        with pytest.raises(ValueError, match=r"unknown scan target 'l3'; "
                           r"the targets are \('P', 're_omega'"):
            scan_lower_bound("l3", Sector(1.0, 0.0), GridSpec(4, 3, 4), P,
                             DC)

    def test_empirical_sigma_star(self):
        for p in PARAM_SETS:
            dc = derive_constants(p)
            ss = empirical_sigma_star(p, "l1", dc=dc)
            assert dc.sigma_w < ss < math.pi / 2


class TestCertify:
    def sector(self):
        return Sector(DC.sigma_w + 0.25, 0.0)

    def test_constant_symbol(self):
        cert = certify_multiplier(lambda xi, lam: 1.0 + 0.0 * lam, "one",
                                  0.0, 1, self.sector(), P)
        assert cert.estimated_constant == pytest.approx(1.0, abs=1e-9)

    def test_coordinate_symbol(self):
        reg = symbol_registry(P, DC)
        fn, s, ty = reg["xi_j"]
        cert = certify_multiplier(fn, "xi_j", s, ty, self.sector(), P)
        assert cert.estimated_constant == pytest.approx(1.0, abs=1e-7)

    def test_omega_powers_finite(self):
        reg = symbol_registry(P, DC)
        for s in (-2, -1, 1, 2):
            fn, order, ty = reg[f"omega^{s}"]
            cert = certify_multiplier(fn, f"omega^{s}", order, ty,
                                      self.sector(), P,
                                      grid=GridSpec(10, 5, 10))
            assert np.isfinite(cert.estimated_constant)
            assert cert.estimated_constant > 0

    def test_type2_symbol(self):
        reg = symbol_registry(P, DC)
        fn, s, ty = reg["xi_over_abs"]
        cert = certify_multiplier(fn, "xi_over_abs", s, ty, self.sector(),
                                  P, grid=GridSpec(10, 5, 10))
        assert ty == 2 and np.isfinite(cert.estimated_constant)

    def test_xi_over_abs_is_constant(self):
        # xi'/|xi'| is 1 for one tangential dimension: every derivative
        # vanishes, so the constant is the value's
        fn, s, ty = symbol_registry(P, DC)["xi_over_abs"]
        cert = certify_multiplier(fn, "xi_over_abs", s, ty, self.sector(), P)
        assert cert.estimated_constant == pytest.approx(1.0, abs=1e-12)
        for key, ratio in cert.detail.items():
            if "alpha=(0,)" not in key:
                assert ratio <= 1e-12, key

    def test_certificate_json_round_trip(self):
        cert = Certificate(symbol_id="t1", claimed_order=1.0,
                           claimed_type=1, sector=self.sector(),
                           grid_spec=GridSpec(4, 3, 4),
                           estimated_constant=2.5, max_alpha=2,
                           argmax={"n": 1, "alpha": [0], "xi": 0.5,
                                   "lambda": [1.0, -2.0]})
        import json
        blob = json.loads(cert.to_json_str())
        assert blob["symbol_id"] == "t1" and blob["C"] == 2.5
        assert blob["argmax"] == cert.argmax

    def test_argmax_is_where_the_constant_is_reached(self):
        # the entry argmax names holds C, and its ratio recomputed at the
        # grid point argmax names is C
        fn, order, typ = symbol_registry(P, DC)["t1"]
        grid = GridSpec(8, 5, 8)
        cert = certify_multiplier(fn, "t1", order, typ, self.sector(), P,
                                  grid=grid)
        where = cert.argmax
        n, (a,) = where["n"], where["alpha"]
        assert cert.detail[f"n={n},alpha={(a,)}"] == cert.estimated_constant
        xi = np.array([where["xi"]])
        lam = np.array([complex(*where["lambda"])])
        deriv = jet_derivatives(fn, xi, lam, cert.max_alpha)
        bound = (np.sqrt(np.abs(lam)) + xi) ** (order - a)
        assert abs(deriv[a, n, 0]) / bound[0] == pytest.approx(
            cert.estimated_constant, rel=1e-12)
        assert cert.to_json()["argmax"] == where

    def test_rejects_bad_type(self):
        with pytest.raises(ValueError):
            certify_multiplier(lambda xi, lam: lam, "x", 1.0, 3,
                               self.sector(), P)

    def test_rejects_negative_max_alpha(self):
        # no derivative order would be checked, leaving C = 0
        with pytest.raises(ValueError, match="max_alpha"):
            certify_multiplier(lambda xi, lam: lam, "x", 1.0, 1,
                               self.sector(), P, max_alpha=-1)


# registry entries that read no exponent
ELEMENTARY = {"xi_j", "sqrt_lambda", "xi_sq", "lambda", "xi_over_abs"}


def bundle_value(name, roots, fr):
    """The roots_t / frak_symbols quantity a registry entry certifies."""
    if name.startswith("omega^"):
        return roots.omega ** int(name[len("omega^"):])
    if name.endswith("+omega"):
        return getattr(roots, name[:2]) + roots.omega
    if name.endswith("_inv"):
        return 1.0 / getattr(fr, name[:2])
    if name in ("t1", "t2"):
        return getattr(roots, name)
    if name in ("r1", "r2"):
        return roots.r_frak(int(name[1]))
    return getattr(fr, name)


@pytest.mark.parametrize("refine", [1, 2])
@pytest.mark.parametrize("p", [PARAM_SETS[0], PARAM_SETS[3]],
                         ids=["eta<0", "eta>0"])
def test_registry_matches_bundle_bit_for_bit(p, refine):
    # sector grid points, rim angles included, at two densities
    dc = derive_constants(p)
    xi, lam = GridSpec(8, 5, 8).refine(refine).points(
        Sector(dc.sigma_w + 0.05, 0.0))
    roots = symbols.roots_t(xi * xi, lam, dc, p.mu)
    fr = symbols.frak_symbols(roots)
    reg = symbol_registry(p, dc)
    assert len(reg) - len(ELEMENTARY) == 22
    for name, (fn, _, _) in reg.items():
        if name not in ELEMENTARY:
            assert np.array_equal(fn(xi, lam),
                                  bundle_value(name, roots, fr)), name


def test_single_symbols_never_evaluate_the_bundle(monkeypatch):
    def bundle(*args, **kwargs):
        raise AssertionError("frak_symbols evaluated")

    for module in (symbols, certify):
        monkeypatch.setattr(module, "frak_symbols", bundle, raising=False)
    reg = symbol_registry(P, DC)
    sec = Sector(DC.sigma_w + 0.25, 0.0)
    for name in ("p1", "l1_inv"):
        fn, order, typ = reg[name]
        cert = certify_multiplier(fn, name, order, typ, sec, P,
                                  grid=GridSpec(6, 3, 6))
        assert np.isfinite(cert.estimated_constant)
    assert scan_lower_bound("l1", sec, GridSpec(6, 3, 6), P, DC).constant > 0


@pytest.mark.parametrize("p", [PARAM_SETS[0], PARAM_SETS[3]],
                         ids=["eta<0", "eta>0"])
def test_shared_exponents_leave_certificates_unchanged(p):
    dc = derive_constants(p)
    sec = Sector(dc.sigma_w + 0.1, 0.0)
    grid = GridSpec(6, 3, 6)
    shared = symbol_registry(p, dc)
    assert len(shared) == 27
    for name, (fn, order, typ) in shared.items():
        alone, _, _ = symbol_registry(p, dc)[name]
        assert certify_multiplier(fn, name, order, typ, sec, p, grid) == \
            certify_multiplier(alone, name, order, typ, sec, p, grid), name


def counted_roots_t(monkeypatch):
    """Patch the registry's ``roots_t`` with one that records each
    ``RootSet`` it returns; returns that list."""
    made = []
    roots_t = certify.roots_t

    def counted(*args, **kwargs):
        made.append(roots_t(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(certify, "roots_t", counted)
    return made


def test_each_certificate_evaluates_its_symbol_once(monkeypatch):
    # each closure runs once per certificate, and a registry evaluates
    # the exponents once per point set: once in a sweep at one grid and
    # sector, and once more in a sweep at a second sector
    roots_made = counted_roots_t(monkeypatch)
    reg = symbol_registry(P, DC)
    for sweep, extra in enumerate((0.25, 0.35), start=1):
        sec = Sector(DC.sigma_w + extra, 0.0)
        for name, (fn, order, typ) in reg.items():
            calls = []

            def counted(xi, lam, fn=fn):
                calls.append(1)
                return fn(xi, lam)

            certify_multiplier(counted, name, order, typ, sec, P,
                               GridSpec(6, 3, 6), max_alpha=3)
            assert len(calls) == 1, name
        assert len(roots_made) == sweep


def test_mpmath_values_recompute_the_roots(monkeypatch):
    # numpy jets fill the slot; mpmath values of the same point are
    # never matched against it, so the roots are computed again from them,
    # and mpmath values of a second point are not matched against those
    made = []

    def roots_t(xi2, lam, dc, mu):
        made.append(1)
        if isinstance(xi2, Jet):
            return symbols.roots_t(xi2, lam, dc, mu)
        return mp_roots_t(xi2, lam, dc, mu)

    monkeypatch.setattr(certify, "roots_t", roots_t)
    fn, _, _ = symbol_registry(P, DC)["t1"]
    xi, lam = np.array([0.7]), np.array([2.0 + 1.5j])
    jets = jet_derivatives(fn, xi, lam, 2)
    assert len(made) == 1
    with mp.workdps(40):
        value = fn(mp.mpf(xi[0]), mp.mpc(lam[0]))
    assert isinstance(value, mp.mpc) and len(made) == 2
    assert complex(value) == pytest.approx(jets[0, 0, 0], rel=1e-15)
    with mp.workdps(40):
        other = fn(mp.mpf(1.3), mp.mpc(lam[0]))
    assert len(made) == 3
    assert complex(other) == pytest.approx(
        jet_derivatives(fn, np.array([1.3]), lam, 2)[0, 0, 0], rel=1e-15)


def test_second_point_set_releases_the_first_roots(monkeypatch):
    roots_made = counted_roots_t(monkeypatch)
    fn, _, _ = symbol_registry(P, DC)["m1"]
    grid = GridSpec(6, 3, 6)
    for extra in (0.25, 0.35):
        xi, lam = grid.points(Sector(DC.sigma_w + extra, 0.0))
        jet_derivatives(fn, xi, lam, 2)
    first = weakref.ref(roots_made.pop(0))
    gc.collect()
    assert len(roots_made) == 1 and first() is None


def test_certify_registry_is_the_sigma_star_sweep():
    sigma_star, sec, certs = certify_registry(P, names=["p1"], max_alpha=1)
    assert sigma_star == empirical_sigma_star(P, "l1", dc=DC)
    assert sec == Sector(default_sigma(sigma_star, 0.1), 0.0)
    assert sec.sigma == sigma_star + 0.1
    fn, order, typ = symbol_registry(P, DC)["p1"]
    assert certs == [certify_multiplier(fn, "p1", order, typ, sec, P,
                                        max_alpha=1)]


def test_certify_registry_sector_lies_above_sigma_star_near_pi_half():
    # sigma_w = 1.4706: sigma* + 0.1 is within 1e-4 of pi/2, and the
    # sector must still lie above sigma*, where P has no zero ray
    p = MaterialParams(0.1, 0.1, 1.0)
    sigma_star, sec, certs = certify_registry(p, names=["t1"], max_alpha=1)
    assert derive_constants(p).sigma_w < sigma_star < sec.sigma < math.pi / 2
    assert np.isfinite(certs[0].estimated_constant)


def test_jet_on_the_branch_cut_is_refused():
    # on (1, 2, 0.5) s1 and s2 are real and positive, so at xi = 0 and
    # lam = -1 both t1 = sqrt(-s1) and omega = sqrt(-1/mu) lie on the cut
    fn, _, _ = symbol_registry(MaterialParams(1.0, 2.0, 0.5))["t1"]
    with pytest.raises(BranchCutHit):
        jet_derivatives(fn, np.array([0.0]), np.array([-1.0 + 0j]), 2)


def test_certify_registry_refuses_unknown_names():
    with pytest.raises(ValueError, match=r"unknown symbols \['nope'\]"):
        certify_registry(P, names=["p1", "nope"])


def mp_roots_t(xi2, lam, dc, mu):
    """roots_t at mpmath precision: the three principal square roots."""
    return symbols.RootSet(xi2=xi2, lam=lam, omega=mp.sqrt(xi2 + lam / mu),
                           t1=mp.sqrt(xi2 + dc.s1 * lam),
                           t2=mp.sqrt(xi2 + dc.s2 * lam),
                           s1=dc.s1, s2=dc.s2, mu=mu)


@pytest.mark.parametrize("p", [PARAM_SETS[0], PARAM_SETS[2]],
                         ids=["eta<0", "eta>0"])
def test_jet_derivatives_match_mpmath(p, monkeypatch):
    # at the argmax of every certificate entry of every exponent-reading
    # symbol, the jet derivative equals a 40-digit mpmath derivative of
    # the same closure, relative to the larger of its size and the bound
    # there (mixed derivatives of omega^2 vanish exactly)
    dc = derive_constants(p)
    xi, lam = GridSpec(20, 7, 20).points(Sector(dc.sigma_w + 0.1, 0.0))
    denom = np.sqrt(np.abs(lam)) + xi
    reg = symbol_registry(p, dc)
    derivs = {name: jet_derivatives(fn, xi, lam, 2)
              for name, (fn, _, _) in reg.items() if name not in ELEMENTARY}
    monkeypatch.setattr(certify, "roots_t", mp_roots_t)
    with mp.workdps(40):
        for name, deriv in derivs.items():
            fn, order, _ = reg[name]
            for a in range(3):
                for n in (0, 1):
                    bound = denom ** (order - a)
                    k = int(np.argmax(np.abs(deriv[a, n]) / bound))
                    lam0 = mp.mpc(lam[k])
                    exact = complex(mp.diff(
                        lambda x, s: fn(x, lam0 * mp.exp(s)),
                        (mp.mpf(xi[k]), 0), (a, n)))
                    err = abs(deriv[a, n, k] - exact)
                    assert err <= 1e-10 * max(abs(exact), bound[k]), \
                        (name, a, n, deriv[a, n, k], exact)
