import math

import numpy as np
import pytest

from korteweg import certify, symbols
from korteweg.certify import (Certificate, GridSpec, _step_sizes,
                              certify_multiplier, certify_registry,
                              empirical_sigma_star, scan_lower_bound,
                              symbol_registry)
from korteweg.errors import DerivativeStepUnderflow, EmptyGrid
from korteweg.model import (LAM_REL_STEP, MaterialParams, Sector,
                            derive_constants)
from korteweg.verification import lambda_derivative_family

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

    def test_empirical_sigma_star(self):
        for p in PARAM_SETS:
            dc = derive_constants(p)
            ss = empirical_sigma_star(p, "l1", dc=dc)
            assert dc.sigma_w < ss < math.pi / 2


class TestCertify:
    def sector(self):
        return Sector(DC.sigma_w + 0.25, 0.0)

    def test_constant_symbol(self):
        cert = certify_multiplier(lambda xi, lam: np.ones_like(lam), "one",
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

    def test_step_underflow_guard(self):
        xi = np.array([[1.0]])
        lam = np.array([1.0 + 0j])
        h = _step_sizes(xi, lam)
        assert h[0] > 0
        with pytest.raises(DerivativeStepUnderflow):
            _step_sizes(xi, lam, factor=1e-20)

    def test_certificate_json_round_trip(self):
        cert = Certificate(symbol_id="t1", claimed_order=1.0,
                           claimed_type=1, sector=self.sector(),
                           grid_spec=GridSpec(4, 3, 4),
                           estimated_constant=2.5, max_alpha=2)
        import json
        blob = json.loads(cert.to_json_str())
        assert blob["symbol_id"] == "t1" and blob["C"] == 2.5

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


def stencil_points(sector, dim):
    """Sector grid points (rim angles included) and the stencil points
    around them: xi' offsets 0, +-h/2, +-h, +-2h times lam factors 1,
    1 +- eps/2, 1 +- eps, as the nested differences of certify_multiplier
    visit."""
    xi, lam = GridSpec(8, 5, 8).points(sector)
    xi_vec = np.zeros((dim, xi.size))
    xi_vec[0] = xi
    if dim == 2:
        xi_vec[1] = 0.5 * xi
    h = _step_sizes(xi_vec, lam)
    xs, lams = [], []
    for off in (0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0):
        for fac in (1.0, 1 + LAM_REL_STEP / 2, 1 - LAM_REL_STEP / 2,
                    1 + LAM_REL_STEP, 1 - LAM_REL_STEP):
            shifted = xi_vec.copy()
            shifted[0] = shifted[0] + off * h
            xs.append(shifted)
            lams.append(lam * fac)
    return np.concatenate(xs, axis=1), np.concatenate(lams)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("p", [PARAM_SETS[0], PARAM_SETS[3]],
                         ids=["eta<0", "eta>0"])
def test_registry_matches_bundle_bit_for_bit(p, dim):
    dc = derive_constants(p)
    xi_vec, lam = stencil_points(Sector(dc.sigma_w + 0.05, 0.0), dim)
    xi2 = np.sum(xi_vec ** 2, axis=0)
    roots = symbols.roots_t(xi2, lam, dc, p.mu, check=False)
    fr = symbols.frak_symbols(xi2, lam, dc, p, roots)
    reg = symbol_registry(p, dc)
    assert len(reg) - len(ELEMENTARY) == 22
    for name, (fn, _, _) in reg.items():
        if name not in ELEMENTARY:
            assert np.array_equal(fn(xi_vec, lam),
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


def test_certify_registry_is_the_sigma_star_sweep():
    sigma_star, sec, certs = certify_registry(P, DC, names=["p1"],
                                              max_alpha=1)
    assert sigma_star == empirical_sigma_star(P, "l1", dc=DC)
    assert sec == Sector(min(sigma_star + 0.1, 1.45), 0.0)
    fn, order, typ = symbol_registry(P, DC)["p1"]
    assert certs == [certify_multiplier(fn, "p1", order, typ, sec, P,
                                        max_alpha=1)]


def test_certify_registry_refuses_unknown_names():
    with pytest.raises(ValueError, match=r"unknown symbols \['nope'\]"):
        certify_registry(P, DC, names=["p1", "nope"])


@pytest.mark.parametrize("name", ["l1", "r2", "omega^-1"])
def test_lambda_dilation_is_the_verification_rule(name):
    # certify and the R-bound derivative families share one lam d/dlam
    # rule: per lam, the dilation of a registry closure on a xi grid equals
    # lambda_derivative_family of the same closure, bit for bit
    fn, _, _ = symbol_registry(P, DC)[name]
    xi_vec = np.logspace(-2, 2, 9)[None, :]
    for lam in (3.0 + 0.0j, 40.0 * np.exp(1.2j), 2e3 * np.exp(-2.0j)):
        lams = np.full(xi_vec.shape[1], lam)
        dilated = certify._lambda_dilation(fn)(xi_vec, lams)
        ref = lambda_derivative_family(
            lambda z: fn(xi_vec, np.full(xi_vec.shape[1], z)), lam)
        assert np.array_equal(dilated, ref)
