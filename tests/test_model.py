import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from korteweg.errors import EtaVanishes, KappaEqualsMuNu, NonPositiveCoefficient
from korteweg.model import (MaterialParams, Sector, derive_constants,
                            sector_contains, validate)

positive = st.floats(min_value=1e-2, max_value=1e2)


def test_validate_examples():
    v = validate(MaterialParams(1, 1, 2))
    assert v.ok and v.failures == ()

    v = validate(MaterialParams(1, 1, 1))
    assert not v.ok
    assert EtaVanishes in v.failures and KappaEqualsMuNu in v.failures

    v = validate(MaterialParams(-1, 1, 1))
    assert v.failures == (NonPositiveCoefficient,)


def test_derive_constants_conjugate_case():
    dc = derive_constants(MaterialParams(1, 1, 2))
    assert dc.eta_w == pytest.approx(-0.25, abs=1e-15)
    assert dc.sigma_w == pytest.approx(math.pi / 4, abs=1e-15)
    assert dc.s1 == pytest.approx(0.5 + 0.5j, abs=1e-15)
    assert dc.s2 == pytest.approx(0.5 - 0.5j, abs=1e-15)


def test_derive_constants_real_case():
    dc = derive_constants(MaterialParams(1, 2, 1))
    assert dc.eta_w == pytest.approx(1.25, abs=1e-15)
    assert dc.sigma_w == 0.0
    assert dc.s1.real == pytest.approx(1.5 + math.sqrt(1.25), rel=1e-15)
    assert dc.s2.real == pytest.approx(1.5 - math.sqrt(1.25), rel=1e-15)
    assert dc.s1.real > dc.s2.real > 0
    assert dc.s1 * dc.s2 == pytest.approx(1.0, rel=1e-14)


@settings(max_examples=200, deadline=None)
@given(mu=positive, nu=positive, kappa=positive)
def test_vieta_identities(mu, nu, kappa):
    p = MaterialParams(mu, nu, kappa)
    if not validate(p).ok:
        return
    dc = derive_constants(p)
    trace = (mu + nu) / kappa
    assert abs(dc.s1 + dc.s2 - trace) <= 1e-14 * trace
    assert abs(dc.s1 * dc.s2 - 1.0 / kappa) <= 1e-14 / kappa
    if dc.eta_w > 0:
        assert dc.s1.imag == 0 and dc.s2.imag == 0
        assert dc.s1.real > dc.s2.real > 0
    else:
        assert dc.s2 == dc.s1.conjugate()
        assert dc.s1.real == pytest.approx((mu + nu) / (2 * kappa), rel=1e-14)
    # sigma_w consistency
    assert (dc.sigma_w == 0.0) == (dc.eta_w >= 0)


def test_vieta_thousand_random_draws():
    rng = np.random.default_rng(42)
    count = 0
    while count < 1000:
        mu, nu, kappa = np.exp(rng.uniform(-2, 2, 3))
        p = MaterialParams(mu, nu, kappa)
        if not validate(p).ok:
            continue
        dc = derive_constants(p)
        trace = (mu + nu) / kappa
        assert abs(dc.s1 + dc.s2 - trace) <= 1e-14 * trace
        assert abs(dc.s1 * dc.s2 - 1 / kappa) <= 1e-14 / kappa
        count += 1


def test_kappa_equals_mu_nu_is_root_coincidence():
    # kappa = mu*nu exactly when one branch root equals 1/mu; as kappa
    # approaches mu*nu the distance |s_j - 1/mu| goes to zero with it.
    mu, nu = 1.0, 2.0
    gaps = []
    for eps in [1e-2, 1e-4, 1e-6, 1e-8]:
        p = MaterialParams(mu, nu, mu * nu * (1 + eps))
        dc = derive_constants(p)
        gaps.append(min(abs(dc.s1 - 1 / mu), abs(dc.s2 - 1 / mu)))
    ratios = [gaps[i] / gaps[i + 1] for i in range(3)]
    for r in ratios:
        assert 50 < r < 200  # gap shrinks linearly with |kappa - mu nu|


def test_sector_membership():
    sec = Sector(math.pi / 4, 0.5)
    assert sector_contains(sec, 1.0)
    assert not sector_contains(sec, -1.0)
    assert not sector_contains(sec, 0.4j)
    assert sector_contains(sec, 0.6j)


def test_sector_validation():
    with pytest.raises(ValueError):
        Sector(0.0, 0.0)
    with pytest.raises(ValueError):
        Sector(math.pi / 4, -1.0)


def test_params_json_round_trip():
    p = MaterialParams.from_json({"mu": 1, "nu": 2, "kappa": 1, "gamma": 0.5})
    assert p.mu == 1.0 and p.gamma == 0.5
    p2 = MaterialParams.from_json(p.to_json())
    assert p == p2
    with pytest.raises(ValueError):
        MaterialParams.from_json({"mu": 1, "nu": 1, "kappa": 1, "bogus": 3})
    # the system is already rescaled; a reference density is not an input
    with pytest.raises(ValueError):
        MaterialParams.from_json({"mu": 1, "nu": 1, "kappa": 2, "rho_ref": 2})
    with pytest.raises(ValueError):
        MaterialParams.from_json({"mu": float("nan"), "nu": 1, "kappa": 1})
