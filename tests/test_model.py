import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from korteweg.errors import EtaVanishes, KappaEqualsMuNu, NonPositiveCoefficient
from korteweg.model import (MaterialParams, Sector, boundary_rows,
                            derive_constants, interior_rows, jth,
                            mode_derivative, validate)
from korteweg.wholespace import (BoxGrid, WholeField, apply_lhs,
                                 band_limited_field)

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


def test_index_j_picks_the_branch_and_rejects_others():
    dc = derive_constants(MaterialParams(1, 2, 1))
    assert (dc.s(1), dc.s(2)) == (dc.s1, dc.s2)
    for j in (0, 3):
        with pytest.raises(ValueError):
            jth(j, "first", "second")
        with pytest.raises(ValueError):
            dc.s(j)


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
    assert sec.contains(1.0)
    assert not sec.contains(-1.0)
    assert not sec.contains(0.4j)
    assert sec.contains(0.6j)


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


class TestOperatorRows:
    """The one definition of the four rows, against independent forms."""

    @pytest.mark.parametrize("dim,m", [(2, 64), (3, 16)])
    def test_interior_rows_match_whole_space_lhs(self, dim, m):
        grid = BoxGrid(dim=dim, points_per_axis=m, period=20.0)
        rng = np.random.default_rng(7)
        p = MaterialParams(1.3, 0.7, 2.1)
        lam = 3.0 + 2.0j
        rho = band_limited_field(grid, rng, kmax=m // 4)
        u = band_limited_field(grid, rng, kmax=m // 4, components=dim)
        axes = tuple(range(1, dim + 1))
        coeffs = {"rho": np.fft.fftn(rho)}
        coeffs.update(enumerate(np.fft.fftn(u, axes=axes)))
        mesh = grid.freq_mesh()

        def D(which, orders):
            hat = coeffs[which]
            for axis, k in enumerate(orders):
                hat = hat * (1j * mesh[axis]) ** k
            return np.fft.ifftn(hat)

        mass, momentum = interior_rows(D, lam, p, dim, 0.0)
        mass_ref, momentum_ref = apply_lhs(WholeField(grid, rho, u), lam, p)
        assert np.max(np.abs(mass - mass_ref)) \
            <= 1e-13 * np.max(np.abs(mass_ref))
        assert np.max(np.abs(np.stack(momentum) - momentum_ref)) \
            <= 1e-13 * np.max(np.abs(momentum_ref))

    def test_rows_of_one_mode_with_gamma(self):
        # rho = A e^{-a x}, u_1 = B e^{-b x}, u_2 = C e^{-c x}, all times
        # e^{i xi y}: d_y is i xi and d_x multiplies by minus the rate
        p = MaterialParams(1.3, 0.7, 2.1, 0.4)
        mu, nu, kappa, gamma = p.mu, p.nu, p.kappa, p.gamma
        lam, xi = 3.0 + 2.0j, 1.7
        A, B, C = 0.8 - 0.3j, -0.5 + 1.1j, 0.9 + 0.2j
        a, b, c = 1.1 + 0.3j, 0.9, 1.6 - 0.4j
        x = np.linspace(0.0, 2.0, 5)
        Ea, Eb, Ec = np.exp(-a * x), np.exp(-b * x), np.exp(-c * x)
        amp = {"rho": (A, a), 0: (B, b), 1: (C, c)}
        D = mode_derivative(
            (xi,), lambda w, k: amp[w][0] * (-amp[w][1]) ** k
            * np.exp(-amp[w][1] * x))

        mass, (mom1, mom2) = interior_rows(D, lam, p, 2, gamma)
        (stress1, stress2), neumann = boundary_rows(D, p, 2, gamma)

        expected = {
            "mass": lam * A * Ea + 1j * xi * B * Eb - c * C * Ec,
            "mom1": ((lam + (mu + nu) * xi ** 2 - mu * b ** 2) * B * Eb
                     + 1j * nu * xi * c * C * Ec
                     + 1j * xi * (gamma - kappa * (a ** 2 - xi ** 2))
                     * A * Ea),
            "mom2": ((lam + mu * xi ** 2 - (mu + nu) * c ** 2) * C * Ec
                     + 1j * nu * xi * b * B * Eb
                     + a * (kappa * (a ** 2 - xi ** 2) - gamma) * A * Ea),
            "stress1": mu * b * B * Eb - 1j * mu * xi * C * Ec,
            "stress2": ((mu + nu) * c * C * Ec
                        - 1j * (nu - mu) * xi * B * Eb
                        + (gamma - kappa * (a ** 2 - xi ** 2)) * A * Ea),
            "neumann": a * A * Ea,
        }
        got = {"mass": mass, "mom1": mom1, "mom2": mom2,
               "stress1": stress1, "stress2": stress2, "neumann": neumann}
        for name, ref in expected.items():
            assert np.max(np.abs(got[name] - ref)) \
                <= 1e-13 * np.max(np.abs(ref)), name
