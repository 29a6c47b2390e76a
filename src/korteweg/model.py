"""Physical parameters, derived spectral constants, the resolvent sector,
the radial lam d/dlam difference rule, and the rows of the resolvent
system (each written once, for every caller).

The model carries four coefficients of the rescaled system (reference
density 1): two viscosities ``mu``, ``nu``, a capillary coefficient
``kappa`` and a pressure-gradient coefficient ``gamma``.

The characteristic quadratic  s^2 - ((mu+nu)/kappa) s + 1/kappa = 0  has
roots s1 (plus branch), s2 (minus branch); the discriminant-like quantity

    eta_w = ((mu+nu)/(2 kappa))^2 - 1/kappa

decides whether they are real (eta_w > 0) or complex conjugate (eta_w < 0).
The limiting sector angle ``sigma_w`` is 0 in the real case and
arg((mu+nu)/(2 kappa) + i sqrt(|eta_w|)) otherwise.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import (EtaVanishes, KappaEqualsMuNu, NonPositiveCoefficient,
                     StepOutsideSector)

# Relative tolerance for the exact-zero admissibility tests.  Exact-zero
# conditions are measure-zero; near-violations make the boundary symbols
# ill-conditioned, so reject early.
ZERO_TOL = 1e-13

# relative distance Sector.sample keeps from the modulus floor and the rim
SAMPLE_MARGIN = 1e-3

# relative radial step of every lam d/dlam difference
LAM_REL_STEP = 1e-5


def jth(j: int, first, second):
    """``first`` for j = 1, ``second`` for j = 2; any other j is an error."""
    if j == 1:
        return first
    if j == 2:
        return second
    raise ValueError(f"index j must be 1 or 2, got {j!r}")


@dataclass(frozen=True)
class MaterialParams:
    """Coefficients of the rescaled resolvent system (all immutable)."""

    mu: float
    nu: float
    kappa: float
    gamma: float = 0.0

    @classmethod
    def from_json(cls, obj: dict | str) -> "MaterialParams":
        """Build from a JSON object with keys mu, nu, kappa, gamma."""
        if isinstance(obj, str):
            obj = json.loads(obj)
        known = {"mu", "nu", "kappa", "gamma"}
        unknown = set(obj) - known
        if unknown:
            raise ValueError(f"unknown parameter keys: {sorted(unknown)}")
        vals = {k: float(obj[k]) for k in obj}
        for k, v in vals.items():
            if not math.isfinite(v):
                raise ValueError(f"parameter {k} is not a finite number")
        return cls(**vals)

    def to_json(self) -> dict:
        return {
            "mu": self.mu,
            "nu": self.nu,
            "kappa": self.kappa,
            "gamma": self.gamma,
        }


@dataclass(frozen=True)
class DerivedConstants:
    """Spectral constants derived from admissible parameters.

    ``s1`` is fixed to the plus branch and ``s2`` to the minus branch; the
    boundary-coefficient formulas distinguish the two indices, so the
    ordering is part of the contract.
    """

    eta_w: float
    sigma_w: float
    s1: complex
    s2: complex

    def s(self, j: int) -> complex:
        """The branch root s_j, j = 1 or 2."""
        return jth(j, self.s1, self.s2)


@dataclass(frozen=True)
class Sector:
    """The resolvent region: |arg z| < pi - sigma and |z| > delta."""

    sigma: float
    delta: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.sigma < math.pi / 2:
            raise ValueError("sector angle must lie in (0, pi/2)")
        if self.delta < 0.0:
            raise ValueError("sector radius floor must be nonnegative")

    def contains(self, lam: complex) -> bool:
        lam = complex(lam)
        if abs(lam) <= self.delta:
            return False
        return abs(cmath.phase(lam)) < math.pi - self.sigma

    def sample(self, rng, n: int, lam_hi: float = 1e4):
        """Draw n points log-uniform in modulus, uniform in admissible angle."""
        lo = max(self.delta, 1e-6)
        mod = np.exp(rng.uniform(np.log(lo * (1 + SAMPLE_MARGIN)),
                                 np.log(lam_hi), n))
        amax = (math.pi - self.sigma) * (1 - SAMPLE_MARGIN)
        ang = rng.uniform(-amax, amax, n)
        return mod * np.exp(1j * ang)


def radial_factors():
    """The radial difference factors 1 +- h/2, then 1 +- h, with
    h = LAM_REL_STEP."""
    h = LAM_REL_STEP
    return (1 + h / 2, 1 - h / 2, 1 + h, 1 - h)


def radial_stencil(lam, sector: Sector | None = None):
    """Each lam times the ``radial_factors``, on a trailing axis.

    The step direction lam/|lam| keeps the points at the same argument,
    so only the modulus floor can be violated; every point is checked
    against ``sector``, when given, before any operator is applied.
    """
    points = (np.asarray(lam, dtype=complex)[..., None]
              * np.array(radial_factors()))
    if sector is not None:
        for z in points.ravel():
            if not sector.contains(z):
                raise StepOutsideSector(f"{z} leaves the sector")
    return points


def richardson(fine, coarse):
    """One Richardson step for central differences at steps h/2 and h."""
    return (4.0 * fine - coarse) / 3.0


def lam_derivative(up_half, dn_half, up, dn):
    """lam d/dlam from values at lam times the four ``radial_factors``:
    central differences at both steps, Richardson-extrapolated once."""
    return richardson((up_half - dn_half) / LAM_REL_STEP,
                      (up - dn) / (2 * LAM_REL_STEP))


@dataclass(frozen=True)
class Verdict:
    """Outcome of an admissibility check; failures lists every violation."""

    ok: bool
    failures: tuple[type, ...] = ()

    def raise_first(self):
        if not self.ok:
            raise self.failures[0](f"inadmissible parameters: "
                                   f"{[f.__name__ for f in self.failures]}")


def eta_w_of(p: MaterialParams) -> float:
    return ((p.mu + p.nu) / (2.0 * p.kappa)) ** 2 - 1.0 / p.kappa


def validate(p: MaterialParams) -> Verdict:
    """Admissibility: positivity, eta_w != 0 and kappa != mu*nu.

    The two zero tests are made against ZERO_TOL times a natural scale
    ((mu+nu)^2/kappa^2 for eta_w, mu*nu for the kappa test).
    """
    failures: list[type] = []
    if min(p.mu, p.nu, p.kappa) <= 0.0:
        failures.append(NonPositiveCoefficient)
    else:
        eta = eta_w_of(p)
        eta_scale = ((p.mu + p.nu) / p.kappa) ** 2
        if abs(eta) <= ZERO_TOL * eta_scale:
            failures.append(EtaVanishes)
        if abs(p.kappa - p.mu * p.nu) <= ZERO_TOL * (p.mu * p.nu):
            failures.append(KappaEqualsMuNu)
    return Verdict(ok=not failures, failures=tuple(failures))


def derive_constants(p: MaterialParams) -> DerivedConstants:
    """Compute eta_w, sigma_w and the branch roots s1 = s_+, s2 = s_-."""
    validate(p).raise_first()
    eta = eta_w_of(p)
    half_trace = (p.mu + p.nu) / (2.0 * p.kappa)
    if eta > 0.0:
        root = math.sqrt(eta)
        s1 = complex(half_trace + root)
        # the minus branch cancels when root ~ half_trace; recover it from
        # the product identity s1 s2 = 1/kappa instead
        s2 = complex(1.0 / (p.kappa * (half_trace + root)))
        sigma_w = 0.0
    else:
        root = math.sqrt(-eta)
        s1 = complex(half_trace, root)
        s2 = complex(half_trace, -root)
        sigma_w = math.atan2(root, half_trace)
    return DerivedConstants(eta_w=eta, sigma_w=sigma_w, s1=s1, s2=s2)


def _d(n: int, *axes) -> tuple:
    """Derivative count-vector of one derivative along each listed axis."""
    return tuple(axes.count(a) for a in range(n))


def interior_rows(D, lam, p: MaterialParams, n: int, gamma: float):
    """The interior rows of the resolvent system applied to a pair.

    ``D(which, orders)`` returns a derivative of "rho" or of velocity
    component ``which``, with ``orders[a]`` derivatives along axis a and
    the normal axis last.  Returns (mass, [momentum_1 .. momentum_n]):

        mass       = lam rho + div u
        momentum_j = lam u_j - mu Lap u_j - nu d_j div u + gamma d_j rho
                     - kappa d_j Lap rho
    """
    mass = lam * D("rho", _d(n)) + sum(D(k, _d(n, k)) for k in range(n))
    momentum = [lam * D(j, _d(n))
                - p.mu * sum(D(j, _d(n, a, a)) for a in range(n))
                - p.nu * sum(D(k, _d(n, k, j)) for k in range(n))
                + gamma * D("rho", _d(n, j))
                - p.kappa * sum(D("rho", _d(n, a, a, j)) for a in range(n))
                for j in range(n)]
    return mass, momentum


def boundary_rows(D, p: MaterialParams, n: int, gamma: float):
    """The boundary rows at x_N = 0 (outward normal -e_N), with D as in
    ``interior_rows``.  Returns ([stress_1 .. stress_n], neumann):

        stress_j = -mu (d_j u_N + d_N u_j)                      (j < N)
        stress_N = -(2 mu d_N u_N + (nu - mu) div u - gamma rho
                     + kappa Lap rho)
        neumann  = -d_N rho
    """
    N = n - 1
    stress = [-p.mu * (D(N, _d(n, j)) + D(j, _d(n, N))) for j in range(N)]
    div = sum(D(k, _d(n, k)) for k in range(n))
    lap_rho = sum(D("rho", _d(n, a, a)) for a in range(n))
    stress.append(-(2 * p.mu * D(N, _d(n, N)) + (p.nu - p.mu) * div
                    - gamma * D("rho", _d(n)) + p.kappa * lap_rho))
    return stress, -D("rho", _d(n, N))


def mode_derivative(xi, normal):
    """D for fields held per tangential mode.

    ``normal(which, k)`` gives the k-th normal derivative, broadcasting
    against the frequencies ``xi``; each is asked for once.  Tangential
    derivatives multiply it by i xi.
    """
    cache = {}

    def D(which, orders):
        key = (which, orders[-1])
        if key not in cache:
            cache[key] = normal(*key)
        out = cache[key]
        for axis, k in enumerate(orders[:-1]):
            if k:
                out = (1j * xi[axis]) ** k * out
        return out

    return D
