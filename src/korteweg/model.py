"""Physical parameters, derived spectral constants, and the resolvent sector.

The model carries five coefficients: two viscosities ``mu``, ``nu``, a
capillary coefficient ``kappa``, a pressure-gradient coefficient ``gamma``
and a reference density ``rho_ref``.  Everything downstream works on the
rescaled system, so ``rho_ref`` only enters through the rescaling map.

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

from .errors import EtaVanishes, KappaEqualsMuNu, NonPositiveCoefficient

# Relative tolerance for the exact-zero admissibility tests.  Exact-zero
# conditions are measure-zero; near-violations make the boundary symbols
# ill-conditioned, so reject early.
ZERO_TOL = 1e-13


@dataclass(frozen=True)
class MaterialParams:
    """Coefficients of the rescaled resolvent system (all immutable)."""

    mu: float
    nu: float
    kappa: float
    gamma: float = 0.0
    rho_ref: float = 1.0

    @classmethod
    def from_json(cls, obj: dict | str) -> "MaterialParams":
        """Build from a JSON object with keys mu, nu, kappa, gamma, rho_ref."""
        if isinstance(obj, str):
            obj = json.loads(obj)
        known = {"mu", "nu", "kappa", "gamma", "rho_ref"}
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
            "rho_ref": self.rho_ref,
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
        if lam == 0:
            return False
        return abs(cmath.phase(lam)) < math.pi - self.sigma

    def sample(self, rng, n: int, lam_lo: float | None = None,
               lam_hi: float = 1e4, margin: float = 1e-3):
        """Draw n points log-uniform in modulus, uniform in admissible angle."""
        lo = max(self.delta, 1e-6) if lam_lo is None else lam_lo
        mod = np.exp(rng.uniform(np.log(lo * (1 + margin)), np.log(lam_hi), n))
        amax = (math.pi - self.sigma) * (1 - margin)
        ang = rng.uniform(-amax, amax, n)
        return mod * np.exp(1j * ang)


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
    if min(p.mu, p.nu, p.kappa, p.rho_ref) <= 0.0:
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


def sector_contains(sector: Sector, lam: complex) -> bool:
    return sector.contains(lam)


def rescale_map(p: MaterialParams) -> MaterialParams:
    """Substitution taking the physical system to the rescaled one.

    rho -> rho_ref * rho, mu -> rho_ref * mu, nu -> rho_ref * nu,
    kappa -> kappa / rho_ref; the solvers operate on the result.
    """
    r = p.rho_ref
    return MaterialParams(mu=r * p.mu, nu=r * p.nu, kappa=p.kappa / r,
                          gamma=p.gamma, rho_ref=1.0)
