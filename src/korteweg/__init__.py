"""Resolvent solution operators for the linearized compressible Korteweg
model on the half-space, with numerical certification of the symbol
estimates, boundary-system non-degeneracy, and R-bound estimates."""

from .model import (DerivedConstants, MaterialParams, Sector,
                    derive_constants, validate)
from .symbols import (FrakSymbols, Lopatinskii, RootSet, frak_symbols,
                      kernel_M, lopatinskii, omega_lambda, roots_t,
                      whole_space_symbol_P)
from .certify import (Certificate, GridSpec, certify_multiplier,
                      certify_registry, empirical_sigma_star,
                      scan_lower_bound, symbol_registry)
from .wholespace import (BoxGrid, WholeField, residual_whole, solve_whole)
from .halfspace import (ModeSolution, NormalSamples, TangentialGrid,
                        coefficients_closed_form, coefficients_direct,
                        residual_reduced, solve_reduced)
from .resolvent import (FullData, HalfGeometry, auto_lambda0,
                        contraction_probe, extend_even, extend_zero,
                        fx_norm, residual_full, solve_gamma_zero,
                        solve_general)
from .verification import (RBoundEstimate, estimate_rbound,
                           lambda_derivative_family, rademacher_ratio)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
