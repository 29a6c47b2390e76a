"""Exception types shared across the package."""


class KortewegError(Exception):
    """Base class for all package-specific failures."""


class NonPositiveCoefficient(KortewegError):
    """A coefficient that must be strictly positive is not."""


class EtaVanishes(KortewegError):
    """The discriminant of the characteristic quadratic is (numerically) zero."""


class KappaEqualsMuNu(KortewegError):
    """Capillary coefficient coincides with the viscosity product."""


class BranchCutHit(KortewegError):
    """Square-root argument landed on the closed negative real axis."""


class LambdaOutsideSector(KortewegError):
    """Resolvent parameter outside the admissible sector."""


class SingularLopatinskii(KortewegError):
    """Boundary-coefficient system is numerically singular at some mode."""


class NeumannDiverged(KortewegError):
    """Perturbation fixed-point iteration failed to contract."""


class GridMismatch(KortewegError):
    """Field shapes inconsistent with the grid they claim to live on."""


class EmptyGrid(KortewegError):
    """A scan was requested over an empty sample grid."""


class ZeroRaysInSector(KortewegError, ValueError):
    """A scan sector holds zero rays of its target: the infimum is 0."""


class ZeroDenominator(KortewegError):
    """Ratio undefined because every input vanishes."""


class StepOutsideSector(KortewegError):
    """A lambda-derivative step would leave the sector."""
