"""Exception hierarchy and warnings shared across the package."""


class PoleBoundsError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(PoleBoundsError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class DegenerateGeometryError(PoleBoundsError):
    """A geometric configuration is tangential or otherwise ill-posed."""


class HypothesisViolationError(PoleBoundsError):
    """A standing hypothesis of a verification routine does not hold."""


class PoleProximityError(PoleBoundsError):
    """A curve passes too close to the pole of the map being integrated."""


class QuadratureError(PoleBoundsError):
    """Adaptive quadrature could not bring its error estimate within the tolerance."""


class WalkCapError(PoleBoundsError, ArithmeticError):
    """Every walk-on-spheres walk hit the step cap, leaving no estimate."""


class NumericalConditionWarning(UserWarning):
    """Emitted when an evaluation enters a badly conditioned regime."""
