"""Exception hierarchy shared by all modules."""


class GeometryError(Exception):
    """Base class for geometric and numerical failures in this package."""


class DimensionMismatchError(GeometryError, ValueError):
    """Operands live in Heisenberg groups of different dimension."""


class SingularPointError(GeometryError):
    """The horizontal projection of the normal vanishes.

    Raised at points of the singular set, where the tangent hyperplane
    coincides with the horizontal distribution and the horizontal unit
    normal is undefined.
    """


class AxisPointError(GeometryError):
    """An operation was evaluated at radius x <= 0."""


class DegenerateTangentsError(GeometryError):
    """Tangent vectors of a jet are numerically dependent."""


class EnergyDriftError(GeometryError):
    """First-integral conservation failed during integration.

    The whole offending trajectory, every sample of it, is attached as
    ``trajectory``.
    """

    def __init__(self, message, trajectory=None):
        super().__init__(message)
        self.trajectory = trajectory


class IntegrationError(GeometryError):
    """The ODE solver gave up, typically because the step size it needed
    fell below the spacing of floating-point numbers."""


class NoCriticalPointError(GeometryError):
    """reflect_continue found no critical-radius endpoint to mirror about."""


class NoAdmissibleRadiusError(GeometryError):
    """The radius polynomial has no positive root for these parameters."""


class RootBracketFailureError(GeometryError):
    """Sign conditions bracketing a polynomial root failed."""


class DivergentIntegralError(GeometryError):
    """A requested improper integral does not converge."""


class QuadratureError(GeometryError):
    """A quadrature or a Chebyshev series failed to converge."""
