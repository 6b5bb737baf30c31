"""Rotationally invariant constant mean curvature hypersurfaces in H^n."""

from .errors import (
    AxisPointError,
    DegenerateTangentsError,
    DimensionMismatchError,
    DivergentIntegralError,
    EnergyDriftError,
    GeometryError,
    NoAdmissibleRadiusError,
    NoCriticalPointError,
    QuadratureError,
    RootBracketFailureError,
    SingularPointError,
)

__version__ = "0.1.0"
