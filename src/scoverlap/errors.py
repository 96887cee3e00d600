"""Exception and warning types shared across the package."""


class SingularFiber(RuntimeError):
    """The gradient of the observable vanishes on the requested level set."""


class TangentialIntersection(RuntimeError):
    """A root of the level equations fails the transversality bound.

    Carries the offending points in ``.points`` so callers can inspect them.
    """

    def __init__(self, message, points=()):
        super().__init__(message)
        self.points = list(points)


class PointNotOnFiber(ValueError):
    """An endpoint handed to a fiber line integral is not on the level set."""


class CoarseGuide(ValueError):
    """A guide polyline handed to chart quadrature is too coarse: the fiber
    normal turns by 45 degrees or more along one of its segments, so a chart
    switch can land beyond the fold of the chart it leaves."""


class MultipleComponents(RuntimeError):
    """Intersection points lie on more than one component of a level set.

    Carries the points off the traced component in ``.points``.
    """

    def __init__(self, message, points=()):
        super().__init__(message)
        self.points = list(points)


class NoReferencePoint(RuntimeError):
    """A fiber does not meet the reference Lagrangian inside the domain."""


class TangencyAtEndpoint(RuntimeError):
    """A turning-point count was requested for a segment ending on a tangency."""


class NonMonotoneAction(RuntimeError):
    """The loop action is not monotone on the requested level range."""


class DegenerateStationaryPoint(RuntimeError):
    """Stationary-phase composition hit a vanishing second derivative."""


class BranchStructureChange(ValueError):
    """The number of terms of a composition kernel differs between two
    intermediate levels of the interval; a narrower interval keeps it fixed."""


class GridMismatch(ValueError):
    """Two grid-sampled states live on different grids."""


class OpenFiber(RuntimeError):
    """Half-density bridging requested for a non-linear open fiber."""


class CountMismatch(ValueError):
    """Eigenvalue and quantization-level counts cannot be paired."""


class UnsupportedOrdering(ValueError):
    """Operator construction requested beyond quadratic momentum degree."""


class OrderOverflow(ValueError):
    """A truncation order is not an int in 0..MAX_ORDER (negative, fractional
    or above the supported bound)."""


class OrderMismatch(ValueError):
    """Two formal series truncated at different orders were combined."""


class ConfigError(ValueError):
    """Experiment configuration failed validation."""


class CausticNearby(UserWarning):
    """An intersection sits close to a tangential (caustic) configuration."""


class DoubleRoot(UserWarning):
    """The transversality bracket touches zero without changing sign."""


class DuplicatePosition(UserWarning):
    """Two requested positions snap to the same grid point; the repeat is dropped."""


class LevelSkipped(UserWarning):
    """A level in a quantization scan had no closed fiber and was skipped."""


class DegenerateFit(RuntimeError):
    """All errors sit at machine precision; no slope can be fitted."""


class QuadratureLimit(UserWarning):
    """Adaptive quadrature reached its panel limit before its tolerance."""
