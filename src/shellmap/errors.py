"""Exception types shared across the package."""


class ShellmapError(Exception):
    """Base class for all package errors."""


class OffSurface(ShellmapError):
    """A point failed the on-surface check |implicit(x)| <= tol_surface."""


class ProjectionFailed(ShellmapError):
    """The retraction's projection left a point off the surface: Newton
    did not converge within its step cap, or a row is not finite."""


class ImmersionFailure(ShellmapError):
    """Tangents of the outer-boundary parametrization are degenerate."""


class NormalRayMissesCore(ShellmapError):
    """The inward normal ray from the outer boundary does not reach the core."""


class CurvatureSingularity(ShellmapError):
    """(I - d S) is numerically singular; the resolvent is unavailable."""


class NotAFixedPoint(ShellmapError):
    """Linearization requested at a point that is not fixed under the map."""


class InadmissibleThickness(ShellmapError):
    """Thickness evaluated to a nonpositive value."""


class ScenarioError(ShellmapError):
    """Scenario file failed to parse or validate."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        super().__init__(message)
        self.line = line
        self.column = column
