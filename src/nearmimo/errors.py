"""Exception types raised by the library.

Everything derives from :class:`NearMimoError` so callers can catch the
whole family; classes that signal bad caller input also derive from
``ValueError`` and numerical failures from ``ArithmeticError``.
"""


class NearMimoError(Exception):
    """Base class for all library errors."""


class SingularGeometryError(NearMimoError, ValueError):
    """A source point coincides with an antenna, or antennas coincide."""


class InvalidDirectionError(NearMimoError, ValueError):
    """Direction cosines are inconsistent with a unit propagation vector."""


class InfeasibleDesignError(NearMimoError, ValueError):
    """Combiner design constraints cannot be met (e.g. T < M_s)."""


class DegenerateGridError(NearMimoError, ValueError):
    """A sampling grid collapses (more than one point but zero extent)."""


class DegenerateGeometryError(NearMimoError, ArithmeticError):
    """Ray geometry is rank deficient (e.g. all rays parallel)."""


class NumericalRankError(NearMimoError, ArithmeticError):
    """A sparse refit hit a rank-deficient support set."""


class DivergenceError(NearMimoError, ArithmeticError):
    """An iterative solver produced a non-finite iterate."""

    def __init__(self, message: str, iteration: int | None = None):
        super().__init__(message)
        self.iteration = iteration


class StageFailure(NearMimoError, RuntimeError):
    """A pipeline stage aborted; carries the stage name for reporting."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"{stage}: {message}")
        self.stage = stage
