"""Semantic exception hierarchy.

Every error raised by the library derives from :class:`RobustqError`, so
callers can catch one base class at dispatch boundaries (the CLI maps these
to exit status 3) while tests assert on the specific subclass.
"""


class RobustqError(Exception):
    """Base class for all library errors."""


class DomainError(RobustqError):
    """An input lies outside the mathematical domain of an operation
    (zero probability under observed counts, all nodes excluded, ...)."""


class EmptyDataError(RobustqError):
    """A statistic was requested for an empty event collection."""


class InvalidModelError(RobustqError):
    """A correlation model is outside its admissible parameter set."""


class BranchError(RobustqError):
    """Turning-point handling in the correlation ODE failed: the integrated
    curve left the admissible band [-1, 1] by more than the tolerance."""


class ResourceError(RobustqError):
    """The maximiser search has more tied candidates than COMPOSITION_CAP, or
    ties finer than floats resolve (n_total > 2**53, or tiny count steps)."""


class ConvergenceError(RobustqError):
    """An iterative linear-algebra kernel failed to converge."""


class LinearSolveError(RobustqError):
    """A tridiagonal solve broke down (singular system or non-finite data)."""


class StabilityError(RobustqError):
    """A propagation run violated its conservation contract."""


class PhaseUndefinedError(RobustqError):
    """The phase of a wave field is undefined everywhere it was needed."""


class ConfigError(RobustqError):
    """A run configuration failed validation.

    Carries the list of diagnostics (one per offending key path).
    """

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(self.diagnostics))
