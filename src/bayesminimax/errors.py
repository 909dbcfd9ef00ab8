"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class EvaluationError(RuntimeError):
    """A numerical evaluation failed to converge.

    Carries optional diagnostics (partial sums, term counts) so callers can
    report what was achieved before giving up.
    """

    def __init__(self, message, **diagnostics):
        super().__init__(message)
        self.diagnostics = dict(diagnostics)


class QuadratureError(EvaluationError):
    """Adaptive quadrature stopped short of its tolerance.

    ``diagnostics['worst_interval']`` holds the subinterval with the largest
    remaining error estimate.  ``nested`` marks an error raised inside the
    integrand of an enclosing integral, whose interval is its own.
    """

    nested = False


class TransformDivergenceError(EvaluationError):
    """An integral transform was detected to diverge.

    Raised when the integrand is still above the truncation threshold at the
    scan horizon and keeps growing, i.e. the transform does not exist at the
    requested point.
    """


class ConstructionError(RuntimeError):
    """A prior-construction pipeline cannot proceed with the given inputs."""
