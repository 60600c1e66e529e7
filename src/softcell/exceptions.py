"""Exception types shared across the package."""


class InvalidInputError(ValueError):
    """Input data violates a documented precondition."""


class NumericalFailureError(RuntimeError):
    """A numerical routine could not certify its result; carries diagnostic residuals."""

    def __init__(self, message: str, residuals: dict | None = None):
        super().__init__(message)
        self.residuals = residuals or {}


class InfeasibleProblemError(RuntimeError):
    """The optimization problem admits no feasible point; carries a dual certificate."""

    def __init__(self, message: str, certificate=None):
        super().__init__(message)
        self.certificate = certificate


class RzfInfeasibleError(RuntimeError):
    """The fixed-direction power allocation is infeasible (the full problem may still be feasible)."""
