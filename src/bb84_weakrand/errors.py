"""Exception types shared across the package, and the budgets its caps enforce."""

# Each cap on an input that sizes an allocation (sweep rows, simplex rows)
# is this budget over a measured bytes-per-item.
MEMORY_BUDGET = 4 * 2**30

# Each cap on an input that sizes a run's time but not its memory
# (simulated pulses) is this budget, one day, times a measured throughput.
TIME_BUDGET_S = 24 * 3600


class ValidationError(ValueError):
    """An input violates a documented precondition or type invariant."""


class InfeasibilityError(RuntimeError):
    """No point satisfying the stated constraints exists or was found.

    ``residual`` carries the smallest constraint violation encountered,
    when one is available.
    """

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class InsufficientDataError(RuntimeError):
    """A statistic was requested from an empty sample."""
