"""Exception types shared across the library.

Budget overruns are first-class errors, never silent truncation. The CLI
maps ValidationError to exit code 1 and BudgetExceededError to exit code 2.
"""


class TwistsepError(Exception):
    pass


class ValidationError(TwistsepError):
    """Malformed input: presentation, homomorphism, element or file."""


class BudgetExceededError(TwistsepError):
    """An enumeration cap (ball size, quotient order, scan budget) was hit.

    budget names the budget that stopped the run and limit is its cap.
    """

    def __init__(self, message, *, budget=None, limit=None):
        super().__init__(message)
        self.budget = budget
        self.limit = limit


class PreconditionError(TwistsepError):
    """A documented operation precondition failed.

    Carries a short machine-readable reason so callers can distinguish
    which condition was violated.
    """

    def __init__(self, message, reason=None):
        super().__init__(message)
        self.reason = reason
