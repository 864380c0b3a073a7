"""Error taxonomy shared by every module."""

from __future__ import annotations


class QSixError(Exception):
    """Base class for all package-specific errors."""


class DomainError(QSixError):
    """Input outside the mathematical domain (|q| not in (0,1), zero
    parameter where a division is required, malformed shapes)."""


class PoleError(QSixError):
    """A denominator factor vanished. `factor` names the offending factor,
    `exponent` the q-power at which it vanished (when known)."""

    def __init__(self, message: str, factor: str | None = None,
                 exponent: int | None = None):
        super().__init__(message)
        self.factor = factor
        self.exponent = exponent


class NonConvergence(QSixError):
    """Terms or factors failed to decay; the quantity is not summable under
    the active policy."""


class BudgetExceeded(NonConvergence):
    """max_terms was reached before the tail criterion held."""


class IllConditioned(NonConvergence):
    """A sum's term hump max(1, max |term|) / |sum|, the factor by which
    term rounding is amplified in its value, exceeds the policy's
    hump_max."""


class Unsatisfiable(QSixError):
    """Rejection sampling could not satisfy the constraints within the
    allowed number of proposals."""
