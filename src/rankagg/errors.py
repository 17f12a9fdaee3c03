"""Exception hierarchy shared across the package."""

__all__ = [
    "RankAggError",
    "DegenerateLabel",
    "InvalidCosts",
    "NotTrainable",
    "BudgetExceeded",
    "TooLarge",
    "DegenerateVariance",
]


class RankAggError(Exception):
    """Base class for all package-specific errors."""


class DegenerateLabel(RankAggError):
    """A label (or aggregated label) admits no informative pair."""


class InvalidCosts(RankAggError):
    """Cost matrix outside the regime where a closed-form scorer exists."""


class NotTrainable(RankAggError):
    """Scorer variant has no trainable parameterization."""


class BudgetExceeded(RankAggError):
    """Enumeration size exceeds the configured budget."""

    def __init__(self, total: int, budget: int):
        super().__init__(f"enumeration size {total} exceeds budget {budget}")
        self.total = total
        self.budget = budget


class TooLarge(RankAggError):
    """Instance count or table size exceeds a fixed exhaustive-search or memory limit."""


class DegenerateVariance(RankAggError):
    """All label noise vanishes, so the normal-approximation premise fails."""
