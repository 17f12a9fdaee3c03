"""Upper bound on the optimality gap of the weighted-probability scorer.

For the weighted-sum aggregated label under uniform pair costs, the
scorer f(x) = sum_k a_k eta_k(x) is near optimal; the gap to the exact
maximizer is bounded by psi of a Berry-Esseen-style third-moment ratio
averaged over i.i.d. instance pairs (the average here runs over all
ordered row pairs including i = j).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .bayes import label_agg_bayes_scorer_weighted
from .core import (
    CostMatrix,
    EtaTable,
    LabelAgg,
    WeightedSum,
    _positive_weights,
    _require_cells,
)
from .errors import DegenerateVariance
from .oracle import _require_exhaustive, certify_bayes

__all__ = ["BoundReport", "psi", "gap_bound", "measure_gap", "evaluate_bound"]


@dataclass(frozen=True)
class BoundReport:
    K: int
    argument: float
    bound_value: float
    empirical_gap: float | None = None


def psi(t: float) -> float:
    """2t / (1 - t) on [0, 1), +inf at and beyond the pole."""
    if t < 0.0:
        raise ValueError("argument must be non-negative")
    return 2.0 * t / (1.0 - t) if t < 1.0 else np.inf


def _moment_sums(eta: EtaTable, weights) -> tuple[np.ndarray, np.ndarray]:
    a = _positive_weights(weights, eta.K)
    var = eta.eta * (1.0 - eta.eta)
    u2 = var @ (a**2)
    u3 = var @ (a**3)
    if np.any(u2 == 0.0):
        raise DegenerateVariance("an instance has fully deterministic labels")
    return u2, u3


def gap_bound(eta: EtaTable, weights) -> BoundReport:
    """Third-moment-ratio bound: psi(mean over pairs of sum a^3 v / (sum a^2 v)^1.5).

    The pair average builds n x n arrays, so it raises TooLarge first if
    their n^2 cells pass the cell cap.
    """
    _require_cells(eta.n * eta.n, f"the pair average over {eta.n} instances")
    u2, u3 = _moment_sums(eta, weights)
    num = u3[:, None] + u3[None, :]
    den = (u2[:, None] + u2[None, :]) ** 1.5
    argument = float((num / den).mean())
    return BoundReport(K=eta.K, argument=argument, bound_value=psi(argument))


def measure_gap(eta: EtaTable, weights) -> float:
    """Exact optimality gap of the weighted-probability scorer.

    Objective: uniform-cost multipartite AUC of the weighted-sum aggregate,
    labels conditionally independent; the maximizer comes from the exact
    weak-order search, so n <= oracle.MAX_EXHAUSTIVE_N (12) applies.
    """
    _moment_sums(eta, weights)  # same premise check as the bound
    agg = WeightedSum(weights)
    objective = LabelAgg(agg, CostMatrix.uniform(agg.values().shape[0]))
    return float(certify_bayes(label_agg_bayes_scorer_weighted(eta, weights), eta, objective).gap)


def evaluate_bound(eta: EtaTable, weights) -> BoundReport:
    """gap_bound with its measured gap; raises TooLarge before either if n > MAX_EXHAUSTIVE_N."""
    _require_exhaustive(eta.n)
    return replace(gap_bound(eta, weights), empirical_gap=measure_gap(eta, weights))
