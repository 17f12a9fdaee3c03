"""Upper bound on the optimality gap of the weighted-probability scorer.

For the weighted-sum aggregated label under uniform pair costs, the
scorer f(x) = sum_k a_k eta_k(x) is near optimal; the gap to the exact
maximizer is bounded by psi of a Berry-Esseen-style third-moment ratio
averaged over i.i.d. instance pairs (the average here runs over all
ordered row pairs including i = j).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    CostMatrix,
    EtaTable,
    LabelAgg,
    TableScorer,
    WeightedSum,
    _positive_weights,
)
from .errors import DegenerateVariance
from .oracle import certify_bayes

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
    """Third-moment-ratio bound: psi(mean over pairs of sum a^3 v / (sum a^2 v)^1.5)."""
    u2, u3 = _moment_sums(eta, weights)
    num = u3[:, None] + u3[None, :]
    den = (u2[:, None] + u2[None, :]) ** 1.5
    argument = float((num / den).mean())
    return BoundReport(K=eta.K, argument=argument, bound_value=psi(argument))


def _aggregate_objective(weights) -> LabelAgg:
    agg = WeightedSum(weights)
    return LabelAgg(agg, CostMatrix.uniform(agg.values().shape[0]))


def measure_gap(eta: EtaTable, weights) -> float:
    """Exact optimality gap of the weighted-probability scorer.

    Objective: uniform-cost multipartite AUC of the weighted-sum aggregate,
    labels conditionally independent; the maximizer comes from the exact
    weak-order search, so n <= oracle.MAX_EXHAUSTIVE_N (12) applies.
    """
    _moment_sums(eta, weights)  # same premise check as the bound
    scorer = TableScorer(eta.eta @ np.asarray(weights, dtype=float))
    result = certify_bayes(scorer, eta, _aggregate_objective(weights))
    return float(result.gap)


def evaluate_bound(eta: EtaTable, weights) -> BoundReport:
    report = gap_bound(eta, weights)
    return BoundReport(
        K=report.K,
        argument=report.argument,
        bound_value=report.bound_value,
        empirical_gap=measure_gap(eta, weights),
    )
