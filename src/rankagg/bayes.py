"""Closed-form optimal scorers and label-dictatorship diagnostics.

Ratio-form scorers use a +inf sentinel when the denominator vanishes;
the metrics module ranks +inf above every finite score and ties +inf
entries with each other.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    CostMatrix,
    EtaTable,
    JointLabelModel,
    PriorVector,
    Product,
    SampledLabels,
    TableScorer,
    _frozen,
    _positive_weights,
    aggregate_distribution,
)
from .errors import InvalidCosts

__all__ = [
    "alpha_vector",
    "loss_agg_bayes_scorer",
    "label_agg_bayes_scorer_sum",
    "label_agg_bayes_scorer_weighted",
    "label_agg_uniform_cost_scorer_k2",
    "multipartite_bayes_scorer",
    "scale_condition_holds",
    "product_agg_bayes_scorer",
    "DictatorshipReport",
    "dictatorship_analysis",
    "partial_order_over_combos",
]

_SCALE_TOL = 1e-8


def _priors_array(priors, K: int) -> np.ndarray:
    if isinstance(priors, SampledLabels):
        priors = PriorVector.from_labels(priors)
    elif isinstance(priors, EtaTable):
        priors = PriorVector.from_eta(priors)
    elif not isinstance(priors, PriorVector):
        priors = PriorVector(priors)
    if priors.pi.shape[0] != K:
        raise ValueError("prior count must match K")
    return priors.require_nondegenerate()


def alpha_vector(priors, weights) -> np.ndarray:
    """Per-label influence coefficients a_k / (pi_k (1 - pi_k))."""
    a = _positive_weights(weights)
    pi = _priors_array(priors, a.shape[0])
    return a / (pi * (1.0 - pi))


def loss_agg_bayes_scorer(eta: EtaTable, priors=None, weights=None) -> TableScorer:
    """Optimal scorer for the weighted sum of per-label AUCs.

    score_i = (1/K) sum_k a_k / (pi_k (1 - pi_k)) * eta_{ik}.
    Priors default to the column means of eta; weights default to 1.
    """
    if priors is None:
        priors = PriorVector.from_eta(eta)
    if weights is None:
        weights = np.ones(eta.K)
    alpha = alpha_vector(priors, weights)
    scores = eta.eta @ alpha
    scores /= eta.K
    return TableScorer(_frozen(scores))


def label_agg_bayes_scorer_sum(eta: EtaTable) -> TableScorer:
    """Optimal scorer for the sum-aggregated label under absolute-difference costs.

    The columns are added in order, the bits of eta.sum(axis=1) up to K = 7;
    numpy sums 8 or more columns pairwise, which can move the last ulp.
    """
    columns = eta.eta.T
    scores = columns[0].copy()
    for column in columns[1:]:
        scores += column
    return TableScorer(_frozen(scores))


def label_agg_bayes_scorer_weighted(eta: EtaTable, alphas) -> TableScorer:
    """Weighted-sum variant: score_i = sum_k alpha_k * eta_{ik}."""
    return TableScorer(eta.eta @ _positive_weights(alphas, eta.K))


def label_agg_uniform_cost_scorer_k2(eta: EtaTable) -> TableScorer:
    """Optimal scorer for the K=2 sum-aggregated label under uniform costs.

    score = (eta1 + eta2 - eta1*eta2) / (1 - eta1*eta2), assuming the two
    labels are conditionally independent; +inf where eta1*eta2 = 1.
    """
    if eta.K != 2:
        raise ValueError("this closed form is specific to K=2")
    e1, e2 = eta.eta[:, 0], eta.eta[:, 1]
    prod = e1 * e2
    denom = 1.0 - prod
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = np.where(denom > 0.0, (e1 + e2 - prod) / np.where(denom > 0.0, denom, 1.0), np.inf)
    return TableScorer(vals)


def scale_condition_holds(costs: CostMatrix) -> bool:
    """Whether c[y, y'] factorizes as w_y * w_y' * (s_y - s_y') with w > 0.

    Only entries below the diagonal count. Fix the gauge w_0 = 1, s_0 = 0
    and read u_y = w_y * s_y = c[y, 0]; every entry then asks
    c[y, y'] = w_y' * u_y - w_y * u_y', which is linear in w. If u = 0,
    every entry must be 0. Otherwise the relations through the level j with
    the largest u_j give each weight as w = p * t + q in t = w_j, with
    p = u / u_j >= 0. The t terms cancel in every other relation (w + x * u
    fits the same entries as w), so each one holds for all t or for none:
    absolute-difference costs admit a whole line of weights. The weights
    with p = 0, w_0 = 1 among them, stay fixed and the others grow with t,
    so min w is as large as it gets once every growing weight reaches 1. At
    that w every entry must match within relative tolerance 1e-8 and min w
    must exceed 1e-8. The check is O(m^2).
    """
    c = costs.costs
    tol = _SCALE_TOL * max(1.0, float(np.abs(c).max()))
    lower = np.tril(c, -1)
    a = lower - lower.T  # a[y, y'] = w_y' * u_y - w_y * u_y' for every pair
    u = a[:, 0]
    j = int(np.argmax(u))
    if u[j] == 0.0:
        return bool(np.abs(lower).max() <= tol)
    p, q = u / u[j], -a[:, j] / u[j]
    grows = p > 0.0
    w = p * np.max((1.0 - q[grows]) / p[grows]) + q
    return bool(w.min() > _SCALE_TOL and np.abs(np.outer(u, w) - np.outer(w, u) - a).max() <= tol)


def multipartite_bayes_scorer(class_probs: np.ndarray, costs: CostMatrix) -> TableScorer:
    """Optimal scorer for an ordinal label with class-prob table over {0..L-1}.

    score = sum_{y > 0} c[y, 0] * p_y / sum_{y < L-1} c[L-1, y] * p_y,
    valid for a 3-letter alphabet or whenever the costs factorize on the
    scale condition, checked on the leading L x L block, the only costs
    read; +inf where the denominator vanishes.
    """
    p = np.asarray(class_probs, dtype=float)
    if p.ndim != 2:
        raise ValueError("need an n x L class-probability table")
    levels = p.shape[1]
    if costs.size < levels:
        raise ValueError("cost matrix smaller than the alphabet")
    if levels > 3 and not scale_condition_holds(CostMatrix(costs.costs[:levels, :levels])):
        raise InvalidCosts("no closed form: costs fail the scale condition for L > 3")
    num = p[:, 1:] @ costs.costs[1:levels, 0]
    den = p[:, :-1] @ costs.costs[levels - 1, : levels - 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = np.where(den > 0.0, num / np.where(den > 0.0, den, 1.0), np.inf)
    return TableScorer(vals)


def product_agg_bayes_scorer(model: EtaTable | JointLabelModel) -> TableScorer:
    """Optimal scorer for the product-aggregated (AND) label: P(every label is 1)."""
    return TableScorer(aggregate_distribution(model, Product()).probs[:, 1])


@dataclass(frozen=True)
class DictatorshipReport:
    """Which label's signal overrides the other's, if any."""

    dictator: int | None
    violations: tuple


def dictatorship_analysis(alphas, eta: EtaTable | None = None) -> DictatorshipReport:
    """Identify the dominating label for K=2 influence coefficients.

    With deterministic eta also checks the implied constraint: every
    instance positive on the dictator label scores above every instance
    negative on it under the loss-agg scorer. Ties in alpha yield None.
    """
    alpha = np.asarray(alphas, dtype=float)
    if alpha.shape[0] != 2:
        raise ValueError("dictatorship analysis is defined for K=2")
    if alpha[0] == alpha[1]:
        return DictatorshipReport(dictator=None, violations=())
    dictator = 0 if alpha[0] > alpha[1] else 1
    violations = []
    if eta is not None:
        if not np.isin(eta.eta, (0.0, 1.0)).all():
            raise ValueError("ordering check needs a deterministic eta table")
        scores = eta.eta @ alpha / eta.K
        pos = np.flatnonzero(eta.eta[:, dictator] == 1.0)
        neg = np.flatnonzero(eta.eta[:, dictator] == 0.0)
        # a pair violates when scores[i] <= scores[j], which NaN never does;
        # only positives at most the top negative and negatives at least the
        # bottom positive can take part, so the pairs are listed among those
        lowest = np.fmin.reduce(scores[pos], initial=np.inf)
        highest = np.fmax.reduce(scores[neg], initial=-np.inf)
        if lowest <= highest:
            pos, neg = pos[scores[pos] <= highest], neg[scores[neg] >= lowest]
            i, j = np.nonzero(scores[pos, None] <= scores[None, neg])
            violations = list(zip(pos[i].tolist(), neg[j].tolist()))
    return DictatorshipReport(dictator=dictator, violations=tuple(violations))


_COMBOS = ((0, 0), (0, 1), (1, 0), (1, 1))


def partial_order_over_combos(method: str, alphas=None) -> frozenset:
    """Strict-order pairs among the 4 deterministic K=2 label combos.

    Returns pairs (lo, hi) meaning combo lo scores strictly below combo hi
    under the named method's optimal scorer; methods: "lossagg" (needs
    alphas), "labelagg_sum", "labelagg_product".
    """
    if method == "lossagg":
        if alphas is None:
            raise ValueError("lossagg needs alpha coefficients")
        a = np.asarray(alphas, dtype=float)
        value = {c: float(c[0] * a[0] + c[1] * a[1]) / 2.0 for c in _COMBOS}
    elif method == "labelagg_sum":
        value = {c: float(c[0] + c[1]) for c in _COMBOS}
    elif method == "labelagg_product":
        value = {c: float(c[0] * c[1]) for c in _COMBOS}
    else:
        raise ValueError(f"unknown method {method!r}")
    return frozenset(
        (lo, hi) for lo in _COMBOS for hi in _COMBOS if value[lo] < value[hi]
    )
