"""Closed-form optimal scorers, and bayes_scorer, which picks the one that solves an objective.

Ratio-form scorers use a +inf sentinel when the denominator vanishes;
the metrics module ranks +inf above every finite score and ties +inf
entries with each other.
"""

from __future__ import annotations

import numpy as np

from .core import (
    CostMatrix,
    EtaTable,
    JointLabelModel,
    LabelAgg,
    PerLabel,
    PriorVector,
    Product,
    SampledLabels,
    Sum,
    TableScorer,
    _frozen,
    _positive_weights,
    aggregate_distribution,
)
from .errors import InvalidCosts
from .metrics import _label_weights

__all__ = [
    "alpha_vector",
    "bayes_scorer",
    "loss_agg_bayes_scorer",
    "label_agg_bayes_scorer_sum",
    "label_agg_uniform_cost_scorer_k2",
    "multipartite_bayes_scorer",
    "scale_condition_holds",
    "product_agg_bayes_scorer",
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
    if weights is None:
        weights = np.ones(eta.K)
    alpha = alpha_vector(eta if priors is None else priors, weights)  # an EtaTable's priors are its column means
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


def bayes_scorer(model: EtaTable | JointLabelModel, objective) -> TableScorer:
    """The closed-form optimal scorer of a PerLabel, LossAgg or LabelAgg objective.

    PerLabel and LossAgg read the marginals, with their column means as priors;
    LabelAgg reads the aggregate law, the joint's for a JointLabelModel. Sum under
    absdiff costs scores the marginals' sum, increasing in E[sum Y] for any joint
    law. Raises InvalidCosts where multipartite_bayes_scorer has no closed form.
    """
    if not isinstance(model, (EtaTable, JointLabelModel)):
        raise TypeError(f"unsupported label model {model!r}")
    eta = model.marginal_eta() if isinstance(model, JointLabelModel) else model
    if not isinstance(objective, LabelAgg):
        _, weights = _label_weights(objective, model.K)  # checks the label index or the weights
        if isinstance(objective, PerLabel):
            return TableScorer(eta.eta[:, objective.k])
        return loss_agg_bayes_scorer(eta, weights=weights)
    if isinstance(objective.aggregator, Product):
        return product_agg_bayes_scorer(model)
    levels = model.K + 1  # Sum's alphabet; only the costs below the diagonal are read
    lower = np.tril(objective.costs.costs[:levels, :levels], -1)
    if isinstance(objective.aggregator, Sum) and np.array_equal(lower, np.tril(CostMatrix.absdiff(levels).costs, -1)):
        return label_agg_bayes_scorer_sum(eta)
    return multipartite_bayes_scorer(aggregate_distribution(model, objective.aggregator).probs, objective.costs)
