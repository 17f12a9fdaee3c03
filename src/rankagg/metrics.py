"""AUC objectives in empirical and population form, plus Pareto machinery.

Conventions, kept consistent per path:
  - empirical sums range over ordered pairs with i != j (a point never
    ranks against itself);
  - population sums range over all ordered pairs including i = j with
    H(0) = 1/2, matching an expectation over two i.i.d. draws;
  - ties use exact floating-point equality, and +inf scores rank above
    every finite score (ties among +inf entries count 1/2); NaN scores are
    rejected with ValueError.

Every AUC is a weighted pair sum sum_ij u_i v_j H(s_i - s_j) and goes
through one sort-and-cumulative-sum kernel. A population objective's pair
weights are W = u v^T of the same weight columns; population_pair_weights
builds that dense n x n matrix only for the exhaustive oracle, which
evaluates it against h_matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    AggregateDistribution,
    Aggregator,
    CostMatrix,
    EtaTable,
    JointLabelModel,
    LabelAgg,
    LossAgg,
    PerLabel,
    SampledLabels,
    Scorer,
    _positive_weights,
    aggregate_distribution,
    aggregate_labels,
)
from .errors import DegenerateLabel

__all__ = [
    "AucReport",
    "h_matrix",
    "bipartite_auc_empirical",
    "bipartite_auc_population",
    "multipartite_auc",
    "multipartite_auc_population",
    "loss_agg_auc",
    "label_agg_auc",
    "auc_report",
    "pareto_dominates",
    "pareto_front",
    "population_pair_weights",
]


def h_matrix(scores: np.ndarray) -> np.ndarray:
    """H(f_i - f_j) for all ordered pairs: 1 if greater, 1/2 on exact ties."""
    s = np.asarray(scores, dtype=float)
    # comparisons (not subtraction) so +inf sentinels never produce NaN
    return (s[:, None] > s[None, :]) + 0.5 * (s[:, None] == s[None, :])


def _scores_array(scores) -> np.ndarray:
    if isinstance(scores, Scorer):
        return np.asarray(scores.scores(), dtype=float)
    return np.asarray(scores, dtype=float)


def _pair_sums(scores, u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Weighted pair counts for each weight row l of u and v (both L x n).

    Returns (sums, pairs): sums[l] = sum_ij u[l, i] v[l, j] H(s_i - s_j)
    over all ordered pairs, and pairs[l] = sum_i u[l, i] * sum_j v[l, j].
    One sort groups exact ties; per group, U_g . (V strictly below + V_g / 2)
    is the weighted Mann-Whitney count. Pairs i = j count 1/2, so callers
    with i != j conventions pass weights that vanish on the diagonal.
    Any memory layout gives the same bits; C-contiguous rows gather fastest.
    """
    s = _scores_array(scores)
    if s.shape[0] != u.shape[1]:
        raise ValueError(f"{s.shape[0]} scores for {u.shape[1]} instances")
    if s.shape[0] == 0:
        raise DegenerateLabel("no instances to rank")
    if np.isnan(s).any():
        raise ValueError("scores must not be NaN")
    order = np.argsort(s)
    ranked = s[order]
    u_groups = np.take(u, order, axis=1)
    v_groups = np.take(v, order, axis=1)
    new_value = ranked[1:] != ranked[:-1]
    if not new_value.all():
        # sum each run of tied scores into one column; without ties every run is one column
        starts = np.flatnonzero(np.concatenate(([True], new_value)))
        u_groups = np.add.reduceat(u_groups, starts, axis=1)
        v_groups = np.add.reduceat(v_groups, starts, axis=1)
    cumulative = np.cumsum(v_groups, axis=1)
    # terms = u_groups * (below + 0.5 * v_groups), built in one buffer
    terms = np.empty_like(cumulative)
    terms[:, 0] = 0.0
    terms[:, 1:] = cumulative[:, :-1]
    v_groups *= 0.5
    terms += v_groups
    terms *= u_groups
    return terms.sum(axis=1), u_groups.sum(axis=1) * cumulative[:, -1]


def _bipartite_aucs(scores, pos: np.ndarray, neg: np.ndarray) -> np.ndarray:
    """Per-row AUCs for positive and negative weight rows (K x n)."""
    sums, pairs = _pair_sums(scores, pos, neg)
    bad = np.flatnonzero(pairs == 0.0)
    if bad.size:
        raise DegenerateLabel(f"label {bad[0]} needs positive and negative weight")
    return sums / pairs


def bipartite_auc_empirical(scores, labels) -> float:
    """Fraction of (positive, negative) pairs ranked correctly, ties half."""
    y = np.asarray(labels)[None, :]
    return float(_bipartite_aucs(scores, (y == 1).astype(float), (y == 0).astype(float))[0])


def bipartite_auc_population(scores, eta_column) -> float:
    """Pairwise-weight AUC under per-instance positive probabilities."""
    eta = np.asarray(eta_column, dtype=float)[None, :]
    return float(_bipartite_aucs(scores, eta, 1.0 - eta)[0])


def _cost_lower(probs: np.ndarray, costs: CostMatrix) -> np.ndarray:
    """lower[j, m] = sum over m' < m of c[m, m'] probs[j, m'] for probs (n x levels)."""
    levels = probs.shape[1]
    if costs.size < levels:
        raise ValueError("cost matrix smaller than the ordinal alphabet")
    return probs @ np.tril(costs.costs[:levels, :levels], -1).T


def _multipartite(scores, probs: np.ndarray, costs: CostMatrix) -> float:
    """Cost-weighted pair accuracy for per-level weights probs (n x levels)."""
    lower = _cost_lower(probs, costs)
    sums, pairs = _pair_sums(scores, np.ascontiguousarray(probs.T), np.ascontiguousarray(lower.T))
    total = pairs.sum()
    if total == 0.0:
        raise DegenerateLabel("no discordant pair carries positive cost")
    return float(sums.sum() / total)


def multipartite_auc(scores, ordinal_labels, costs: CostMatrix) -> float:
    """Cost-weighted pair accuracy over ordinal labels, normalized to [0, 1]."""
    y = np.asarray(ordinal_labels)
    return _multipartite(scores, (y[:, None] == np.arange(y.max() + 1)).astype(float), costs)


def multipartite_auc_population(scores, dist: AggregateDistribution, costs: CostMatrix) -> float:
    return _multipartite(scores, dist.probs, costs)


def _per_label_auc(scores, model) -> np.ndarray:
    if isinstance(model, SampledLabels):
        lab = model.labels.T
        pos = np.equal(lab, 1, out=np.empty(lab.shape))  # labels are 0/1, so 1 - pos marks label 0
        return _bipartite_aucs(scores, pos, 1.0 - pos)
    if isinstance(model, EtaTable):
        eta = np.ascontiguousarray(model.eta.T)
        return _bipartite_aucs(scores, eta, 1.0 - eta)
    if isinstance(model, JointLabelModel):
        return _per_label_auc(scores, model.marginal_eta())
    raise TypeError(f"unsupported label model {model!r}")


def loss_agg_auc(scores, model, weights) -> float:
    """Weighted sum of per-label AUCs (unnormalized, as defined)."""
    per_label = _per_label_auc(scores, model)
    return float(_positive_weights(weights, per_label.shape[0]) @ per_label)


def label_agg_auc(scores, model, aggregator: Aggregator, costs: CostMatrix) -> float:
    """Multipartite AUC of the aggregated label."""
    if isinstance(model, SampledLabels):
        return multipartite_auc(scores, aggregate_labels(model, aggregator), costs)
    if isinstance(model, EtaTable):
        model = JointLabelModel.from_eta(model)
    if isinstance(model, JointLabelModel):
        return multipartite_auc_population(scores, aggregate_distribution(model, aggregator), costs)
    raise TypeError(f"unsupported label model {model!r}")


@dataclass(frozen=True)
class AucReport:
    """Per-label AUCs with the balance diagnostics used in the sweeps."""

    per_label: np.ndarray
    diff: float | None
    min: float

    def __post_init__(self):
        arr = np.asarray(self.per_label, dtype=float)
        arr.setflags(write=False)
        object.__setattr__(self, "per_label", arr)


def auc_report(scores, model) -> AucReport:
    per_label = _per_label_auc(scores, model)
    diff = float(abs(per_label[0] - per_label[1])) if per_label.shape[0] == 2 else None
    return AucReport(per_label=per_label, diff=diff, min=float(per_label.min()))


def pareto_dominates(g_aucs, f_aucs) -> bool:
    g = np.asarray(g_aucs, dtype=float)
    f = np.asarray(f_aucs, dtype=float)
    if g.shape != f.shape:
        raise ValueError("vectors must have equal length")
    return bool(np.all(g >= f) and np.any(g > f))


def pareto_front(candidates) -> list[int]:
    """Indices of candidates not dominated by any other (duplicates retained)."""
    vecs = np.asarray(candidates, dtype=float)
    if len(vecs) == 0:
        raise ValueError("need at least one candidate")
    vecs = vecs.reshape(len(vecs), -1)
    # a duplicate of v is >= v everywhere but > nowhere, so it never dominates v
    return [
        i
        for i, v in enumerate(vecs)
        if not ((vecs >= v).all(axis=1) & (vecs > v).any(axis=1)).any()
    ]


def population_pair_weights(model, objective) -> tuple[np.ndarray, float]:
    """Pair-weight matrix W and normalizer Z for a population objective.

    The objective value of a score vector s is (W * H(s)).sum() / Z, with
    H over all ordered pairs including i = j. W = u v^T for the weight
    columns the AUC kernel sums over: eta a_k / (n^2 pi_k (1 - pi_k)) and
    1 - eta per label, or the aggregate law and its cost-weighted lower
    levels. This single quadratic form is what the exhaustive weak-order
    maximizer optimizes.
    """
    if isinstance(model, EtaTable):
        model = JointLabelModel.from_eta(model)
    if not isinstance(model, JointLabelModel):
        raise TypeError("population weights need a probability model")
    if isinstance(objective, (PerLabel, LossAgg)):
        if isinstance(objective, PerLabel):
            labels, a = [objective.k], np.ones(1)
        else:
            labels, a = list(range(model.K)), np.asarray(objective.weights)
            if a.shape[0] != model.K:
                raise ValueError("weight count must match K")
        eta = model.marginal_eta().eta[:, labels]
        pi = eta.mean(axis=0)
        bad = np.flatnonzero((pi <= 0.0) | (pi >= 1.0))
        if bad.size:
            raise DegenerateLabel(f"label {labels[bad[0]]} has prior {pi[bad[0]]}")
        n = model.n
        return (eta * (a / (pi * (1.0 - pi) * n * n))) @ (1.0 - eta).T, 1.0
    if isinstance(objective, LabelAgg):
        probs = aggregate_distribution(model, objective.aggregator).probs
        w = probs @ _cost_lower(probs, objective.costs).T
        total = w.sum()
        if total == 0.0:
            raise DegenerateLabel("aggregate label is degenerate under these costs")
        return w, float(total)
    raise TypeError(f"unsupported objective {objective!r}")
