"""AUC objectives in empirical and population form, plus Pareto machinery.

Conventions, kept consistent per path:
  - empirical sums range over ordered pairs with i != j (a point never
    ranks against itself);
  - population sums range over all ordered pairs including i = j with
    H(0) = 1/2, matching an expectation over two i.i.d. draws;
  - ties use exact floating-point equality, and +inf scores rank above
    every finite score (ties among +inf entries count 1/2); NaN scores are
    rejected with ValueError;
  - scores are a TableScorer or an array of n floats. Other Scorers map
    features, which these functions never see: pass scorer.scores(instances).

Every AUC goes through one sort-and-tie-grouping front end, _ranked. Sampled
0/1 labels then count their pairs exactly as integer Mann-Whitney rank sums;
every other AUC is a weighted pair sum sum_ij u_i v_j H(s_i - s_j), reduced
by weighted cumulative sums. _weight_rows builds a population objective's
rows u and v once, with its checks; the population AUCs and the oracle's
values read them, and _pair_matrix turns them into the dense n x n matrix W
that only the oracle's subset DP reads.
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
    TableScorer,
    _positive_weights,
    _require_cells,
    aggregate_distribution,
    aggregate_labels,
)
from .errors import DegenerateLabel

__all__ = [
    "AucReport",
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


def _checked_scores(scores: TableScorer | np.ndarray, n: int) -> np.ndarray:
    """A TableScorer's or array's scores as a float vector; ValueError unless n long and NaN-free."""
    s = np.asarray(scores.values if isinstance(scores, TableScorer) else scores, dtype=float)
    if s.ndim != 1:
        raise ValueError(f"scores must be a vector, got shape {s.shape}")
    if s.shape[0] != n:
        raise ValueError(f"{s.shape[0]} scores for {n} instances")
    if n == 0:
        raise DegenerateLabel("no instances to rank")
    if np.isnan(s).any():
        raise ValueError("scores must not be NaN")
    return s


def _ranked(scores, n: int) -> tuple[np.ndarray, np.ndarray | None]:
    """The sort order of n scores and the start of each run of exactly tied
    sorted scores, or None when no two scores tie."""
    s = _checked_scores(scores, n)
    order = np.argsort(s)
    ranked = s[order]
    new_value = ranked[1:] != ranked[:-1]
    if new_value.all():
        return order, None
    return order, np.flatnonzero(np.concatenate(([True], new_value)))


def _pair_sums(scores, u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Weighted pair counts for each weight row l of u and v (both L x n).

    Returns (sums, pairs): sums[l] = sum_ij u[l, i] v[l, j] H(s_i - s_j)
    over all ordered pairs, and pairs[l] = sum_i u[l, i] * sum_j v[l, j].
    Per run of tied scores g, U_g . (V strictly below + V_g / 2) is the
    weighted Mann-Whitney count. Pairs i = j count 1/2, so callers
    with i != j conventions pass weights that vanish on the diagonal.
    Any memory layout gives the same bits; C-contiguous rows gather fastest.
    """
    order, starts = _ranked(scores, u.shape[1])
    u_groups = np.take(u, order, axis=1)
    v_groups = np.take(v, order, axis=1)
    if starts is not None:
        # sum each run of tied scores into one column
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


def _label_aucs(scores, labels) -> np.ndarray:
    """Per-column AUCs of an n x K 0/1 label matrix, counted as integer rank sums.

    A positive in the run of tied sorted scores g (0-based start b_g, size
    m_g) has twice its midrank equal to 2 b_g + m_g - 1, or 2i at sorted
    position i without ties. Twice the Mann-Whitney count is then
    2S = sum over positives of twice the midrank - P (P - 1) for P
    positives, exact in int64, and the AUC is (2S / 2) / (P N) for N
    negatives. The float pair sums of the same 0/1 weights are half-integers
    below 2^53, so they are exact too and give these bits. The rank sum
    reads each label's sorted positive positions (P long), with no n-long
    rank vector and no integer copy of a label row: without ties it is
    twice their sum, and with ties each run's twice midrank times its
    count of positives.
    """
    rows = np.ascontiguousarray(np.asarray(labels).T, dtype=bool)
    n = rows.shape[1]
    order, starts = _ranked(scores, n)
    # the labels in score order; the order is dropped before the rank sums
    rows = np.take(rows, order, axis=1)
    del order
    n_pos = np.count_nonzero(rows, axis=1)
    n_neg = n - n_pos
    bad = np.flatnonzero((n_pos == 0) | (n_neg == 0))
    if bad.size:
        raise DegenerateLabel(f"label {bad[0]} needs positive and negative examples")
    if starts is not None:
        twice_run_rank = 2 * starts + np.diff(starts, append=n) - 1
    twice_sums = []
    for row in rows:
        at = np.flatnonzero(row)
        if starts is None:
            twice_sums.append(2 * int(at.sum()))
        else:
            # positives in run g: those before run g + 1 starts less those before run g starts
            before = np.searchsorted(at, starts)
            twice_sums.append(int(np.diff(before, append=at.size) @ twice_run_rank))
    twice_count = np.array(twice_sums) - n_pos * (n_pos - 1)
    return (twice_count / 2) / (n_pos * n_neg)


def _level_rows(probs: np.ndarray, costs: CostMatrix) -> tuple[np.ndarray, np.ndarray, None]:
    """Weight rows of the cost-weighted pair accuracy over per-level weights probs (n x levels).

    Row m pairs u = probs[:, m] with v = sum over m' < m of c[m, m'] probs[:, m'], with no row
    weights; raises DegenerateLabel when no discordant pair carries positive cost.
    """
    levels = probs.shape[1]
    if costs.size < levels:
        raise ValueError("cost matrix smaller than the ordinal alphabet")
    lower = probs @ np.tril(costs.costs[:levels, :levels], -1).T
    # probabilities and costs are >= 0, so a column is nonzero exactly when its sum is;
    # one matrix-vector product sums C-ordered columns far faster than any(axis=0)
    ones = np.ones(probs.shape[0])
    if not ((ones @ probs != 0) & (ones @ lower != 0)).any():
        raise DegenerateLabel("no discordant pair carries positive cost")
    return probs.T, lower.T, None


def _label_weights(objective, K: int) -> tuple[list[int], np.ndarray]:
    """The labels a PerLabel or LossAgg objective reads, and their checked weights."""
    if isinstance(objective, PerLabel):
        if not 0 <= objective.k < K:
            raise ValueError(f"label index {objective.k} is not in 0..{K - 1}")
        return [objective.k], np.ones(1)
    if isinstance(objective, LossAgg):
        return list(range(K)), _positive_weights(objective.weights, K)
    raise TypeError(f"unsupported objective {objective!r}")


def _weight_rows(model, objective) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """The pair kernel's weight rows u and v (L x n) of a population objective, and its row weights a.

    PerLabel and LossAgg read eta_k and 1 - eta_k for each label k they
    weight, from a JointLabelModel's marginals, and raise DegenerateLabel
    when a label has no positive or no negative weight. LabelAgg reads the
    _level_rows of the aggregate law.
    """
    if not isinstance(model, (EtaTable, JointLabelModel)):
        raise TypeError(f"unsupported label model {model!r}")
    if isinstance(objective, LabelAgg):
        return _level_rows(aggregate_distribution(model, objective.aggregator).probs, objective.costs)
    labels, a = _label_weights(objective, model.K)
    eta = (model.marginal_eta() if isinstance(model, JointLabelModel) else model).eta
    u = eta[:, labels].T
    v = 1.0 - u
    bad = np.flatnonzero(~(u.any(axis=1) & v.any(axis=1)))
    if bad.size:
        raise DegenerateLabel(f"label {labels[bad[0]]} needs positive and negative weight")
    return u, v, a


def _objective_value(scores, rows) -> float:
    """a @ (sums / pairs) of _pair_sums over weight rows (u, v, a), or sums.sum() / pairs.sum() if a is None."""
    u, v, a = rows
    sums, pairs = _pair_sums(scores, u, v)
    return float(sums.sum() / pairs.sum() if a is None else a @ (sums / pairs))


def bipartite_auc_empirical(scores: TableScorer | np.ndarray, labels) -> float:
    """Fraction of (positive, negative) pairs ranked correctly, ties half."""
    y = np.asarray(labels)
    if not ((y == 0) | (y == 1)).all():
        raise ValueError("bipartite labels must be 0/1")
    return float(_label_aucs(scores, y[:, None])[0])


def bipartite_auc_population(scores: TableScorer | np.ndarray, eta_column) -> float:
    """Pairwise-weight AUC under per-instance positive probabilities."""
    model = EtaTable(np.asarray(eta_column, dtype=float)[:, None])
    return _objective_value(scores, _weight_rows(model, PerLabel(0)))


def multipartite_auc(scores: TableScorer | np.ndarray, ordinal_labels, costs: CostMatrix) -> float:
    """Cost-weighted pair accuracy over ordinal labels, normalized to [0, 1]."""
    y = np.asarray(ordinal_labels)
    if not ((y >= 0) & (np.mod(y, 1) == 0)).all():
        raise ValueError("ordinal labels must be non-negative integers")
    return _objective_value(scores, _level_rows((y[:, None] == np.arange(y.max() + 1)).astype(float), costs))


def multipartite_auc_population(
    scores: TableScorer | np.ndarray, dist: AggregateDistribution, costs: CostMatrix
) -> float:
    return _objective_value(scores, _level_rows(dist.probs, costs))


def loss_agg_auc(scores: TableScorer | np.ndarray, model, weights) -> float:
    """Weighted sum of per-label AUCs (unnormalized, as defined)."""
    objective = LossAgg(weights)
    if isinstance(model, SampledLabels):
        return float(_label_weights(objective, model.K)[1] @ _label_aucs(scores, model.labels))
    return _objective_value(scores, _weight_rows(model, objective))


def label_agg_auc(scores: TableScorer | np.ndarray, model, aggregator: Aggregator, costs: CostMatrix) -> float:
    """Multipartite AUC of the aggregated label."""
    if isinstance(model, SampledLabels):
        return multipartite_auc(scores, aggregate_labels(model, aggregator), costs)
    return _objective_value(scores, _weight_rows(model, LabelAgg(aggregator, costs)))


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


def auc_report(scores: TableScorer | np.ndarray, model) -> AucReport:
    if isinstance(model, SampledLabels):
        per_label = _label_aucs(scores, model.labels)
    else:
        sums, pairs = _pair_sums(scores, *_weight_rows(model, LossAgg((1.0,) * model.K))[:2])
        per_label = sums / pairs
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
    """Pair-weight matrix W and normalizer Z for a population objective: the _pair_matrix of its _weight_rows."""
    return _pair_matrix(_weight_rows(model, objective))


def _pair_matrix(rows) -> tuple[np.ndarray, float]:
    """W and Z from weight rows (u, v, a): the objective at scores s is (W * H(s)).sum() / Z,
    with H over all ordered pairs including i = j.

    W = sum_l c_l u_l v_l^T, with c_l = a_l / (sum u_l * sum v_l) and Z = 1
    given row weights a, else c_l = 1 and Z = W.sum(). Only the exhaustive
    oracle's subset DP reads W. Raises TooLarge before building it if its
    n^2 cells pass the cell cap.
    """
    u, v, a = rows
    n = u.shape[1]
    _require_cells(n * n, f"the pair-weight matrix of {n} instances")
    if a is None:
        w = u.T @ v
        return w, float(w.sum())
    return (u.T * (a / (u.sum(axis=1) * v.sum(axis=1)))) @ v, 1.0
