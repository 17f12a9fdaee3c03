"""Brute-force certification machinery.

Two exhaustive searches live here:
  - the best weak order over n <= 12 instances, the exact maximizer of any
    population pairwise objective (a scorer on n points is a weak order, so
    this search is complete), by dynamic programming over subsets;
  - the bi-level hypothesis grid for deterministic two-label data, used
    to compare the maximizer sets of the competing objectives.

Weak-order search in the style of Held and Karp (1962): f(T), the best
objective over items T, is the maximum over nonempty top blocks B of T of
f(T - B) + W(B -> T - B) + W(B, B) / 2, which costs O(3^n). Argmax ties
(equal floats) go to the top block with the smallest bitmask, item i being
bit i; the winning order is rebuilt from these choices, top block first.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .core import SampledLabels, Scorer, TableScorer
from .errors import BudgetExceeded, DegenerateLabel, TooLarge
from .metrics import h_matrix, pareto_front, population_pair_weights

__all__ = [
    "MAX_EXHAUSTIVE_N",
    "DEFAULT_BUDGET",
    "optimal_weak_order",
    "optimal_weak_order_for",
    "CertifyResult",
    "certify_bayes",
    "HypothesisSpace",
    "build_hypothesis_space",
    "enumerate_hypotheses",
    "hypothesis_scores",
    "OracleScan",
    "scan_hypotheses",
    "MaximizerSets",
    "maximizer_sets",
    "index_subset",
    "index_equal",
    "auc_scatter",
]

MAX_EXHAUSTIVE_N = 12  # 3^12 = 531,441 (subset, top block) pairs
DEFAULT_BUDGET = 10**7


def optimal_weak_order(weights: np.ndarray, normalizer: float = 1.0) -> tuple[TableScorer, float]:
    """Exact maximizer of sum_ij W_ij H(s_i - s_j) / Z over all scorers."""
    w = np.asarray(weights, dtype=float)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValueError("need a square weight matrix")
    n = w.shape[0]
    if n < 1:
        raise ValueError("need n >= 1")
    if n > MAX_EXHAUSTIVE_N:
        raise TooLarge(f"{n} instances exceed the exhaustive limit {MAX_EXHAUSTIVE_N}")
    masks = np.arange(1 << n)
    members = ((masks[:, None] >> np.arange(n)) & 1).astype(bool)
    out_weight = members @ w  # row m: sum over i in m of W[i, :]
    inner = (out_weight * members).sum(axis=1)  # W(m, m)
    size = members.sum(axis=1)
    best = np.zeros(1 << n)
    top = np.zeros(1 << n, dtype=np.int64)
    for k in range(1, n + 1):
        subsets = masks[size == k]
        positions = np.nonzero(members[subsets])[1].reshape(-1, k)
        choice = (np.arange(1, 1 << k)[:, None] >> np.arange(k)) & 1
        # blocks[t, c]: the c-th nonempty submask of subsets[t], ascending
        blocks = (choice @ (1 << positions).T).T
        rest = subsets[:, None] ^ blocks
        # f(T - B) + W(B -> T - B) + W(B, B) / 2 for every top block B of T
        values = best[rest] + (out_weight[blocks] * members[rest]).sum(axis=2) + 0.5 * inner[blocks]
        pick = values.argmax(axis=1)
        rows = np.arange(subsets.size)
        best[subsets] = values[rows, pick]
        top[subsets] = blocks[rows, pick]
    order, remaining = [], masks[-1]
    while remaining:
        order.append(top[remaining])
        remaining ^= top[remaining]
    scores = np.zeros(n)
    for level, block in enumerate(reversed(order)):
        scores[members[block]] = level
    # re-evaluate through the shared matrix path so values are comparable
    # bit-for-bit with any other scorer evaluated the same way
    value = float((w * h_matrix(scores)).sum() / normalizer)
    return TableScorer(scores), value


def optimal_weak_order_for(model, objective) -> tuple[TableScorer, float]:
    """Exact maximizer of a population objective on a finite instance set."""
    w, z = population_pair_weights(model, objective)
    return optimal_weak_order(w, z)


@dataclass(frozen=True)
class CertifyResult:
    optimal: bool
    gap: float
    best_value: float
    scorer_value: float
    best_scorer: TableScorer


def certify_bayes(scorer, model, objective, tol: float = 1e-12) -> CertifyResult:
    """Compare a scorer against the exhaustive weak-order maximizer."""
    w, z = population_pair_weights(model, objective)
    best_scorer, best_value = optimal_weak_order(w, z)
    s = scorer.scores() if isinstance(scorer, Scorer) else np.asarray(scorer, dtype=float)
    scorer_value = float((w * h_matrix(s)).sum() / z)
    gap = best_value - scorer_value
    return CertifyResult(
        optimal=gap <= tol,
        gap=gap,
        best_value=best_value,
        scorer_value=scorer_value,
        best_scorer=best_scorer,
    )


@dataclass(frozen=True)
class HypothesisSpace:
    """Score assignments for deterministic two-label data.

    Rows where the labels agree are pinned: score P when both are 1,
    score 0 when both are 0. Each of the M disagreeing rows takes a score
    in {0, ..., P-1}, giving P^M hypotheses; this keeps disagreeing rows
    strictly below the both-positive group, the regime in which the
    maximizer-set relations among the objectives are exact.
    """

    labels: np.ndarray  # n x 2
    P: int
    idx_11: np.ndarray
    idx_00: np.ndarray
    idx_a: np.ndarray  # rows labeled (1, 0)
    idx_b: np.ndarray  # rows labeled (0, 1)

    @property
    def n(self) -> int:
        return self.labels.shape[0]

    @property
    def M(self) -> int:
        return self.idx_a.size + self.idx_b.size

    @property
    def total(self) -> int:
        return self.P**self.M

    @property
    def disagree_rows(self) -> np.ndarray:
        """Disagreeing row indices in increasing order (enumeration digits)."""
        return np.sort(np.concatenate([self.idx_a, self.idx_b]))


def build_hypothesis_space(labels: SampledLabels, P: int, budget: int = DEFAULT_BUDGET) -> HypothesisSpace:
    if labels.K != 2:
        raise ValueError("hypothesis enumeration is defined for two labels")
    if P < 2:
        raise ValueError("need P >= 2")
    lab = labels.labels
    space = HypothesisSpace(
        labels=lab,
        P=P,
        idx_11=np.flatnonzero((lab[:, 0] == 1) & (lab[:, 1] == 1)),
        idx_00=np.flatnonzero((lab[:, 0] == 0) & (lab[:, 1] == 0)),
        idx_a=np.flatnonzero((lab[:, 0] == 1) & (lab[:, 1] == 0)),
        idx_b=np.flatnonzero((lab[:, 0] == 0) & (lab[:, 1] == 1)),
    )
    if space.total > budget:
        raise BudgetExceeded(space.total, budget)
    return space


def _base_scores(space: HypothesisSpace) -> np.ndarray:
    scores = np.zeros(space.n)
    scores[space.idx_11] = float(space.P)
    return scores


def hypothesis_scores(space: HypothesisSpace, index: int) -> TableScorer:
    """Decode a lexicographic hypothesis index into its score table."""
    if not (0 <= index < space.total):
        raise IndexError("hypothesis index out of range")
    scores = _base_scores(space)
    rows = space.disagree_rows
    rem = index
    for pos in range(rows.size - 1, -1, -1):
        scores[rows[pos]] = rem % space.P
        rem //= space.P
    return TableScorer(scores)


def enumerate_hypotheses(space: HypothesisSpace):
    """Yield every hypothesis as a TableScorer, in lexicographic order."""
    rows = space.disagree_rows
    base = _base_scores(space)
    for assignment in itertools.product(range(space.P), repeat=rows.size):
        scores = base.copy()
        scores[rows] = assignment
        yield TableScorer(scores)


@dataclass(frozen=True)
class OracleScan:
    """Integer pair counts for every hypothesis.

    For label k, count_k[h] is twice the number of correctly ranked
    (positive, negative) pairs plus the number of tied pairs, so the
    per-label AUC is count_k / (2 * denom_k). zeros[h] counts disagreeing
    rows assigned score 0.
    """

    space: HypothesisSpace
    count_1: np.ndarray
    count_2: np.ndarray
    zeros: np.ndarray
    denom_1: int
    denom_2: int


def scan_hypotheses(space: HypothesisSpace, batch: int = 1 << 18) -> OracleScan:
    """Vectorized pair counting over the whole hypothesis grid.

    Pairs within the pinned groups and against them depend only on how
    many disagreeing rows sit at each score value, so each hypothesis
    reduces to per-value counts of its two disagreement groups.
    """
    g1, g0 = space.idx_11.size, space.idx_00.size
    a, b = space.idx_a.size, space.idx_b.size
    denom_1 = (g1 + a) * (g0 + b)
    denom_2 = (g1 + b) * (g0 + a)
    if denom_1 == 0 or denom_2 == 0:
        raise DegenerateLabel("a label has a single class; AUCs undefined")
    rows = space.disagree_rows
    in_a = np.isin(rows, space.idx_a)
    cols_a = np.flatnonzero(in_a)
    cols_b = np.flatnonzero(~in_a)
    P, M, total = space.P, space.M, space.total
    powers = P ** np.arange(M - 1, -1, -1, dtype=np.int64)
    count_1 = np.empty(total, dtype=np.int64)
    count_2 = np.empty(total, dtype=np.int64)
    zeros = np.empty(total, dtype=np.int64)
    const_1 = 2 * g1 * g0 + 2 * g1 * b + 2 * a * g0
    const_2 = 2 * g1 * g0 + 2 * g1 * a + 2 * b * g0
    for start in range(0, total, batch):
        idx = np.arange(start, min(start + batch, total), dtype=np.int64)
        vals = (idx[:, None] // powers[None, :]) % P
        # per-value occupancy of each disagreement group
        occ_a = np.stack([(vals[:, cols_a] == v).sum(axis=1) for v in range(P)], axis=1)
        occ_b = np.stack([(vals[:, cols_b] == v).sum(axis=1) for v in range(P)], axis=1)
        below_b = np.cumsum(occ_b, axis=1) - occ_b  # B rows strictly below value v
        below_a = np.cumsum(occ_a, axis=1) - occ_a
        cross_ab = (occ_a * below_b).sum(axis=1)  # A above B
        cross_ba = (occ_b * below_a).sum(axis=1)  # B above A
        ties = (occ_a * occ_b).sum(axis=1)
        n0a, n0b = occ_a[:, 0], occ_b[:, 0]
        sl = slice(start, start + idx.size)
        count_1[sl] = const_1 - g0 * n0a + 2 * cross_ab + ties
        count_2[sl] = const_2 - g0 * n0b + 2 * cross_ba + ties
        zeros[sl] = n0a + n0b
    return OracleScan(space, count_1, count_2, zeros, denom_1, denom_2)


@dataclass(frozen=True)
class MaximizerSets:
    """Argmax index sets over the hypothesis grid, per objective.

    loss_agg maps each weight pair to the maximizers of the unnormalized
    weighted correct-pair count a1*count_1 + a2*count_2 (integer
    arithmetic, so ties are exact). label_agg_sum uses uniform costs on
    the summed label; label_product uses the AND label.
    """

    scan: OracleScan
    loss_agg: dict
    label_agg_sum: np.ndarray
    label_product: np.ndarray


def maximizer_sets(
    labels: SampledLabels,
    P: int = 3,
    weight_grid_max: int = 5,
    budget: int = DEFAULT_BUDGET,
) -> MaximizerSets:
    space = build_hypothesis_space(labels, P, budget)
    scan = scan_hypotheses(space)
    g1, g0 = space.idx_11.size, space.idx_00.size
    if g1 == 0:
        raise DegenerateLabel("no both-positive row; product objective undefined")
    loss_agg = {}
    for a1 in range(1, weight_grid_max + 1):
        for a2 in range(1, weight_grid_max + 1):
            key = a1 * scan.count_1 + a2 * scan.count_2
            loss_agg[(a1, a2)] = np.flatnonzero(key == key.max())
    # summed label, uniform costs: only a score-0 disagreeing row can tie
    # with the both-zero group, so the count is constant minus g0 * zeros
    laa_key = -g0 * scan.zeros
    label_agg_sum = np.flatnonzero(laa_key == laa_key.max())
    # AND label: the both-positive group is pinned strictly above every
    # other row, so every hypothesis attains the maximum
    label_product = np.arange(space.total, dtype=np.int64)
    return MaximizerSets(scan, loss_agg, label_agg_sum, label_product)


def index_subset(a: np.ndarray, b: np.ndarray) -> bool:
    return bool(np.isin(a, b).all())


def index_equal(a: np.ndarray, b: np.ndarray) -> bool:
    return a.size == b.size and bool(np.array_equal(np.sort(a), np.sort(b)))


def auc_scatter(scan: OracleScan) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Unique per-label AUC pairs with multiplicities and a frontier flag.

    Returns (auc_1, auc_2, count, on_front); the front is computed over
    the unique integer count pairs, exactly (they are far below 2^53, so
    pareto_front's float64 copy holds them exactly).
    """
    pairs = np.stack([scan.count_1, scan.count_2], axis=1)
    uniq, counts = np.unique(pairs, axis=0, return_counts=True)
    on_front = np.zeros(uniq.shape[0], dtype=bool)
    on_front[pareto_front(uniq)] = True
    auc_1 = uniq[:, 0] / (2.0 * scan.denom_1)
    auc_2 = uniq[:, 1] / (2.0 * scan.denom_2)
    return auc_1, auc_2, counts, on_front
