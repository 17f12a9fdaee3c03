"""Brute-force certification machinery.

Two exhaustive searches live here:
  - the best weak order over n <= 12 instances, the exact maximizer of any
    population pairwise objective (a scorer on n points is a weak order, so
    this search is complete), by dynamic programming over subsets;
  - the bi-level hypothesis grid for deterministic two-label data, used
    to compare the maximizer sets of the competing objectives; it is
    enumerated by occupancy classes, not one hypothesis at a time.

Weak-order search in the style of Held and Karp (1962): f(T), the best
objective over items T, is the maximum over nonempty top blocks B of T of
f(T - B) + W(B -> T - B) + W(B, B) / 2, which costs O(3^n). Argmax ties
(equal floats) go to the top block with the smallest bitmask, item i being
bit i; the winning order is rebuilt from these choices, top block first.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import SampledLabels, TableScorer
from .errors import BudgetExceeded, DegenerateLabel, TooLarge
from .metrics import _checked_scores, h_matrix, population_pair_weights

__all__ = [
    "MAX_EXHAUSTIVE_N",
    "DEFAULT_BUDGET",
    "optimal_weak_order",
    "optimal_weak_order_for",
    "CertifyResult",
    "certify_bayes",
    "HypothesisSpace",
    "build_hypothesis_space",
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
    scorer_value = float((w * h_matrix(_checked_scores(scorer, w.shape[0]))).sum() / z)
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
    maximizer-set relations among the objectives are exact. Every pair
    count depends only on how many rows of each disagreement group sit at
    each value, so the grid is scanned by these occupancy classes.
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
    def classes(self) -> int:
        a, b, P = self.idx_a.size, self.idx_b.size, self.P
        return math.comb(a + P - 1, P - 1) * math.comb(b + P - 1, P - 1)


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
    if space.classes > budget:
        raise BudgetExceeded(space.classes, budget)
    return space


def _occupancies(rows: int, P: int) -> tuple[np.ndarray, np.ndarray]:
    """Every count vector of rows items over P values, with its multinomial.

    Stars and bars: P - 1 bars among rows + P - 1 slots; the gaps between
    them are the counts. Multinomials are exact Python ints (object array).
    """
    occ, mult = [], []
    for bars in itertools.combinations(range(rows + P - 1), P - 1):
        edges = (-1, *bars, rows + P - 1)
        occ.append([hi - lo - 1 for lo, hi in zip(edges, edges[1:])])
        mult.append(math.factorial(rows) // math.prod(map(math.factorial, occ[-1])))
    return np.array(occ, dtype=np.int64), np.array(mult, dtype=object)


@dataclass(frozen=True)
class OracleScan:
    """Integer pair counts for every occupancy class.

    Class c pairs occupancy c // C_b of the (1, 0) rows with occupancy
    c % C_b of the C_b occupancies of the (0, 1) rows.
    For label k, count_k[c] is twice the number of correctly ranked
    (positive, negative) pairs plus the number of tied pairs, so the
    per-label AUC is count_k / (2 * denom_k). zeros[c] counts disagreeing
    rows at score 0; multiplicity[c], a Python int, counts its hypotheses.
    """

    space: HypothesisSpace
    count_1: np.ndarray
    count_2: np.ndarray
    zeros: np.ndarray
    multiplicity: np.ndarray
    denom_1: int
    denom_2: int


def scan_hypotheses(space: HypothesisSpace) -> OracleScan:
    """Pair counting over every occupancy class of the hypothesis grid.

    Pairs within the pinned groups and against them depend only on each
    group's count at score 0; pairs across the disagreement groups are
    matrix products of one group's occupancies with the other's.
    """
    g1, g0 = space.idx_11.size, space.idx_00.size
    a, b = space.idx_a.size, space.idx_b.size
    denom_1 = (g1 + a) * (g0 + b)
    denom_2 = (g1 + b) * (g0 + a)
    if denom_1 == 0 or denom_2 == 0:
        raise DegenerateLabel("a label has a single class; AUCs undefined")
    occ_a, mult_a = _occupancies(a, space.P)
    occ_b, mult_b = _occupancies(b, space.P)
    below_a = np.cumsum(occ_a, axis=1) - occ_a  # A rows strictly below value v
    below_b = np.cumsum(occ_b, axis=1) - occ_b
    ties = (occ_a @ occ_b.T).ravel()
    cross_ab = (occ_a @ below_b.T).ravel()  # A above B
    cross_ba = (below_a @ occ_b.T).ravel()  # B above A
    n0a = np.repeat(occ_a[:, 0], occ_b.shape[0])
    n0b = np.tile(occ_b[:, 0], occ_a.shape[0])
    const_1 = 2 * g1 * g0 + 2 * g1 * b + 2 * a * g0
    const_2 = 2 * g1 * g0 + 2 * g1 * a + 2 * b * g0
    count_1 = const_1 - g0 * n0a + 2 * cross_ab + ties
    count_2 = const_2 - g0 * n0b + 2 * cross_ba + ties
    multiplicity = np.multiply.outer(mult_a, mult_b).ravel()
    return OracleScan(space, count_1, count_2, n0a + n0b, multiplicity, denom_1, denom_2)


@dataclass(frozen=True)
class MaximizerSets:
    """Argmax class-index sets over the hypothesis grid, per objective.

    Each set is a union of nonempty classes, so fewer classes within a
    superset means a proper subset of hypotheses. loss_agg maps each
    weight pair to the maximizers of the unnormalized weighted correct-pair
    count a1*count_1 + a2*count_2 (integer arithmetic, so ties are exact).
    label_agg_sum uses uniform costs on the summed label; label_product
    uses the AND label.
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
    label_product = np.arange(scan.count_1.size, dtype=np.int64)
    return MaximizerSets(scan, loss_agg, label_agg_sum, label_product)


def index_subset(a: np.ndarray, b: np.ndarray) -> bool:
    return bool(np.isin(a, b).all())


def index_equal(a: np.ndarray, b: np.ndarray) -> bool:
    return a.size == b.size and bool(np.array_equal(np.sort(a), np.sort(b)))


def auc_scatter(scan: OracleScan) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Unique per-label AUC pairs with multiplicities and a frontier flag.

    Returns (auc_1, auc_2, count, on_front); count sums the classes'
    multiplicities as Python ints. The unique integer count pairs come
    sorted by count_1, then count_2, so a pair is on the front iff its
    count_2 exceeds every count_2 after it.
    """
    pairs = np.stack([scan.count_1, scan.count_2], axis=1)
    uniq, inverse = np.unique(pairs, axis=0, return_inverse=True)
    counts = np.zeros(uniq.shape[0], dtype=object)
    np.add.at(counts, inverse.ravel(), scan.multiplicity)
    later_max = np.maximum.accumulate(uniq[::-1, 1])[::-1]
    on_front = np.append(uniq[:-1, 1] > later_max[1:], True)
    auc_1 = uniq[:, 0] / (2.0 * scan.denom_1)
    auc_2 = uniq[:, 1] / (2.0 * scan.denom_2)
    return auc_1, auc_2, counts, on_front
