import functools
import itertools
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rankagg import (
    BudgetExceeded,
    CostMatrix,
    EtaTable,
    LabelAgg,
    LossAgg,
    PerLabel,
    SampledLabels,
    Sum,
    TooLarge,
    bipartite_auc_empirical,
    certify_bayes,
    evaluate_bound,
    gap_bound,
    label_agg_bayes_scorer_sum,
    loss_agg_bayes_scorer,
    maximizer_sets,
    measure_gap,
    optimal_weak_order,
    optimal_weak_order_for,
)
from rankagg.metrics import pareto_front, population_pair_weights
from rankagg.oracle import (
    MAX_EXHAUSTIVE_N,
    OracleScan,
    _occupancies,
    auc_scatter,
    build_hypothesis_space,
    index_equal,
    index_subset,
    scan_hypotheses,
)
from conftest import h_matrix

FUBINI = {1: 1, 2: 3, 3: 13, 4: 75, 5: 541, 6: 4683}


@functools.cache
def _weak_orders(n: int) -> np.ndarray:
    """Every weak order of n items as a dense rank vector, by brute force."""
    ranks = np.array(list(itertools.product(range(n), repeat=n)))
    dense = [set(row) == set(range(max(row) + 1)) for row in ranks.tolist()]
    return ranks[dense]


def _order_values(w: np.ndarray, ranks: np.ndarray) -> np.ndarray:
    """sum_ij W_ij H(r_i - r_j) for each rank vector (row of ranks)."""
    above = ranks[:, :, None] > ranks[:, None, :]
    tied = ranks[:, :, None] == ranks[:, None, :]
    return ((above + 0.5 * tied) * w).sum(axis=(1, 2))


@pytest.mark.parametrize("n", range(1, 7))
def test_weak_order_counts_match_fubini_numbers(n):
    ranks = _weak_orders(n)
    assert ranks.shape == (FUBINI[n], n)
    assert len({tuple(r) for r in ranks.tolist()}) == FUBINI[n]


def test_weak_order_limit():
    optimal_weak_order(np.ones((MAX_EXHAUSTIVE_N, MAX_EXHAUSTIVE_N)))
    with pytest.raises(TooLarge):
        optimal_weak_order(np.ones((MAX_EXHAUSTIVE_N + 1, MAX_EXHAUSTIVE_N + 1)))


_UNIFORM3 = LabelAgg(Sum(), CostMatrix.uniform(3))


@pytest.mark.parametrize(
    "entry",
    [
        lambda eta: certify_bayes(eta.eta.sum(axis=1), eta, _UNIFORM3),
        lambda eta: optimal_weak_order_for(eta, LossAgg((1.0, 1.0))),
        lambda eta: population_pair_weights(eta, PerLabel(0)),
        lambda eta: population_pair_weights(eta, _UNIFORM3),
        lambda eta: gap_bound(eta, np.ones(2)),
        lambda eta: measure_gap(eta, np.ones(2)),
        lambda eta: evaluate_bound(eta, np.ones(2)),
    ],
    ids=["certify_bayes", "optimal_weak_order_for", "pair_weights_per_label", "pair_weights_label_agg",
         "gap_bound", "measure_gap", "evaluate_bound"],
)
def test_oversized_instance_sets_fail_before_any_pair_matrix(entry):
    # one n x n float matrix at n = 5000 is 200 MB
    eta = EtaTable(np.random.default_rng(0).uniform(0.2, 0.8, (5000, 2)))
    tracemalloc.start()
    try:
        with pytest.raises(TooLarge):
            entry(eta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


weight_entries = st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0]) | st.floats(-2.0, 2.0)


@settings(deadline=None, max_examples=150)
@given(st.integers(1, 6), st.data())
def test_subset_dp_matches_brute_force_enumeration(n, data):
    # repeated entries make ties; zero rows leave items free to sit anywhere
    w = data.draw(arrays(np.float64, (n, n), elements=weight_entries))
    w[data.draw(arrays(bool, n))] = 0.0
    scorer, value = optimal_weak_order(w)
    best = _order_values(w, _weak_orders(n)).max()
    assert value == pytest.approx(best, abs=1e-12)
    attained = _order_values(w, scorer.scores()[None, :])[0]
    assert attained == pytest.approx(best, abs=1e-12)


def test_optimal_weak_order_beats_random_orders():
    rng = np.random.default_rng(0)
    w = rng.uniform(0.0, 1.0, (6, 6))
    _, best = optimal_weak_order(w)
    for _ in range(1000):
        scores = rng.integers(0, 6, 6).astype(float)
        assert (w * h_matrix(scores)).sum() <= best + 1e-12


def test_certify_accepts_closed_form_scorers():
    rng = np.random.default_rng(1)
    for trial in range(10):
        eta = EtaTable(rng.uniform(0.05, 0.95, (6, 2)))
        loss = certify_bayes(loss_agg_bayes_scorer(eta), eta, LossAgg((1.0, 1.0)))
        assert loss.optimal, loss.gap
        agg = certify_bayes(
            label_agg_bayes_scorer_sum(eta),
            eta,
            LabelAgg(Sum(), CostMatrix.absdiff(3)),
        )
        assert agg.optimal, agg.gap


def test_certify_flags_a_bad_scorer():
    eta = EtaTable(np.array([[0.9, 0.9], [0.1, 0.1], [0.5, 0.5]]))
    backwards = np.array([0.0, 2.0, 1.0])
    result = certify_bayes(backwards, eta, PerLabel(0))
    assert not result.optimal and result.gap > 0


def test_certify_rejects_score_arrays_the_metrics_reject():
    eta = EtaTable(np.random.default_rng(4).uniform(0.1, 0.9, (6, 2)))
    objective = LossAgg((1.0, 1.0))
    # a 1-element array used to broadcast through the dense pair matrix
    with pytest.raises(ValueError, match="1 scores for 6 instances"):
        certify_bayes(np.array([0.5]), eta, objective)
    with pytest.raises(ValueError, match="scores must not be NaN"):
        certify_bayes(np.array([0.1, 0.2, np.nan, 0.4, 0.5, 0.6]), eta, objective)
    with pytest.raises(ValueError, match="scores must be a vector"):
        certify_bayes(np.zeros((6, 1)), eta, objective)


def test_optimal_weak_order_for_single_label_is_eta_order():
    eta = EtaTable(np.array([[0.9], [0.1], [0.5]]))
    scorer, value = optimal_weak_order_for(eta, PerLabel(0))
    ranks = scorer.scores()
    assert ranks[0] > ranks[2] > ranks[1]
    w, z = population_pair_weights(eta, PerLabel(0))
    assert value == pytest.approx((w * h_matrix(eta.eta[:, 0])).sum() / z)


def _demo_labels():
    # 2 both-positive, 2 both-negative, 2+2 disagreeing rows
    return SampledLabels(
        np.array(
            [[1, 1], [1, 1], [0, 0], [0, 0], [1, 0], [1, 0], [0, 1], [0, 1]]
        )
    )


def test_hypothesis_space_shape_and_budget():
    space = build_hypothesis_space(_demo_labels(), P=3)
    assert space.M == 4 and space.total == 81 and space.classes == 36
    assert build_hypothesis_space(_demo_labels(), P=3, budget=36).classes == 36
    with pytest.raises(BudgetExceeded):
        build_hypothesis_space(_demo_labels(), P=3, budget=35)


def _direct_counts(scores: np.ndarray, y: np.ndarray) -> np.ndarray:
    """2 * correctly ranked plus tied (positive, negative) pairs, per score row."""
    diff = scores[:, y == 1, None] - scores[:, None, y == 0]
    return 2 * (diff > 0).sum(axis=(1, 2)) + (diff == 0).sum(axis=(1, 2))


@settings(deadline=None, max_examples=40)
@given(
    st.sampled_from([2, 3, 4]),
    st.integers(0, 4),
    st.integers(0, 4),
    st.integers(1, 3),
    st.integers(0, 3),
    st.randoms(use_true_random=False),
)
@example(4, 4, 4, 2, 2, random.Random(0))  # the largest grid: 4^8 assignments
def test_scan_matches_direct_pair_counting(P, a, b, g1, g0, rnd):
    assume(g0 + a > 0 and g0 + b > 0)
    rows = [[1, 1]] * g1 + [[0, 0]] * g0 + [[1, 0]] * a + [[0, 1]] * b
    rnd.shuffle(rows)
    labels = np.array(rows)
    space = build_hypothesis_space(SampledLabels(labels), P)
    scan = scan_hypotheses(space)
    assert scan.count_1.size == space.classes
    # every one of the P^M assignments of the disagreeing rows
    grid = np.array(list(itertools.product(range(P), repeat=a + b)), dtype=float).reshape(P ** (a + b), a + b)
    scores = np.zeros((grid.shape[0], labels.shape[0]))
    scores[:, space.idx_11] = P
    scores[:, np.concatenate([space.idx_a, space.idx_b])] = grid
    # each assignment's class, from the per-value occupancy of each group
    index_a = {tuple(o): i for i, o in enumerate(_occupancies(a, P)[0].tolist())}
    index_b = {tuple(o): i for i, o in enumerate(_occupancies(b, P)[0].tolist())}
    occ = (grid[:, :, None] == np.arange(P)).astype(int)
    classes = np.array([
        index_a[tuple(oa)] * len(index_b) + index_b[tuple(ob)]
        for oa, ob in zip(occ[:, :a].sum(axis=1).tolist(), occ[:, a:].sum(axis=1).tolist())
    ])
    np.testing.assert_array_equal(np.bincount(classes, minlength=space.classes), scan.multiplicity.astype(np.int64))
    assert scan.multiplicity.sum() == space.total
    np.testing.assert_array_equal(scan.count_1[classes], _direct_counts(scores, labels[:, 0]))
    np.testing.assert_array_equal(scan.count_2[classes], _direct_counts(scores, labels[:, 1]))
    np.testing.assert_array_equal(scan.zeros[classes], (grid == 0).sum(axis=1))
    _, first = np.unique(classes, return_index=True)
    for h in first:
        c = classes[h]
        a1 = bipartite_auc_empirical(scores[h], labels[:, 0])
        a2 = bipartite_auc_empirical(scores[h], labels[:, 1])
        assert scan.count_1[c] / (2 * scan.denom_1) == pytest.approx(a1, abs=1e-12)
        assert scan.count_2[c] / (2 * scan.denom_2) == pytest.approx(a2, abs=1e-12)


def test_maximizer_set_relations():
    sets = maximizer_sets(_demo_labels(), P=3, weight_grid_max=3)
    eq = sets.loss_agg[(1, 1)]
    lt = sets.loss_agg[(1, 2)]
    gt = sets.loss_agg[(2, 1)]
    assert index_equal(eq, sets.label_agg_sum)
    assert index_subset(lt, eq) and lt.size < eq.size
    assert index_subset(gt, eq) and gt.size < eq.size
    assert index_subset(eq, sets.label_product)
    assert eq.size < sets.label_product.size
    assert lt.size == 1 and gt.size == 1


def test_loss_agg_maximizers_lie_on_the_pareto_front():
    sets = maximizer_sets(_demo_labels(), P=3, weight_grid_max=3)
    scan = sets.scan
    pairs = np.stack([scan.count_1, scan.count_2], axis=1).astype(float)
    front = set(pareto_front(pairs))
    for weight_pair, indices in sets.loss_agg.items():
        for h in indices:
            assert int(h) in front, (weight_pair, h)


def test_auc_scatter_front_flags():
    sets = maximizer_sets(_demo_labels(), P=3, weight_grid_max=2)
    auc_1, auc_2, counts, on_front = auc_scatter(sets.scan)
    assert counts.sum() == sets.scan.space.total
    best_1 = auc_1.max()
    # the best label-1 point must be on the front
    assert on_front[np.argmax(auc_1 + 1e-9 * auc_2)]
    assert np.all(auc_1 <= 1.0) and np.all(auc_2 <= 1.0)
    assert best_1 > 0.5


@settings(deadline=None, max_examples=150)
@given(arrays(np.int64, st.tuples(st.integers(1, 40), st.just(2)), elements=st.integers(0, 6)), st.data())
def test_auc_scatter_front_matches_pareto_front(pairs, data):
    # small entries make duplicate pairs, which pareto_front keeps
    mult = np.array(data.draw(st.lists(st.integers(1, 2**70), min_size=len(pairs), max_size=len(pairs))), dtype=object)
    scan = OracleScan(None, pairs[:, 0], pairs[:, 1], np.zeros(len(pairs)), mult, 1, 1)
    auc_1, auc_2, counts, on_front = auc_scatter(scan)
    uniq = [(int(2 * x), int(2 * y)) for x, y in zip(auc_1, auc_2)]
    # cmd_oracle writes the rows in this order without sorting them
    rows = list(zip(auc_1.tolist(), auc_2.tolist()))
    assert all(a < b for a, b in zip(rows, rows[1:]))
    assert {uniq[i] for i in np.flatnonzero(on_front)} == {tuple(pairs[i]) for i in pareto_front(pairs)}
    raw = [tuple(p) for p in pairs.tolist()]
    assert counts.tolist() == [sum(m for p, m in zip(raw, mult) if p == u) for u in uniq]
