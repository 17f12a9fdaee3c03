import functools
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
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
    certify_bayes,
    label_agg_bayes_scorer_sum,
    loss_agg_bayes_scorer,
    maximizer_sets,
    optimal_weak_order,
    optimal_weak_order_for,
)
from rankagg.metrics import h_matrix, pareto_front, population_pair_weights
from rankagg.oracle import (
    MAX_EXHAUSTIVE_N,
    auc_scatter,
    build_hypothesis_space,
    enumerate_hypotheses,
    hypothesis_scores,
    index_equal,
    index_subset,
    scan_hypotheses,
)

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


weight_entries = st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0]) | st.floats(-2.0, 2.0)


@settings(deadline=None, max_examples=150)
@given(st.integers(1, 6), st.sampled_from([1.0, 3.0]), st.data())
def test_subset_dp_matches_brute_force_enumeration(n, normalizer, data):
    # repeated entries make ties; zero rows leave items free to sit anywhere
    w = data.draw(arrays(np.float64, (n, n), elements=weight_entries))
    w[data.draw(arrays(bool, n))] = 0.0
    scorer, value = optimal_weak_order(w, normalizer)
    best = _order_values(w, _weak_orders(n)).max() / normalizer
    assert value == pytest.approx(best, abs=1e-12)
    attained = _order_values(w, scorer.scores()[None, :])[0] / normalizer
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
    assert space.M == 4 and space.total == 81
    with pytest.raises(BudgetExceeded):
        build_hypothesis_space(_demo_labels(), P=3, budget=80)


def test_hypothesis_scores_match_enumeration_order():
    space = build_hypothesis_space(_demo_labels(), P=3)
    for index, scorer in enumerate(enumerate_hypotheses(space)):
        np.testing.assert_array_equal(
            scorer.scores(), hypothesis_scores(space, index).scores()
        )
        if index > 30:
            break
    pinned = hypothesis_scores(space, 0).scores()
    assert pinned[0] == 3.0 and pinned[2] == 0.0


def test_scan_matches_direct_pair_counting():
    from rankagg import bipartite_auc_empirical

    labels = _demo_labels()
    space = build_hypothesis_space(labels, P=3)
    scan = scan_hypotheses(space, batch=7)  # odd batch to exercise chunking
    for index, scorer in enumerate(enumerate_hypotheses(space)):
        s = scorer.scores()
        a1 = bipartite_auc_empirical(s, labels.labels[:, 0])
        a2 = bipartite_auc_empirical(s, labels.labels[:, 1])
        assert scan.count_1[index] / (2 * scan.denom_1) == pytest.approx(a1, abs=1e-12)
        assert scan.count_2[index] / (2 * scan.denom_2) == pytest.approx(a2, abs=1e-12)


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
