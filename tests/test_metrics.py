from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rankagg import (
    AggregateDistribution,
    CostMatrix,
    DegenerateLabel,
    EtaTable,
    LabelAgg,
    LossAgg,
    PerLabel,
    SampledLabels,
    Sum,
    WeightedSum,
    aggregate_distribution,
    auc_report,
    bipartite_auc_empirical,
    bipartite_auc_population,
    label_agg_auc,
    loss_agg_auc,
    multipartite_auc,
    multipartite_auc_population,
    pareto_dominates,
    pareto_front,
)
from rankagg import metrics
from rankagg.metrics import h_matrix


def _binary_labels(rng, n):
    y = rng.integers(0, 2, n)
    y[0], y[1] = 1, 0  # guarantee both classes
    return y


def test_h_matrix_ties_and_infinities():
    h = h_matrix(np.array([1.0, 1.0, np.inf, 0.0]))
    assert h[0, 1] == 0.5 and h[1, 0] == 0.5
    assert h[2, 0] == 1.0 and h[0, 2] == 0.0
    assert h[2, 2] == 0.5
    assert not np.any(np.isnan(h))


@settings(deadline=None)
@given(st.integers(0, 1000))
def test_complement_scores_sum_to_one(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 30))
    scores = rng.standard_normal(n)  # continuous draws are tie-free
    y = _binary_labels(rng, n)
    a = bipartite_auc_empirical(scores, y)
    b = bipartite_auc_empirical(-scores, y)
    assert a + b == pytest.approx(1.0, abs=1e-12)


@settings(deadline=None)
@given(st.integers(0, 1000))
def test_auc_invariant_under_monotone_transforms(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 30))
    scores = rng.standard_normal(n)
    y = _binary_labels(rng, n)
    base = bipartite_auc_empirical(scores, y)
    assert bipartite_auc_empirical(np.exp(scores), y) == pytest.approx(base, abs=1e-12)
    assert bipartite_auc_empirical(3.0 * scores + 7.0, y) == pytest.approx(base, abs=1e-12)


def test_binary_multipartite_equals_bipartite_bitwise():
    rng = np.random.default_rng(7)
    for _ in range(100):
        n = int(rng.integers(4, 40))
        scores = rng.standard_normal(n)
        if rng.random() < 0.5:
            scores = scores.round(1)  # force ties sometimes
        y = _binary_labels(rng, n)
        assert multipartite_auc(scores, y, CostMatrix.uniform(2)) == bipartite_auc_empirical(scores, y)


def test_label_agg_auc_with_one_label_is_bipartite():
    rng = np.random.default_rng(3)
    scores = rng.standard_normal(12)
    y = _binary_labels(rng, 12)
    labels = SampledLabels(y[:, None])
    got = label_agg_auc(scores, labels, Sum(), CostMatrix.uniform(2))
    assert got == bipartite_auc_empirical(scores, y)


# few distinct values so ties (including among infinities) are common
_tie_values = st.sampled_from([-np.inf, -1.5, 0.0, 0.25, 3.0, np.inf]) | st.floats(-5, 5)
_tie_scores = st.lists(_tie_values, min_size=1, max_size=40)


def _close(got, want):
    assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def _dense_cost_weights(probs, costs):
    """Reference W_ij = sum over levels m > m' of c[m, m'] p_i(m) p_j(m'), one outer product per pair."""
    w = np.zeros((probs.shape[0],) * 2)
    for m in range(probs.shape[1]):
        for mp in range(m):
            w += costs.costs[m, mp] * np.outer(probs[:, m], probs[:, mp])
    return w


def _dense_label_weights(eta, a):
    """Reference sum over labels of a_k eta_k (1 - eta_k)^T / (n^2 pi_k (1 - pi_k))."""
    n = eta.shape[0]
    w = np.zeros((n, n))
    for k in range(eta.shape[1]):
        pi = eta[:, k].mean()
        w += a[k] * np.outer(eta[:, k], 1.0 - eta[:, k]) / (n * n * pi * (1.0 - pi))
    return w


@settings(deadline=None, max_examples=200)
@given(_tie_scores, st.integers(0, 2**32 - 1))
def test_pair_kernel_matches_dense_h_matrix(values, seed):
    s = np.array(values)
    n = s.shape[0]
    rng = np.random.default_rng(seed)
    h = h_matrix(s)
    # bipartite: label indicators and eta rows, two rows at once
    y = rng.integers(0, 2, (2, n)).astype(float)
    eta = rng.uniform(0.0, 1.0, (2, n))
    for pos, neg in ((y, 1.0 - y), (eta, 1.0 - eta)):
        sums, pairs = metrics._pair_sums(s, pos, neg)
        for k in range(2):
            _close(sums[k], (np.outer(pos[k], neg[k]) * h).sum())
            _close(pairs[k], np.outer(pos[k], neg[k]).sum())
    # multipartite: per-level probabilities combined through the cost matrix
    probs = rng.dirichlet(np.ones(4), n)
    costs = CostMatrix(rng.uniform(0.0, 2.0, (4, 4)))
    dist = AggregateDistribution(np.arange(4.0), probs)
    w = _dense_cost_weights(probs, costs)
    if w.sum() > 0.0:
        _close(multipartite_auc_population(s, dist, costs), (w * h).sum() / w.sum())
    if n >= 2:
        y[0, :2] = (1.0, 0.0)
        w = np.outer(y[0] == 1, y[0] == 0)
        _close(bipartite_auc_empirical(s, y[0]), (w * h).sum() / w.sum())
        eta[0, :2] = (1.0, 0.0)
        w = np.outer(eta[0], 1.0 - eta[0])
        _close(bipartite_auc_population(s, eta[0]), (w * h).sum() / w.sum())


@pytest.mark.parametrize("ties", [False, True])
def test_pair_kernel_bits_do_not_depend_on_weight_layout(ties):
    rng = np.random.default_rng(11)
    n = 300
    s = rng.standard_normal(n)
    if ties:
        s = np.round(s, 1)
    assert (np.unique(s).size < n) == ties
    u = rng.uniform(0.0, 1.0, (3, n))
    v = rng.uniform(0.0, 1.0, (3, n))
    padded_u, padded_v = np.zeros((6, 2 * n)), np.zeros((6, 2 * n))
    padded_u[::2, ::2], padded_v[::2, ::2] = u, v
    sums, pairs = metrics._pair_sums(s, u, v)
    for uu, vv in ((np.asfortranarray(u), np.asfortranarray(v)), (padded_u[::2, ::2], padded_v[::2, ::2])):
        assert not uu.flags.c_contiguous
        got_sums, got_pairs = metrics._pair_sums(s, uu, vv)
        assert got_sums.tobytes() == sums.tobytes() and got_pairs.tobytes() == pairs.tobytes()


@settings(deadline=None, max_examples=150)
@given(st.lists(_tie_values, min_size=1, max_size=12), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_population_pair_weights_match_outer_products_and_kernel_aucs(values, K, seed):
    s = np.array(values)
    n = s.shape[0]
    rng = np.random.default_rng(seed)
    eta = rng.uniform(0.0, 1.0, (n, K))
    snap = rng.random((n, K)) < 0.3
    eta[snap] = rng.integers(0, 2, snap.sum())
    eta[0] = rng.uniform(0.05, 0.95, K)  # keeps every prior strictly inside (0, 1)
    model = EtaTable(eta)
    h = h_matrix(s)
    a = rng.uniform(0.1, 3.0, K)
    k = int(rng.integers(K))
    cases = [
        (PerLabel(k), _dense_label_weights(eta[:, [k]], [1.0]), 1.0, bipartite_auc_population(s, eta[:, k])),
        (LossAgg(tuple(a)), _dense_label_weights(eta, a), 1.0, loss_agg_auc(s, model, a)),
    ]
    for aggregator in (Sum(), WeightedSum(tuple(rng.choice([0.5, 1.0, 1.5, 2.25], K)))):
        probs = aggregate_distribution(model, aggregator).probs
        costs = CostMatrix(rng.uniform(0.1, 2.0, (probs.shape[1] + 1,) * 2))
        w = _dense_cost_weights(probs, costs)
        cases.append((LabelAgg(aggregator, costs), w, w.sum(), label_agg_auc(s, model, aggregator, costs)))
    for objective, want_w, want_z, auc in cases:
        w, z = metrics.population_pair_weights(model, objective)
        assert np.all(np.abs(w - want_w) <= 1e-12 * np.maximum(1.0, np.abs(want_w)))
        _close(z, want_z)
        _close((w * h).sum() / z, auc)


def test_nan_scores_are_rejected():
    with pytest.raises(ValueError, match="NaN"):
        bipartite_auc_empirical(np.array([np.nan, 1.0, 0.0]), np.array([1, 0, 0]))
    with pytest.raises(ValueError, match="NaN"):
        multipartite_auc(np.array([0.0, np.nan]), np.array([1, 0]), CostMatrix.uniform(2))


@pytest.mark.parametrize("eta, match", [([0.2, np.nan, 0.7], "NaN"), ([0.2, 1.5, 0.7], "lie in"), ([-0.1, 0.5, 0.7], "lie in")])
def test_population_auc_rejects_invalid_probabilities(eta, match):
    with pytest.raises(ValueError, match=match):
        bipartite_auc_population(np.array([0.0, 1.0, 2.0]), np.array(eta))


def test_population_matches_empirical_within_monte_carlo_error():
    rng = np.random.default_rng(5)
    n, draws = 8, 10_000
    eta = rng.uniform(0.1, 0.9, n)
    scores = rng.standard_normal(n)
    pop = bipartite_auc_population(scores, eta)
    samples = []
    for _ in range(draws):
        y = (rng.random(n) < eta).astype(int)
        if y.min() == y.max():
            continue
        samples.append(bipartite_auc_empirical(scores, y))
    samples = np.array(samples)
    se = samples.std(ddof=1) / np.sqrt(samples.size)
    # empirical draws exclude i=j pairs, so allow their O(1/n) offset too
    assert abs(samples.mean() - pop) < 3 * se + 1.0 / n


def test_degenerate_labels_raise():
    with pytest.raises(DegenerateLabel):
        bipartite_auc_empirical(np.array([]), np.array([]))
    with pytest.raises(DegenerateLabel):
        bipartite_auc_empirical(np.array([1.0, 2.0]), np.array([1, 1]))
    with pytest.raises(DegenerateLabel):
        bipartite_auc_population(np.array([1.0, 2.0]), np.array([0.0, 0.0]))
    with pytest.raises(DegenerateLabel):
        multipartite_auc(np.array([1.0, 2.0]), np.array([1, 1]), CostMatrix.uniform(2))


def _indicator_aucs(s, y):
    """Pair sums and pair counts of the 0/1 label columns of y, from the weighted kernel on float indicators."""
    pos = np.ascontiguousarray(y.T, dtype=float)
    sums, pairs = metrics._pair_sums(s, pos, 1.0 - pos)
    return sums, pairs


@pytest.mark.parametrize("kind", ["distinct", "rounded", "infinite", "all tied"])
@pytest.mark.parametrize("K", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 7, 1000])
def test_rank_sums_equal_the_weighted_pair_kernel(n, K, kind):
    rng = np.random.default_rng([n, K])
    s = rng.standard_normal(n)
    if kind == "rounded":
        s = s.round(1)
    elif kind == "infinite":
        s = s.round(0)
        s[rng.random(n) < 0.2] = np.inf
        s[rng.random(n) < 0.2] = -np.inf
    elif kind == "all tied":
        s = np.full(n, 0.5)
    y = rng.integers(0, 2, (n, K))
    if n == 1:
        assert (_indicator_aucs(s, y)[1] == 0.0).all()
        with pytest.raises(DegenerateLabel):
            metrics._label_aucs(s, y)
        return
    y[0], y[1] = 1, 0
    sums, pairs = _indicator_aucs(s, y)
    assert (metrics._label_aucs(s, y) == sums / pairs).all()


def _fraction_auc(s, y):
    pos = [a for a, label in zip(s, y) if label]
    neg = [b for b, label in zip(s, y) if not label]
    wins = sum(Fraction(1) if a > b else Fraction(1, 2) if a == b else Fraction(0) for a in pos for b in neg)
    return wins / (len(pos) * len(neg))


@settings(deadline=None, max_examples=200)
@given(st.lists(_tie_values, min_size=2, max_size=12), st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_rank_sums_match_a_brute_force_fraction_count(values, K, seed):
    s = np.array(values)
    y = np.random.default_rng(seed).integers(0, 2, (s.size, K))
    y[0], y[1] = 1, 0
    got = metrics._label_aucs(s, y)
    for k in range(K):
        assert got[k] == float(_fraction_auc(s, y[:, k]))


def test_rank_sums_reject_bad_scores_and_name_one_class_labels():
    y = np.array([[1, 0], [0, 1], [1, 1]])
    with pytest.raises(ValueError, match="NaN"):
        metrics._label_aucs(np.array([0.0, np.nan, 1.0]), y)
    with pytest.raises(ValueError, match="2 scores for 3 instances"):
        metrics._label_aucs(np.array([0.0, 1.0]), y)
    with pytest.raises(DegenerateLabel, match="no instances"):
        metrics._label_aucs(np.array([]), np.zeros((0, 2), dtype=int))
    with pytest.raises(DegenerateLabel, match="label 1 "):
        auc_report(np.array([0.0, 1.0, 2.0]), SampledLabels(np.array([[1, 1], [0, 1], [1, 1]])))


@pytest.mark.parametrize("bad", [2, 0.5, -1])
def test_bipartite_labels_outside_0_1_are_rejected(bad):
    with pytest.raises(ValueError, match="0/1"):
        bipartite_auc_empirical([0.3, 0.1, 0.2, 0.5], [bad, 0, 1, 0])


@pytest.mark.parametrize("bad", [-1, 0.5])
def test_ordinal_labels_must_be_non_negative_integers(bad):
    with pytest.raises(ValueError, match="non-negative integers"):
        multipartite_auc([0.3, 0.1, 0.2, 0.5], [bad, 0, 1, 2], CostMatrix.absdiff(3))
    assert multipartite_auc([0.3, 0.1, 0.2, 0.5], [2.0, 0.0, 1.0, 2.0], CostMatrix.absdiff(3)) == 1.0


def test_loss_agg_auc_is_weighted_sum():
    eta = EtaTable(np.array([[0.9, 0.2], [0.1, 0.8], [0.5, 0.5]]))
    scores = np.array([2.0, 1.0, 0.0])
    a1 = bipartite_auc_population(scores, eta.eta[:, 0])
    a2 = bipartite_auc_population(scores, eta.eta[:, 1])
    assert loss_agg_auc(scores, eta, [2.0, 3.0]) == pytest.approx(2 * a1 + 3 * a2)


def test_auc_report_fields():
    labels = SampledLabels(np.array([[1, 0], [0, 1], [1, 1], [0, 0]]))
    report = auc_report(np.array([3.0, 2.0, 1.0, 0.0]), labels)
    assert report.per_label.shape == (2,)
    assert report.diff == pytest.approx(abs(report.per_label[0] - report.per_label[1]))
    assert report.min == pytest.approx(report.per_label.min())


def test_pareto_dominates_is_strict_somewhere():
    assert pareto_dominates([0.7, 0.6], [0.7, 0.5])
    assert not pareto_dominates([0.7, 0.5], [0.7, 0.5])
    assert not pareto_dominates([0.8, 0.4], [0.7, 0.5])


vectors = arrays(
    np.float64,
    st.tuples(st.integers(1, 12), st.just(2)),
    elements=st.floats(0.0, 1.0, allow_nan=False, width=16),
)


@settings(deadline=None)
@given(vectors)
def test_pareto_front_matches_pairwise_scan(cands):
    front = set(pareto_front(cands))
    expected = {
        i
        for i in range(len(cands))
        if not any(pareto_dominates(cands[j], cands[i]) for j in range(len(cands)))
    }
    assert front == expected
