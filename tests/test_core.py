import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rankagg import (
    CostMatrix,
    DegenerateLabel,
    EtaTable,
    InstanceSet,
    JointLabelModel,
    LabelAgg,
    Logistic,
    LossAgg,
    PriorVector,
    SampledLabels,
    Sum,
    Product,
    TableScorer,
    TooLarge,
    WeightedSum,
    aggregate_distribution,
    aggregate_labels,
    alpha_vector,
    gap_bound,
    label_agg_auc,
    label_agg_bayes_scorer_weighted,
    loss_agg_auc,
    surrogate_objective,
)

eta_tables = arrays(
    np.float64,
    st.tuples(st.integers(1, 6), st.integers(1, 4)),
    elements=st.floats(0.0, 1.0, allow_nan=False),
).map(EtaTable)


def test_arrays_are_frozen():
    inst = InstanceSet(np.zeros((3, 2)))
    with pytest.raises(ValueError):
        inst.features[0, 0] = 1.0
    eta = EtaTable(np.full((2, 2), 0.5))
    with pytest.raises(ValueError):
        eta.eta[0, 0] = 0.0


def test_sampled_labels_reject_nonbinary():
    for bad in ([[0, 2]], [[1, -1]], [[0.7, 1.0]]):
        with pytest.raises(ValueError):
            SampledLabels(np.array(bad))


def test_combos_use_label0_as_most_significant_bit():
    model = JointLabelModel.from_eta(EtaTable(np.full((1, 2), 0.5)))
    assert model.combos().tolist() == [[0, 0], [0, 1], [1, 0], [1, 1]]


def test_explicit_table_matches_independent_products():
    eta = EtaTable(np.array([[0.3, 0.9], [0.5, 0.1]]))
    tab = JointLabelModel.from_eta(eta).explicit_table()
    assert tab[0] == pytest.approx([0.7 * 0.1, 0.7 * 0.9, 0.3 * 0.1, 0.3 * 0.9])
    np.testing.assert_allclose(tab.sum(axis=1), 1.0)


def test_marginal_eta_roundtrip():
    eta = EtaTable(np.array([[0.3, 0.9], [0.5, 0.1], [0.0, 1.0]]))
    model = JointLabelModel.explicit(
        JointLabelModel.from_eta(eta).explicit_table(), K=2
    )
    np.testing.assert_allclose(model.marginal_eta().eta, eta.eta, atol=1e-12)


def test_explicit_table_validation():
    with pytest.raises(ValueError):
        JointLabelModel.explicit(np.array([[0.5, 0.6]]), K=1)
    with pytest.raises(ValueError):
        JointLabelModel.explicit(np.array([[0.5, 0.5, 0.0]]), K=2)


@settings(deadline=None)
@given(eta_tables)
def test_aggregate_distribution_rows_are_probability_vectors(eta):
    dist = aggregate_distribution(JointLabelModel.from_eta(eta), Sum())
    assert np.all(dist.probs >= -1e-12)
    np.testing.assert_allclose(dist.probs.sum(axis=1), 1.0, atol=1e-9)


@settings(deadline=None)
@given(eta_tables)
def test_aggregate_mean_equals_probability_sum(eta):
    dist = aggregate_distribution(JointLabelModel.from_eta(eta), Sum())
    np.testing.assert_allclose(dist.mean(), eta.eta.sum(axis=1), atol=1e-9)


def test_deterministic_eta_concentrates_the_aggregate():
    eta = EtaTable(np.array([[1.0, 0.0, 1.0], [0.0, 0.0, 0.0]]))
    dist = aggregate_distribution(JointLabelModel.from_eta(eta), Sum())
    assert dist.probs[0].tolist() == [0.0, 0.0, 1.0, 0.0]
    assert dist.probs[1].tolist() == [1.0, 0.0, 0.0, 0.0]


def test_product_distribution_is_all_ones_probability():
    eta = EtaTable(np.array([[0.5, 0.4]]))
    dist = aggregate_distribution(JointLabelModel.from_eta(eta), Product())
    assert dist.values.tolist() == [0.0, 1.0]
    assert dist.probs[0, 1] == pytest.approx(0.2)


def test_weighted_sum_labels_map_to_dense_ordinals():
    labels = SampledLabels(np.array([[1, 0], [0, 1], [1, 1]]))
    ordinal = aggregate_labels(labels, WeightedSum((2.0, 1.0)))
    # raw values (2, 1, 3) rank to (1, 0, 2)
    assert ordinal.tolist() == [1, 0, 2]


def test_weighted_sum_labels_group_sums_equal_to_12_decimals():
    # 0.1 + 0.2 and 0.3 differ in the last bit; both weight sets tie rows 0 and 1
    labels = SampledLabels(np.array([[1, 1, 0], [0, 0, 1], [0, 0, 0], [1, 1, 1]]))
    scores = np.array([0.0, 1.0, -1.0, 2.0])
    weights = np.array([0.1, 0.2, 0.3])
    costs = CostMatrix.uniform(8)
    aucs, losses = [], []
    for w in (weights, 10.0 * weights):
        aggregator = WeightedSum(tuple(w))
        assert aggregate_labels(labels, aggregator).tolist() == [1, 1, 0, 2]
        aucs.append(label_agg_auc(scores, labels, aggregator, costs))
        losses.append(surrogate_objective(scores, None, labels, LabelAgg(aggregator, costs), Logistic()))
    assert aucs[0] == aucs[1] == 1.0
    assert losses[0] == losses[1]


def test_sum_and_product_labels():
    labels = SampledLabels(np.array([[1, 0], [1, 1], [0, 0]]))
    assert aggregate_labels(labels, Sum()).tolist() == [1, 2, 0]
    assert aggregate_labels(labels, Product()).tolist() == [0, 1, 0]


def test_weighted_sum_distribution_covers_achievable_values():
    eta = EtaTable(np.array([[0.5, 0.5]]))
    dist = aggregate_distribution(JointLabelModel.from_eta(eta), WeightedSum((2.0, 1.0)))
    assert dist.values.tolist() == [0.0, 1.0, 2.0, 3.0]
    np.testing.assert_allclose(dist.probs[0], 0.25)


@pytest.mark.parametrize("bad", [0.0, -1.0, np.inf, np.nan])
def test_weighted_sum_rejects_nonpositive_and_nonfinite_weights(bad):
    with pytest.raises(ValueError):
        WeightedSum((1.0, bad))


_ETA2 = EtaTable(np.array([[0.2, 0.7], [0.6, 0.4], [0.9, 0.1]]))
# entry point -> (build from weights, whether weights must number K = 2)
_WEIGHT_ENTRY_POINTS = {
    "LossAgg": (LossAgg, False),
    "WeightedSum": (WeightedSum, False),
    "alpha_vector": (lambda a: alpha_vector(_ETA2, a), True),
    "label_agg_bayes_scorer_weighted": (lambda a: label_agg_bayes_scorer_weighted(_ETA2, a), True),
    "gap_bound": (lambda a: gap_bound(_ETA2, a), True),
    "loss_agg_auc": (lambda a: loss_agg_auc(np.array([0.3, 0.1, 0.2]), _ETA2, a), True),
}


@pytest.mark.parametrize("entry", sorted(_WEIGHT_ENTRY_POINTS))
def test_weights_must_be_nonempty_finite_positive_and_match_k(entry):
    build, counted = _WEIGHT_ENTRY_POINTS[entry]
    build([1.0, 2.0])
    bad = [[], [1.0, np.nan], [np.inf, 1.0], [1.0, -np.inf], [1.0, 0.0], [-1.0, 2.0]]
    for weights in bad + ([[1.0, 1.0, 1.0]] if counted else []):
        with pytest.raises(ValueError):
            build(weights)


def _add_at_distribution(eta: np.ndarray, alphas) -> tuple[np.ndarray, np.ndarray]:
    """Reference: the 2^K joint table summed onto its rounded weighted sums."""
    K = eta.shape[1]
    combos = (np.arange(2**K)[:, None] >> (K - 1 - np.arange(K))) & 1
    table = np.where(combos[None] == 1, eta[:, None, :], 1.0 - eta[:, None, :]).prod(axis=2)
    values, inverse = np.unique(np.round(combos @ np.asarray(alphas), 12), return_inverse=True)
    probs = np.zeros((eta.shape[0], values.size))
    np.add.at(probs.T, inverse, table.T)
    return values, probs


@settings(deadline=None, max_examples=150)
@given(st.integers(1, 10), st.sampled_from(["unit", "integer", "decimal", "real"]), st.integers(0, 2**32 - 1))
def test_lattice_convolution_matches_the_2k_table(K, kind, seed):
    rng = np.random.default_rng(seed)
    eta = rng.uniform(0.0, 1.0, (4, K))
    eta[0, 0], eta[1, K - 1] = 0.0, 1.0
    alphas = {
        "unit": np.ones(K),
        "integer": rng.integers(1, 5, K).astype(float),
        # decimals whose float sums collide only after rounding
        "decimal": rng.choice([0.1, 0.2, 0.3, 0.7], K),
        "real": rng.uniform(0.1, 3.0, K),
    }[kind]
    values, probs = _add_at_distribution(eta, alphas)
    independent = JointLabelModel.from_eta(EtaTable(eta))
    models = [independent, JointLabelModel.explicit(independent.explicit_table(), K)]
    aggregators = [WeightedSum(tuple(alphas))] + ([Sum()] if kind == "unit" else [])
    for model in models:
        for agg in aggregators:
            dist = aggregate_distribution(model, agg)
            np.testing.assert_allclose(dist.values, values, rtol=0.0, atol=1e-12)
            np.testing.assert_allclose(dist.probs, probs, rtol=0.0, atol=1e-12)


def test_2k_tables_over_the_cell_cap_raise_too_large():
    model = JointLabelModel.from_eta(EtaTable(np.full((3, 40), 0.5)))
    start = time.perf_counter()
    with pytest.raises(TooLarge):
        model.combos()
    with pytest.raises(TooLarge):
        model.explicit_table()
    with pytest.raises(TooLarge):  # weights off an integer lattice
        aggregate_distribution(model, WeightedSum(tuple(1.0 + np.arange(40) / 41.0)))
    # 65,536 distinct sums fit alone but not for 300 instances
    binary = WeightedSum(tuple(2.0 ** np.arange(16)))
    assert binary.values().size == 2**16
    with pytest.raises(TooLarge):
        aggregate_distribution(JointLabelModel.from_eta(EtaTable(np.full((300, 16), 0.5))), binary)
    assert time.perf_counter() - start < 1.0
    # lattice weights stay polynomial at K = 40
    assert aggregate_distribution(model, Sum()).values.tolist() == list(range(41))
    assert aggregate_distribution(model, WeightedSum(tuple(range(1, 41)))).values.size == 821


def test_cost_matrix_constructors_and_validation():
    u = CostMatrix.uniform(3)
    assert u.size == 3 and np.all(u.costs == 1.0)
    a = CostMatrix.absdiff(3)
    assert a.costs[2, 0] == 2.0 and a.costs[1, 0] == 1.0
    with pytest.raises(ValueError):
        CostMatrix.custom(np.array([[0.0, -1.0], [1.0, 0.0]]))
    with pytest.raises(ValueError):
        CostMatrix.custom(np.ones((1, 1)))


def test_cost_matrix_rejects_infinite_costs():
    # an unread entry above the diagonal used to make every tolerance infinite
    c = np.random.default_rng(2).uniform(0.0, 2.0, (5, 5))
    c[1, 3] = np.inf
    with pytest.raises(ValueError, match="finite"):
        CostMatrix(c)
    # and a read one turned the multipartite AUC into NaN
    with pytest.raises(ValueError, match="finite"):
        CostMatrix.custom([[0.0, 0.0, 0.0], [np.inf, 0.0, 0.0], [1.0, 1.0, 0.0]])


def test_prior_vector_degenerate_label_raises():
    priors = PriorVector.from_labels(SampledLabels(np.array([[1, 0], [1, 1]])))
    with pytest.raises(DegenerateLabel):
        priors.require_nondegenerate()
    ok = PriorVector(np.array([0.5, 0.25]))
    np.testing.assert_allclose(ok.require_nondegenerate(), [0.5, 0.25])


def test_table_scorer_rejects_nan_and_serves_values():
    scorer = TableScorer(np.array([1.0, np.inf, 0.0]))
    assert scorer.scores()[1] == np.inf
    with pytest.raises(ValueError):
        TableScorer(np.array([np.nan]))


@settings(deadline=None)
@given(st.integers(1, 5), st.integers(1, 3), st.integers(0, 2**32 - 1), st.data())
def test_probability_tables_priors_and_costs_reject_nan(n, K, seed, data):
    rng = np.random.default_rng(seed)
    builders = [
        (rng.uniform(0.0, 1.0, (n, K)), EtaTable),
        (rng.dirichlet(np.ones(2**K), n), lambda t: JointLabelModel.explicit(t, K)),
        (rng.uniform(0.05, 0.95, K), PriorVector),
        (rng.uniform(0.0, 2.0, (K + 1, K + 1)), CostMatrix),
    ]
    for values, build in builders:
        build(values)  # the valid input constructs
        bad = values.copy()
        bad.flat[data.draw(st.integers(0, bad.size - 1))] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            build(bad)


def _read_only(arr):
    arr.setflags(write=False)
    return arr


def test_frozen_types_adopt_owned_read_only_arrays_and_copy_the_rest():
    eta = _read_only(np.full((4, 2), 0.5))
    labels = _read_only(np.ones((4, 2), dtype=np.int64))
    scores = _read_only(np.arange(4.0))
    assert np.shares_memory(EtaTable(eta).eta, eta)
    assert np.shares_memory(SampledLabels(labels).labels, labels)
    assert np.shares_memory(TableScorer(scores).values, scores)
    # a writable input is copied and stays the caller's to write
    writable = np.full((4, 2), 0.5)
    table = EtaTable(writable)
    assert not np.shares_memory(table.eta, writable)
    writable[0, 0] = 1.0
    assert table.eta[0, 0] == 0.5
    # so are a read-only view, whose base its owner may still write, a
    # Fortran-ordered array and another dtype; every copy is C-ordered
    base = np.full((6, 2), 0.5)
    others = [
        (_read_only(base[:4]), EtaTable, "eta"),
        (_read_only(np.asfortranarray(np.full((4, 2), 0.5))), EtaTable, "eta"),
        (_read_only(np.ones((4, 2), dtype=np.int32)), SampledLabels, "labels"),
    ]
    for values, build, field in others:
        stored = getattr(build(values), field)
        assert not np.shares_memory(stored, values)
        assert stored.flags.c_contiguous and not stored.flags.writeable
    # adoption keeps every check
    for bad, build in [
        (np.array([[0.5, np.nan]]), EtaTable),
        (np.array([[0.5, 1.5]]), EtaTable),
        (np.array([0.5, 0.5]), EtaTable),
        (np.array([[0, 2]]), SampledLabels),
        (np.array([np.nan]), TableScorer),
    ]:
        with pytest.raises(ValueError):
            build(_read_only(bad))
