import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    MlpScorer,
    PerLabel,
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
    auc_report,
    certify_bayes,
    gap_bound,
    label_agg_auc,
    label_agg_bayes_scorer_weighted,
    loss_agg_auc,
    optimal_weak_order_for,
    product_agg_bayes_scorer,
    surrogate_objective,
)
from rankagg.dataio import read_dataset, write_dataset
from rankagg.metrics import population_pair_weights
from conftest import h_matrix

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


def _product_table(eta: EtaTable) -> np.ndarray:
    """Reference n x 2^K joint law of conditionally independent labels.

    Column c holds the product over labels of eta or 1 - eta, as label k is
    bit K - 1 - k of c.
    """
    K = eta.K
    combos = (np.arange(2**K)[:, None] >> (K - 1 - np.arange(K))) & 1
    tab = np.ones((eta.n, 2**K))
    for k in range(K):
        col = eta.eta[:, k][:, None]
        tab *= np.where(combos[:, k][None, :] == 1, col, 1.0 - col)
    return tab


def test_combos_use_label0_as_most_significant_bit():
    # row c puts all its mass on column c, so its marginals are c's bits
    model = JointLabelModel(np.eye(4))
    assert model.marginal_eta().eta.tolist() == [[0, 0], [0, 1], [1, 0], [1, 1]]
    # weights 2 and 1 give column c the weighted sum c
    dist = aggregate_distribution(model, WeightedSum((2.0, 1.0)))
    assert dist.values.tolist() == [0, 1, 2, 3]
    assert dist.probs.tolist() == np.eye(4).tolist()


def test_explicit_tables_need_no_combo_matrix():
    # a 2 x 2^20 table is 16 MB; a 2^20 x 20 combo matrix would pass the cell cap
    rng = np.random.default_rng(21)
    table = rng.random((2, 2**20))
    model = JointLabelModel(table / table.sum(axis=1, keepdims=True))
    scores = np.array([0.0, 1.0])
    assert auc_report(scores, model).per_label.shape == (20,)
    assert 0.0 < loss_agg_auc(scores, model, np.ones(20)) < 20.0
    w, z = population_pair_weights(model, LossAgg(tuple(np.ones(20))))
    assert w.shape == (2, 2) and z == 1.0
    dist = aggregate_distribution(model, Sum())
    assert dist.values.tolist() == list(range(21))
    np.testing.assert_allclose(dist.probs.sum(axis=1), 1.0, rtol=0.0, atol=1e-12)


def test_explicit_table_matches_independent_products():
    eta = EtaTable(np.array([[0.3, 0.9], [0.5, 0.1]]))
    tab = _product_table(eta)
    assert tab[0] == pytest.approx([0.7 * 0.1, 0.7 * 0.9, 0.3 * 0.1, 0.3 * 0.9])
    np.testing.assert_allclose(tab.sum(axis=1), 1.0)


def test_marginal_eta_roundtrip():
    eta = EtaTable(np.array([[0.3, 0.9], [0.5, 0.1], [0.0, 1.0]]))
    model = JointLabelModel(_product_table(eta))
    np.testing.assert_allclose(model.marginal_eta().eta, eta.eta, atol=1e-12)


def test_explicit_table_validation():
    with pytest.raises(ValueError):
        JointLabelModel(np.array([[0.5, 0.6]]))
    with pytest.raises(ValueError):
        JointLabelModel(np.array([[0.5, 0.5, 0.0]]))
    with pytest.raises(ValueError, match="2\\^K columns"):
        JointLabelModel(np.array([[1.0]]))
    assert JointLabelModel(np.full((3, 8), 0.125)).K == 3


def test_explicit_marginals_rounding_past_one_are_clipped():
    # rows may sum to within 1e-9 of 1, so a marginal can round above 1;
    # EtaTable's [0, 1] check used to reject the model the constructor accepted
    model = JointLabelModel(np.array([[0, 0, 0, 1 + 5e-10], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]))
    scores = np.array([3.0, 0.0, 1.0, 2.0])
    assert model.marginal_eta().eta[0].tolist() == [1.0, 1.0]
    assert auc_report(scores, model).per_label.tolist() == [1.0, 0.75]
    assert loss_agg_auc(scores, model, (1.0, 1.0)) == 1.75
    w, z = population_pair_weights(model, LossAgg((1.0, 1.0)))
    assert (w * h_matrix(scores)).sum() / z == pytest.approx(1.75, abs=1e-12)


_CONTRACT_ETA = EtaTable(np.random.default_rng(19).uniform(0.1, 0.9, (6, 3)))
_CONTRACT_SCORES = np.random.default_rng(20).standard_normal(6)
_CONTRACT_LOSS = LossAgg((1.0, 2.0, 0.5))
_CONTRACT_LABEL = LabelAgg(Sum(), CostMatrix.absdiff(4))


def _flat(*parts) -> np.ndarray:
    return np.concatenate([np.ravel(np.asarray(part, dtype=float)) for part in parts])


def _distribution(aggregator):
    def run(model):
        dist = aggregate_distribution(model, aggregator)
        return _flat(dist.values, dist.probs)

    return run


def _weak_order(model):
    scorer, value = optimal_weak_order_for(model, _CONTRACT_LABEL)
    return _flat(scorer.values, value)


def _certify(model):
    result = certify_bayes(_CONTRACT_SCORES, model, _CONTRACT_LABEL)
    return _flat(result.gap, result.best_value, result.scorer_value, result.best_scorer.values)


_ENTRY_POINTS = {
    "aggregate_distribution_sum": _distribution(Sum()),
    "aggregate_distribution_weighted_sum": _distribution(WeightedSum((1.0, 2.0, 0.5))),
    "aggregate_distribution_product": _distribution(Product()),
    "auc_report": lambda m: _flat(auc_report(_CONTRACT_SCORES, m).per_label),
    "loss_agg_auc": lambda m: _flat(loss_agg_auc(_CONTRACT_SCORES, m, _CONTRACT_LOSS.weights)),
    "label_agg_auc": lambda m: _flat(label_agg_auc(_CONTRACT_SCORES, m, Sum(), CostMatrix.absdiff(4))),
    "population_pair_weights": lambda m: _flat(
        *population_pair_weights(m, _CONTRACT_LOSS), *population_pair_weights(m, _CONTRACT_LABEL)
    ),
    "certify_bayes": _certify,
    "optimal_weak_order_for": _weak_order,
    "product_agg_bayes_scorer": lambda m: _flat(product_agg_bayes_scorer(m).scores()),
}


@pytest.mark.parametrize("entry", _ENTRY_POINTS)
def test_eta_table_and_its_product_table_give_the_same_results(entry):
    # the conditionally independent law, as marginals and as its explicit 2^K table
    run = _ENTRY_POINTS[entry]
    independent = run(_CONTRACT_ETA)
    explicit = run(JointLabelModel(_product_table(_CONTRACT_ETA)))
    np.testing.assert_allclose(independent, explicit, rtol=0.0, atol=1e-12)


@settings(deadline=None, max_examples=60)
@given(
    arrays(np.float64, st.tuples(st.integers(1, 7), st.integers(1, 3)), elements=st.sampled_from([0.2, 0.5, 0.8])),
    st.sampled_from(["per_label", "loss_agg", "label_agg_sum", "label_agg_weighted"]),
    st.integers(0, 2**32 - 1),
)
def test_equal_weak_orders_certify_to_exactly_zero(eta, kind, seed):
    # few distinct eta values, so the maximizer's weak order often ties rows
    rng = np.random.default_rng(seed)
    K = eta.shape[1]
    objective = {
        "per_label": PerLabel(int(rng.integers(K))),
        "loss_agg": LossAgg(tuple(rng.choice([0.5, 1.0, 2.0], K))),
        "label_agg_sum": LabelAgg(Sum(), CostMatrix.absdiff(K + 1)),
        "label_agg_weighted": LabelAgg(WeightedSum(tuple(rng.choice([0.5, 1.0, 1.5], K))), CostMatrix.uniform(2**K)),
    }[kind]
    independent = EtaTable(eta)
    for model in (independent, JointLabelModel(_product_table(independent))):
        best, _ = optimal_weak_order_for(model, objective)
        levels = best.values.astype(int)
        # a random strictly increasing map of the levels keeps the weak order and its ties
        remapped = np.cumsum(rng.uniform(0.01, 5.0, levels.max() + 1))[levels] - rng.uniform(0.0, 10.0)
        result = certify_bayes(remapped, model, objective)
        assert result.gap == 0.0 and result.best_value == result.scorer_value
        assert result.optimal


@settings(deadline=None)
@given(eta_tables)
def test_aggregate_distribution_rows_are_probability_vectors(eta):
    dist = aggregate_distribution(eta, Sum())
    assert np.all(dist.probs >= -1e-12)
    np.testing.assert_allclose(dist.probs.sum(axis=1), 1.0, atol=1e-9)


@settings(deadline=None)
@given(eta_tables)
def test_aggregate_mean_equals_probability_sum(eta):
    dist = aggregate_distribution(eta, Sum())
    np.testing.assert_allclose(dist.mean(), eta.eta.sum(axis=1), atol=1e-9)


def test_deterministic_eta_concentrates_the_aggregate():
    eta = EtaTable(np.array([[1.0, 0.0, 1.0], [0.0, 0.0, 0.0]]))
    dist = aggregate_distribution(eta, Sum())
    assert dist.probs[0].tolist() == [0.0, 0.0, 1.0, 0.0]
    assert dist.probs[1].tolist() == [1.0, 0.0, 0.0, 0.0]


def test_product_distribution_is_all_ones_probability():
    eta = EtaTable(np.array([[0.5, 0.4]]))
    dist = aggregate_distribution(eta, Product())
    assert dist.values.tolist() == [0.0, 1.0]
    assert dist.probs[0, 1] == pytest.approx(0.2)


def test_weighted_sum_labels_map_to_dense_ordinals():
    labels = SampledLabels(np.array([[1, 0], [0, 1], [1, 1]]))
    ordinal = aggregate_labels(labels, WeightedSum((2.0, 1.0)))
    # raw values (2, 1, 3) index the full alphabet (0, 1, 2, 3), sum 0 included though no row has it
    assert ordinal.tolist() == [2, 1, 3]


def test_weighted_sum_labels_group_sums_equal_to_12_decimals():
    # 0.1 + 0.2 and 0.3 differ in the last bit; both weight sets tie rows 0 and 1
    labels = SampledLabels(np.array([[1, 1, 0], [0, 0, 1], [0, 0, 0], [1, 1, 1]]))
    scores = np.array([0.0, 1.0, -1.0, 2.0])
    weights = np.array([0.1, 0.2, 0.3])
    costs = CostMatrix.uniform(8)
    aucs, losses = [], []
    for w in (weights, 10.0 * weights):
        aggregator = WeightedSum(tuple(w))
        # indices among the seven values 0, 0.1, ..., 0.6 (times 10 for the second set)
        assert aggregate_labels(labels, aggregator).tolist() == [3, 3, 0, 6]
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
    dist = aggregate_distribution(eta, WeightedSum((2.0, 1.0)))
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
    independent = EtaTable(eta)
    models = [independent, JointLabelModel(_product_table(independent))]
    aggregators = [WeightedSum(tuple(alphas))] + ([Sum()] if kind == "unit" else [])
    for agg in aggregators:
        # both models place their sums on the same lattice: the same values to the bit
        dists = [aggregate_distribution(model, agg) for model in models]
        assert dists[0].values.tolist() == dists[1].values.tolist()
        for dist in dists:
            np.testing.assert_allclose(dist.values, values, rtol=0.0, atol=1e-12)
            np.testing.assert_allclose(dist.probs, probs, rtol=0.0, atol=1e-12)


def test_2k_tables_over_the_cell_cap_raise_too_large():
    model = EtaTable(np.full((3, 40), 0.5))
    start = time.perf_counter()
    with pytest.raises(TooLarge):  # weights off an integer lattice
        aggregate_distribution(model, WeightedSum(tuple(1.0 + np.arange(40) / 41.0)))
    # 65,536 distinct sums fit alone but not for 300 instances
    binary = WeightedSum(tuple(2.0 ** np.arange(16)))
    assert binary.values().size == 2**16
    with pytest.raises(TooLarge):
        aggregate_distribution(EtaTable(np.full((300, 16), 0.5)), binary)
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
        CostMatrix(np.array([[0.0, -1.0], [1.0, 0.0]]))
    with pytest.raises(ValueError):
        CostMatrix(np.ones((1, 1)))


def test_cost_matrix_rejects_infinite_costs():
    # an unread entry above the diagonal used to make every tolerance infinite
    c = np.random.default_rng(2).uniform(0.0, 2.0, (5, 5))
    c[1, 3] = np.inf
    with pytest.raises(ValueError, match="finite"):
        CostMatrix(c)
    # and a read one turned the multipartite AUC into NaN
    with pytest.raises(ValueError, match="finite"):
        CostMatrix([[0.0, 0.0, 0.0], [np.inf, 0.0, 0.0], [1.0, 1.0, 0.0]])


def test_prior_vector_degenerate_label_raises():
    priors = PriorVector.from_labels(SampledLabels(np.array([[1, 0], [1, 1]])))
    with pytest.raises(DegenerateLabel):
        priors.require_nondegenerate()
    ok = PriorVector(np.array([0.5, 0.25]))
    np.testing.assert_allclose(ok.require_nondegenerate(), [0.5, 0.25])


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 3000), st.integers(1, 20), st.integers(0, 2**32 - 1), st.floats(0.0, 0.5), st.floats(0.0, 0.5))
@example(n=3000, K=2, seed=0, zeros=0.1, ones=0.1)
def test_priors_from_eta_are_the_column_means_bit_for_bit(n, K, seed, zeros, ones):
    rng = np.random.default_rng(seed)
    eta = rng.uniform(0.0, 1.0, (n, K))
    eta[rng.random((n, K)) < zeros] = 0.0
    eta[rng.random((n, K)) < ones] = 1.0
    table = EtaTable(eta)
    assert PriorVector.from_eta(table).pi.tobytes() == table.eta.mean(axis=0).tobytes()


def test_table_scorer_rejects_nan_and_serves_values():
    scorer = TableScorer(np.array([1.0, np.inf, 0.0]))
    assert scorer.scores()[1] == np.inf
    with pytest.raises(ValueError):
        TableScorer(np.array([np.nan]))


@pytest.mark.parametrize(
    "weights, biases",
    [
        ((np.ones((2, 1)),), (np.array([0.0, 5.0]),)),  # two biases on one output
        ((np.ones((2, 3)), np.ones((3, 1))), (np.zeros(1), np.zeros(1))),  # one bias on three hidden units
        ((np.ones((2, 3)), np.ones((4, 1))), (np.zeros(3), np.zeros(1))),  # 3 hidden units feed 4 inputs
    ],
    ids=["long_bias", "short_bias", "unchained"],
)
def test_mlp_scorer_rejects_layer_shapes_that_do_not_chain(weights, biases):
    with pytest.raises(ValueError, match="do not chain"):
        MlpScorer(weights, biases)


@settings(deadline=None)
@given(st.integers(1, 5), st.integers(1, 3), st.integers(0, 2**32 - 1), st.data())
def test_probability_tables_priors_and_costs_reject_nan(n, K, seed, data):
    rng = np.random.default_rng(seed)
    builders = [
        (rng.uniform(0.0, 1.0, (n, K)), EtaTable),
        (rng.dirichlet(np.ones(2**K), n), JointLabelModel),
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
    labels = _read_only(np.ones((4, 2), dtype=np.int8))
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


def _int64_aucs(scores: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Per-label AUCs as int64 Mann-Whitney rank sums: twice each midrank, summed over the positives."""
    _, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    starts = np.cumsum(counts) - counts
    twice_rank = (2 * starts + counts - 1)[inverse].astype(np.int64)
    n_pos = labels.sum(axis=0)
    twice_count = twice_rank @ labels - n_pos * (n_pos - 1)
    return (twice_count / 2) / (n_pos * (labels.shape[0] - n_pos))


@settings(deadline=None, max_examples=60)
@given(
    st.integers(1, 2000),
    st.integers(1, 20),
    st.floats(0.0, 1.0),
    st.sampled_from([np.int64, np.bool_, np.int8]),
    st.sampled_from(["C", "F"]),
    st.integers(0, 2**32 - 1),
)
def test_one_byte_labels_give_the_int64_bits(n, K, rate, dtype, order, seed):
    rng = np.random.default_rng(seed)
    ref = (rng.random((n, K)) < rate).astype(np.int64)
    labels = SampledLabels(np.array(ref, dtype=dtype, order=order))
    stored = labels.labels
    assert stored.dtype == np.int8 and stored.flags.c_contiguous and not stored.flags.writeable
    assert stored.tolist() == ref.tolist()
    alphas = rng.integers(1, 4, K) + rng.choice([0.0, 0.5, 0.25], K)
    # the weights are multiples of 1/4, so every sum is exact: index each row among all reachable sums
    reachable = {0.0}
    for alpha in alphas:
        reachable |= {x + alpha for x in reachable}
    ordinal = np.searchsorted(sorted(reachable), ref @ alphas)
    for aggregator, want in [(Sum(), ref.sum(axis=1)), (Product(), ref.prod(axis=1)), (WeightedSum(alphas), ordinal)]:
        got = aggregate_labels(labels, aggregator)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert PriorVector.from_labels(labels).pi.tobytes() == ref.mean(axis=0).tobytes()
    n_pos = ref.sum(axis=0)
    for scores in (rng.permutation(n).astype(float), rng.integers(0, 5, n).astype(float)):
        if ((n_pos == 0) | (n_pos == n)).any():
            with pytest.raises(DegenerateLabel):
                auc_report(scores, labels)
        else:
            assert auc_report(scores, labels).per_label.tobytes() == _int64_aucs(scores, ref).tobytes()
    features = rng.standard_normal((n, 2))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.csv"
        write_dataset(path, InstanceSet(features), labels)
        text = path.read_bytes()
        back = read_dataset(path)[1].labels
    header = ",".join(["f0", "f1"] + [f"y{k}" for k in range(K)])
    lines = [",".join([*map(repr, f), *map(str, y)]) for f, y in zip(features.tolist(), ref.tolist())]
    assert text == ("\n".join([header] + lines) + "\n").encode()
    assert back.dtype == np.int8 and back.tobytes() == stored.tobytes()
