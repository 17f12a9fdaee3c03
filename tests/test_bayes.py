from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import linprog

from rankagg import (
    CostMatrix,
    DegenerateLabel,
    EtaTable,
    InvalidCosts,
    JointLabelModel,
    LabelAgg,
    LossAgg,
    PerLabel,
    PriorVector,
    Product,
    SampledLabels,
    Sum,
    WeightedSum,
    aggregate_distribution,
    alpha_vector,
    bayes_scorer,
    certify_bayes,
    label_agg_bayes_scorer_sum,
    label_agg_uniform_cost_scorer_k2,
    loss_agg_bayes_scorer,
    multipartite_bayes_scorer,
    product_agg_bayes_scorer,
)
from rankagg.bayes import _SCALE_TOL, scale_condition_holds


def _rank_order(values):
    return np.argsort(np.argsort(values, kind="stable"), kind="stable")


def test_alpha_vector_formula_and_validation():
    alpha = alpha_vector(np.array([0.5, 0.9]), np.array([1.0, 2.0]))
    assert alpha == pytest.approx([4.0, 2.0 / 0.09])
    with pytest.raises(DegenerateLabel):
        alpha_vector(np.array([0.0, 0.5]), np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        alpha_vector(np.array([0.5, 0.5]), np.array([1.0, -1.0]))
    with pytest.raises(ValueError, match="NaN"):
        alpha_vector(np.array([np.nan, 0.5]), np.array([1.0, 1.0]))


def test_loss_agg_scorer_ordering_invariant_to_weight_rescaling():
    rng = np.random.default_rng(0)
    eta = EtaTable(rng.uniform(0.1, 0.9, (8, 3)))
    weights = np.array([1.0, 2.0, 0.5])
    base = loss_agg_bayes_scorer(eta, weights=weights).scores()
    scaled = loss_agg_bayes_scorer(eta, weights=7.5 * weights).scores()
    np.testing.assert_array_equal(_rank_order(base), _rank_order(scaled))


def test_matched_weights_make_loss_agg_order_equal_sum_scorer_order():
    rng = np.random.default_rng(1)
    eta = EtaTable(rng.uniform(0.1, 0.9, (10, 3)))
    pi = eta.eta.mean(axis=0)
    scores = loss_agg_bayes_scorer(eta, weights=pi * (1 - pi)).scores()
    np.testing.assert_array_equal(
        _rank_order(scores), _rank_order(label_agg_bayes_scorer_sum(eta).scores())
    )


def test_aggregate_mean_equals_sum_scorer():
    rng = np.random.default_rng(2)
    eta = EtaTable(rng.uniform(0.0, 1.0, (7, 4)))
    dist = aggregate_distribution(eta, Sum())
    np.testing.assert_allclose(
        dist.mean(), label_agg_bayes_scorer_sum(eta).scores(), atol=1e-9
    )


def test_uniform_cost_k2_scorer_on_deterministic_combos():
    eta = EtaTable(np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]))
    vals = label_agg_uniform_cost_scorer_k2(eta).scores()
    assert vals[0] == 0.0
    assert vals[1] == 1.0 and vals[2] == 1.0
    assert vals[3] == np.inf
    # strictly monotone transform of eta1 + eta2 = (0, 1, 1, 2)
    assert vals[0] < vals[1] == vals[2] < vals[3]


def test_uniform_cost_k2_matches_multipartite_closed_form():
    rng = np.random.default_rng(3)
    eta = EtaTable(rng.uniform(0.05, 0.95, (9, 2)))
    direct = label_agg_uniform_cost_scorer_k2(eta).scores()
    dist = aggregate_distribution(eta, Sum())
    generic = multipartite_bayes_scorer(dist.probs, CostMatrix.uniform(3)).scores()
    np.testing.assert_allclose(direct, generic, atol=1e-12)


def test_scale_condition():
    assert scale_condition_holds(CostMatrix.absdiff(4))  # w = 1, s_y = y
    assert scale_condition_holds(CostMatrix.uniform(2))
    bad = CostMatrix(
        [[0, 0, 0, 0], [1, 0, 0, 0], [1, 1, 0, 0], [1, 1, 10, 0]]
    )
    assert not scale_condition_holds(bad)


def _linprog_scale_condition(c):
    """Reference: the scale condition as a linear program over the weights.

    Same gauge as the closed form (w_0 = 1, s_0 = 0, u_y = c[y, 0]); the
    relations c[y, y'] = w_y' * u_y - w_y * u_y' are equality constraints,
    and the program maximizes the smallest weight, capped at 1.
    """
    m = c.shape[0]
    u = np.concatenate([[0.0], c[1:, 0]])
    rows, rhs = [], []
    for y in range(2, m):
        for yp in range(1, y):
            row = np.zeros(m - 1)
            row[yp - 1] += u[y]
            row[y - 1] -= u[yp]
            rows.append(row)
            rhs.append(c[y, yp])
    n_w = m - 1
    objective = np.zeros(n_w + 1)
    objective[-1] = -1.0
    result = linprog(
        objective,
        A_ub=np.hstack([-np.eye(n_w), np.ones((n_w, 1))]),  # t - w_y <= 0
        b_ub=np.zeros(n_w),
        A_eq=np.hstack([np.asarray(rows), np.zeros((len(rows), 1))]),
        b_eq=np.asarray(rhs),
        bounds=[(None, None)] * n_w + [(None, 1.0)],
    )
    if not result.success or result.x[-1] <= _SCALE_TOL:
        return False
    w = np.concatenate([[1.0], result.x[:n_w]])
    scale = max(1.0, float(np.abs(c).max()))
    for y in range(1, m):
        for yp in range(y):
            pred = w[yp] * u[y] - w[y] * u[yp] if yp > 0 else u[y]
            if abs(pred - c[y, yp]) > _SCALE_TOL * scale:
                return False
    return True


@st.composite
def _cost_matrices(draw):
    """Lower-triangular costs with m in 3..8, far from the 1e-8 tolerance.

    Factorizable matrices take w in [0.5, 2] and s with gaps 0 (ties) or in
    [0.25, 2], so nonzero entries lie in [1/16, 56]; a perturbation zeroes an
    entry or scales it by a factor in [1 + 1e-4, 2], so it moves that entry
    by more than 5x the tolerance 1e-8 * max|c|.
    """
    m = draw(st.integers(3, 8))
    kind = draw(st.sampled_from(["factorizable", "zeroed", "scaled", "integer", "first_column_zero"]))
    if kind == "integer":
        return np.tril(draw(arrays(np.float64, (m, m), elements=st.integers(0, 3))), -1)
    w = draw(arrays(np.float64, m, elements=st.floats(0.5, 2.0)))
    gaps = draw(arrays(np.float64, m - 1, elements=st.just(0.0) | st.floats(0.25, 2.0)))
    s = np.concatenate([[0.0], np.cumsum(gaps)])
    c = np.tril(np.outer(w, w) * (s[:, None] - s[None, :]), -1)
    y = draw(st.integers(1, m - 1))
    yp = draw(st.integers(0, y - 1))
    if kind == "zeroed":
        c[y, yp] = 0.0
    elif kind == "scaled":
        c[y, yp] *= 1.0 + draw(st.floats(1e-4, 1.0))
    elif kind == "first_column_zero":
        c[:, 0] = 0.0
    return c


@settings(max_examples=300, deadline=None)
@given(_cost_matrices())
def test_scale_condition_matches_linear_program(c):
    assert scale_condition_holds(CostMatrix(c)) == _linprog_scale_condition(c)


def test_scale_condition_accepts_perturbations_within_tolerance():
    c = CostMatrix.absdiff(5).costs.copy()  # max |c| = 4: tolerance 4e-8
    c[4, 2] = 2.0 + 1e-8
    assert scale_condition_holds(CostMatrix(c))
    c[4, 2] = 2.0 + 1e-6
    assert not scale_condition_holds(CostMatrix(c))


def test_multipartite_scorer_rejects_unfactorizable_large_alphabets():
    probs = np.full((2, 4), 0.25)
    bad = CostMatrix(
        [[0, 0, 0, 0], [1, 0, 0, 0], [1, 1, 0, 0], [1, 1, 10, 0]]
    )
    with pytest.raises(InvalidCosts):
        multipartite_bayes_scorer(probs, bad)


def test_multipartite_scorer_checks_the_scale_condition_on_the_alphabet_block_only():
    probs = np.random.default_rng(4).dirichlet(np.ones(4), 6)
    costs = np.full((6, 6), 7.0)
    costs[:4, :4] = CostMatrix.absdiff(4).costs
    # the two levels past the alphabet are never read, and they fail the condition
    assert not scale_condition_holds(CostMatrix(costs))
    want = multipartite_bayes_scorer(probs, CostMatrix.absdiff(4)).scores()
    assert multipartite_bayes_scorer(probs, CostMatrix(costs)).scores().tobytes() == want.tobytes()
    costs[:4, :4] = [[0, 0, 0, 0], [1, 0, 0, 0], [1, 1, 0, 0], [1, 1, 10, 0]]
    with pytest.raises(InvalidCosts):
        multipartite_bayes_scorer(probs, CostMatrix(costs))


def test_product_scorer_is_all_ones_probability():
    eta = EtaTable(np.array([[0.5, 0.8], [1.0, 1.0]]))
    vals = product_agg_bayes_scorer(eta).scores()
    assert vals == pytest.approx([0.4, 1.0])


@pytest.mark.parametrize("K", range(1, 21))
def test_sum_scorer_adds_the_columns_in_order(K):
    eta = EtaTable(np.random.default_rng(K).uniform(0.0, 1.0, (1000, K)))
    got, ref = label_agg_bayes_scorer_sum(eta).scores(), eta.eta.sum(axis=1)
    if K <= 7:
        assert got.tobytes() == ref.tobytes()
    else:
        # numpy sums 8 or more columns pairwise
        np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-12)


def test_fortran_and_c_ordered_eta_give_the_same_bits():
    values = np.random.default_rng(0).uniform(0.05, 0.95, (100_000, 2))
    c_order, f_order = EtaTable(values), EtaTable(np.asfortranarray(values))
    assert PriorVector.from_eta(f_order).pi.tobytes() == PriorVector.from_eta(c_order).pi.tobytes()
    assert alpha_vector(f_order, [1.0, 2.0]).tobytes() == alpha_vector(c_order, [1.0, 2.0]).tobytes()
    assert loss_agg_bayes_scorer(f_order).scores().tobytes() == loss_agg_bayes_scorer(c_order).scores().tobytes()


@st.composite
def _model_objective_pairs(draw):
    """A label model and an objective on it: Hypothesis picks the shapes and kinds, a seed the numbers.

    Models: EtaTables with eta uniform in [0.05, 0.95] or on a grid that
    ties rows, and joint laws with Dirichlet(1) rows. Objectives: PerLabel,
    LossAgg with random positive weights, or LabelAgg over Sum, Product or a
    real or integer WeightedSum with uniform, absdiff or scale-condition costs.
    """
    n, K = draw(st.integers(1, 7)), draw(st.integers(1, 3))
    model_kind = draw(st.sampled_from(["uniform", "grid", "joint"]))
    kind = draw(st.sampled_from(["per_label", "loss_agg", "sum", "product", "real", "integer"]))
    costs = draw(st.sampled_from(["uniform", "absdiff", "scale"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if model_kind == "joint":
        model = JointLabelModel(rng.dirichlet(np.ones(2**K), n))
    elif model_kind == "uniform":
        model = EtaTable(rng.uniform(0.05, 0.95, (n, K)))
    else:
        model = EtaTable(rng.choice([0.2, 0.5, 0.8], (n, K)))
    if kind == "per_label":
        return model, PerLabel(int(rng.integers(K)))
    if kind == "loss_agg":
        return model, LossAgg(tuple(rng.uniform(0.1, 10.0, K)))
    aggregator = {
        "sum": Sum(),
        "product": Product(),
        "real": WeightedSum(tuple(rng.uniform(0.1, 10.0, K))),
        "integer": WeightedSum(tuple(rng.integers(1, 4, K).astype(float))),
    }[kind]
    levels = aggregate_distribution(model, aggregator).values.shape[0]
    if costs == "scale":
        # c[y, y'] = w_y w_y' (s_y - s_y') with w > 0 and s increasing
        w, s = rng.uniform(0.5, 2.0, levels), np.cumsum(rng.uniform(0.25, 2.0, levels))
        return model, LabelAgg(aggregator, CostMatrix(np.tril(np.outer(w, w) * (s[:, None] - s[None, :]), -1)))
    return model, LabelAgg(aggregator, getattr(CostMatrix, costs)(levels))


# Sum objectives on which the sum of the marginals leaves a gap, and the
# one on which it is the Bayes scorer of a joint law
_JOINT5 = JointLabelModel(np.random.default_rng(0).dirichlet(np.ones(4), 5))
_SCALE3 = CostMatrix([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.98, 0.56, 0.0]])  # w = (1, 2, 0.7), s = (0.3, 1.3, 1.7)


@settings(max_examples=200, deadline=None)
@given(_model_objective_pairs())
@example((EtaTable(np.random.default_rng(10).uniform(0.05, 0.95, (7, 2))), LabelAgg(Sum(), CostMatrix.uniform(3))))
@example((EtaTable(np.random.default_rng(0).uniform(0.05, 0.95, (6, 2))), LabelAgg(Sum(), _SCALE3)))
@example((_JOINT5, LabelAgg(Sum(), CostMatrix.uniform(3))))
@example((_JOINT5, LabelAgg(Sum(), CostMatrix.absdiff(3))))
def test_bayes_scorer_certifies_or_has_no_closed_form(case):
    model, objective = case
    try:
        scorer = bayes_scorer(model, objective)
    except InvalidCosts:
        # the one objective without a closed form: more than 3 aggregate levels, costs off the scale condition
        levels = aggregate_distribution(model, objective.aggregator).values.shape[0]
        assert levels > 3 and not scale_condition_holds(CostMatrix(objective.costs.costs[:levels, :levels]))
        return
    result = certify_bayes(scorer, model, objective)
    assert result.optimal, result.gap


def test_bayes_scorer_rejects_what_it_has_no_scorer_for():
    eta = EtaTable(np.full((3, 2), 0.5))
    with pytest.raises(TypeError, match="label model"):
        bayes_scorer(SampledLabels(np.eye(2, dtype=int)), PerLabel(0))
    with pytest.raises(TypeError, match="objective"):
        bayes_scorer(eta, "sum")
    with pytest.raises(ValueError, match="label index"):
        bayes_scorer(eta, PerLabel(2))
    with pytest.raises(ValueError, match="3 weights for 2 labels"):
        bayes_scorer(eta, LossAgg((1.0, 1.0, 1.0)))
    # absdiff over 2 levels does not cover Sum's 3: no sum scorer, and the closed form needs every level's costs
    with pytest.raises(ValueError, match="smaller than the alphabet"):
        bayes_scorer(eta, LabelAgg(Sum(), CostMatrix.absdiff(2)))

# every combo of three deterministic labels, label 0 the high bit
_COMBOS3 = ((np.arange(8)[:, None] >> np.arange(2, -1, -1)) & 1).astype(float)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.integers(0, 7), max_size=4),
    st.lists(st.sampled_from([0.5, 1.0, 2.0, 3.0]), min_size=3, max_size=3),
)
@example([], [2.0, 1.0, 1.0])  # equal priors: alpha_0 = alpha_1 + alpha_2 exactly
def test_a_label_dictates_loss_aggregation_exactly_when_its_alpha_passes_the_others(duplicates, weights):
    # duplicated combos move the priors; alpha_k = a_k / (pi_k (1 - pi_k)) is computed exactly
    eta = EtaTable(np.concatenate([_COMBOS3, _COMBOS3[duplicates]]))
    n = eta.n
    positives = [int(c) for c in eta.eta.sum(axis=0)]
    alpha = [Fraction(a) * n * n / (c * (n - c)) for a, c in zip(weights, positives)]
    objective = LossAgg(tuple(weights))
    scores = bayes_scorer(eta, objective).scores()
    for k in range(3):
        others = sum(alpha) - alpha[k]
        if alpha[k] == others:
            # label k alone against every other label: the boundary combos tie
            alone = 1 << (2 - k)
            assert scores[alone] == pytest.approx(scores[7 - alone], rel=0.0, abs=1e-12)
        else:
            on = eta.eta[:, k] == 1
            assert (scores[on].min() > scores[~on].max()) == (alpha[k] > others)
    assert certify_bayes(scores, eta, objective).optimal
