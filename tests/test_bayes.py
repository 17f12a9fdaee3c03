import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import linprog

from rankagg import (
    CostMatrix,
    DegenerateLabel,
    EtaTable,
    InvalidCosts,
    PriorVector,
    Sum,
    aggregate_distribution,
    alpha_vector,
    dictatorship_analysis,
    label_agg_bayes_scorer_sum,
    label_agg_bayes_scorer_weighted,
    label_agg_uniform_cost_scorer_k2,
    loss_agg_bayes_scorer,
    multipartite_bayes_scorer,
    partial_order_over_combos,
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
    bad = CostMatrix.custom(
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
    bad = CostMatrix.custom(
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


def test_dictatorship_analysis_direction_and_tie():
    assert dictatorship_analysis([3.0, 1.0]).dictator == 0
    assert dictatorship_analysis([1.0, 3.0]).dictator == 1
    assert dictatorship_analysis([2.0, 2.0]).dictator is None


def test_dictatorship_constraint_holds_on_deterministic_tables():
    # the dictator label's positives always outrank its negatives
    for table in itertools.product([0.0, 1.0], repeat=8):
        eta = EtaTable(np.array(table).reshape(4, 2))
        report = dictatorship_analysis([5.0, 1.0], eta=eta)
        assert report.dictator == 0
        assert report.violations == ()


def _violations_by_double_loop(alphas, eta):
    """Every (positive, negative) pair on the dictator label that the
    loss-aggregation scores fail to order, checked one pair at a time."""
    alpha = np.asarray(alphas, dtype=float)
    if alpha[0] == alpha[1]:
        return ()
    dictator = 0 if alpha[0] > alpha[1] else 1
    scores = eta.eta @ alpha / eta.K
    violations = []
    for i in np.flatnonzero(eta.eta[:, dictator] == 1.0):
        for j in np.flatnonzero(eta.eta[:, dictator] == 0.0):
            if scores[i] <= scores[j]:
                violations.append((int(i), int(j)))
    return tuple(violations)


@settings(deadline=None)
@given(
    st.lists(st.one_of(st.floats(-4.0, 4.0), st.sampled_from([0.0, np.inf, -np.inf, np.nan])), min_size=2, max_size=2),
    arrays(np.float64, st.tuples(st.integers(1, 12), st.just(2)), elements=st.sampled_from([0.0, 1.0])),
)
def test_dictatorship_violations_match_the_double_loop(alphas, table):
    eta = EtaTable(table)
    with np.errstate(invalid="ignore"):
        got = dictatorship_analysis(alphas, eta=eta).violations
        assert got == _violations_by_double_loop(alphas, eta)
    assert all(type(i) is int and type(j) is int for i, j in got)


_ALL = [(0, 0), (0, 1), (1, 0), (1, 1)]


def _chain(*levels):
    pairs = set()
    for i, low in enumerate(levels):
        for high in levels[i + 1 :]:
            pairs.update((lo, hi) for lo in low for hi in high)
    return frozenset(pairs)


def test_partial_orders_over_combos():
    # loss aggregation totally orders the combos, either way around
    assert partial_order_over_combos("lossagg", [3.0, 1.0]) == _chain(
        [(0, 0)], [(0, 1)], [(1, 0)], [(1, 1)]
    )
    assert partial_order_over_combos("lossagg", [1.0, 3.0]) == _chain(
        [(0, 0)], [(1, 0)], [(0, 1)], [(1, 1)]
    )
    # sum aggregation leaves the disagreeing combos incomparable
    assert partial_order_over_combos("labelagg_sum") == _chain(
        [(0, 0)], [(0, 1), (1, 0)], [(1, 1)]
    )
    # product aggregation only separates the all-ones combo
    assert partial_order_over_combos("labelagg_product") == _chain(
        [(0, 0), (0, 1), (1, 0)], [(1, 1)]
    )


def test_label_agg_weighted_scorer_validation():
    eta = EtaTable(np.full((2, 2), 0.5))
    with pytest.raises(ValueError):
        label_agg_bayes_scorer_weighted(eta, [1.0])
    with pytest.raises(ValueError):
        label_agg_bayes_scorer_weighted(eta, [1.0, 0.0])
    vals = label_agg_bayes_scorer_weighted(eta, [2.0, 4.0]).scores()
    assert vals == pytest.approx([3.0, 3.0])


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
