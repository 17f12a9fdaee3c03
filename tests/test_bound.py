import numpy as np
import pytest

from rankagg import (
    CostMatrix,
    DegenerateVariance,
    EtaTable,
    LabelAgg,
    Sum,
    certify_bayes,
    evaluate_bound,
    gap_bound,
    measure_gap,
)
from rankagg.bound import psi


def test_psi_shape():
    assert psi(0.0) == 0.0
    assert psi(0.5) == 2.0
    assert psi(1.0) == np.inf
    assert psi(2.0) == np.inf
    grid = np.linspace(0.0, 0.99, 100)
    vals = [psi(t) for t in grid]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    with pytest.raises(ValueError):
        psi(-0.1)


def test_fair_coin_labels_hit_the_closed_form():
    # variance sums are 2K/4 per pair, so the ratio is sqrt(2/K)
    eta = EtaTable(np.full((4, 8), 0.5))
    report = gap_bound(eta, np.ones(8))
    assert report.argument == pytest.approx(0.5, abs=1e-12)
    assert report.bound_value == pytest.approx(2.0, abs=1e-12)
    eta200 = EtaTable(np.full((3, 200), 0.5))
    report200 = gap_bound(eta200, np.ones(200))
    assert report200.argument == pytest.approx(0.1, abs=1e-12)
    assert report200.bound_value == pytest.approx(2.0 * 0.1 / 0.9, abs=1e-12)


def test_corollary_envelope():
    rng = np.random.default_rng(0)
    c = 0.2
    for K in (2, 4, 8):
        eta = EtaTable(rng.uniform(c, 1 - c, (5, K)))
        report = gap_bound(eta, np.ones(K))
        assert report.bound_value <= psi(1.0 / np.sqrt(2 * c * (1 - c) * K)) + 1e-12


def test_bound_non_increasing_in_k_for_fair_coins():
    values = []
    for K in (2, 4, 8, 16):
        eta = EtaTable(np.full((3, K), 0.4))
        values.append(gap_bound(eta, np.ones(K)).bound_value)
    assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))


def test_deterministic_rows_are_refused():
    eta = EtaTable(np.array([[1.0, 0.0], [0.5, 0.5]]))
    with pytest.raises(DegenerateVariance):
        gap_bound(eta, np.ones(2))
    with pytest.raises(DegenerateVariance):
        measure_gap(eta, np.ones(2))


def test_extreme_weights_push_past_the_pole():
    eta = EtaTable(np.array([[0.5, 0.5]]))
    report = gap_bound(eta, np.array([1.0, 1e6]))
    assert report.argument >= 1.0
    assert report.bound_value == np.inf


def test_gap_below_bound_on_random_tables():
    rng = np.random.default_rng(1)
    for _ in range(25):
        K = int(rng.integers(2, 5))
        eta = EtaTable(rng.uniform(0.2, 0.8, (5, K)))
        report = evaluate_bound(eta, np.ones(K))
        assert report.empirical_gap >= -1e-12
        assert report.empirical_gap <= report.bound_value + 1e-12


def test_single_label_scorer_is_optimal():
    rng = np.random.default_rng(2)
    eta = EtaTable(rng.uniform(0.2, 0.8, (5, 1)))
    assert measure_gap(eta, np.ones(1)) == pytest.approx(0.0, abs=1e-12)


def test_identical_rows_tie_every_scorer():
    eta = EtaTable(np.tile([[0.3, 0.7]], (4, 1)))
    assert measure_gap(eta, np.ones(2)) == pytest.approx(0.0, abs=1e-12)


def test_measured_gap_is_the_uniform_cost_gap_of_the_probability_sum():
    # bound's K = 2 table at seed 1 (n = 8, eta uniform in [0.05, 0.95]):
    # the sum of the probabilities misses the uniform-cost optimum, while
    # under absdiff costs it is the Bayes scorer and its gap is 0
    eta = EtaTable(np.random.default_rng([1, 2]).uniform(0.05, 0.95, (8, 2)))
    scores = eta.eta[:, 0] + eta.eta[:, 1]
    uniform = certify_bayes(scores, eta, LabelAgg(Sum(), CostMatrix.uniform(3))).gap
    assert uniform > 1e-6
    assert evaluate_bound(eta, np.ones(2)).empirical_gap == pytest.approx(uniform, rel=0.0, abs=1e-12)
    assert certify_bayes(scores, eta, LabelAgg(Sum(), CostMatrix.absdiff(3))).gap == pytest.approx(0.0, abs=1e-12)
