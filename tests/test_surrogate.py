import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from rankagg import (
    CostMatrix,
    Hinge,
    InstanceSet,
    LabelAgg,
    LinearScorer,
    Logistic,
    LossAgg,
    NotTrainable,
    PerLabel,
    SampledLabels,
    Sum,
    TableScorer,
    TrainConfig,
    surrogate_gradient,
    surrogate_objective,
    train,
)
from rankagg.surrogate import init_scorer, scorer_parameters, _rebuild


def _dataset(seed, n=14, d=3):
    rng = np.random.default_rng(seed)
    feats = rng.standard_normal((n, d))
    labels = rng.integers(0, 2, (n, 2))
    labels[0], labels[1] = (1, 1), (0, 0)  # both classes on both labels
    return InstanceSet(feats), SampledLabels(labels)


_OBJECTIVES = [
    PerLabel(0),
    LossAgg((1.0, 2.5)),
    LabelAgg(Sum(), CostMatrix.absdiff(3)),
]


def _numeric_gradient(scorer, inst, labels, objective, kind, h=1e-6):
    params = scorer_parameters(scorer)
    grads = []
    for idx, p in enumerate(params):
        g = np.zeros_like(p, dtype=float)
        flat = p.reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            for sign in (+1.0, -1.0):
                flat[j] = orig + sign * h
                value = surrogate_objective(_rebuild(scorer, params), inst, labels, objective, kind)
                g.reshape(-1)[j] += sign * value / (2 * h)
            flat[j] = orig
        grads.append(g)
    return grads


def _max_rel_err(analytic, numeric):
    # floor the scale: bias gradients of pairwise losses are exactly zero,
    # so their finite-difference noise would otherwise divide by itself
    worst = 0.0
    for a, n in zip(analytic, numeric):
        scale = np.maximum(np.abs(n), 1e-3)
        worst = max(worst, float(np.max(np.abs(a - n) / scale)))
    return worst


@pytest.mark.parametrize("objective", _OBJECTIVES)
@pytest.mark.parametrize("hidden", [(), (4,)])
def test_logistic_gradients_match_finite_differences(objective, hidden):
    for seed in range(3):
        inst, labels = _dataset(seed)
        scorer = init_scorer(inst.d, hidden, seed)
        if not hidden:
            rng = np.random.default_rng(seed + 50)
            scorer = LinearScorer(weights=rng.standard_normal(inst.d), bias=0.1)
        analytic = surrogate_gradient(scorer, inst, labels, objective, Logistic())
        numeric = _numeric_gradient(scorer, inst, labels, objective, Logistic())
        assert _max_rel_err(analytic, numeric) < 1e-5


def test_hinge_gradients_away_from_the_kink():
    inst, labels = _dataset(7)
    rng = np.random.default_rng(8)
    # keep every pair margin away from z = 1 where the subgradient jumps
    for _ in range(20):
        scorer = LinearScorer(weights=rng.standard_normal(inst.d), bias=0.0)
        scores = scorer.scores(inst)
        z = scores[:, None] - scores[None, :]
        if np.min(np.abs(z - 1.0)) <= 1e-3:
            continue
        analytic = surrogate_gradient(scorer, inst, labels, PerLabel(0), Hinge())
        numeric = _numeric_gradient(scorer, inst, labels, PerLabel(0), Hinge())
        assert _max_rel_err(analytic, numeric) < 1e-5


# kind -> (surrogate, dense phi, dense phi'): the references the fused and
# distinct-pair evaluation must reproduce
_DENSE_KINDS = {
    "logistic": (Logistic(), lambda z: np.logaddexp(0.0, -z), lambda z: -expit(-z)),
    "hinge": (Hinge(), lambda z: np.maximum(0.0, 1.0 - z), lambda z: -(z < 1.0).astype(float)),
}


def test_fused_logistic_matches_logaddexp_and_expit():
    z = np.concatenate([np.linspace(-745.0, 745.0, 200_001), [0.0, -0.0, np.inf, -np.inf]])
    phi, dphi = Logistic().phi_dphi(z)
    _, dense_phi, dense_dphi = _DENSE_KINDS["logistic"]
    tiny = np.finfo(float).tiny  # below it results are subnormal and carry fewer bits
    for got, want in ((phi, dense_phi(z)), (dphi, dense_dphi(z))):
        normal = np.abs(want) >= tiny
        np.testing.assert_allclose(got[normal], want[normal], rtol=1e-15, atol=0.0)
        assert np.all(np.abs(got[~normal]) < tiny)
    phi, dphi = Logistic().phi_dphi(np.array([0.0, np.inf, -np.inf]))
    assert phi.tolist() == [np.log(2.0), 0.0, np.inf]
    assert dphi.tolist() == [-0.5, 0.0, -1.0]


def _dense_pair_weights(labels, objective):
    """n x n W with loss = sum_ij W_ij phi(s_i - s_j), straight from the objective's definition."""
    y = labels.labels
    if isinstance(objective, PerLabel):
        col = y[:, objective.k]
        w = np.outer(col == 1, col == 0).astype(float)
        return w / w.sum()
    if isinstance(objective, LossAgg):
        return sum(a * _dense_pair_weights(labels, PerLabel(k)) for k, a in enumerate(objective.weights))
    level = y.sum(axis=1)  # the Sum aggregator
    w = np.where(level[:, None] > level[None, :], objective.costs.costs[level[:, None], level[None, :]], 0.0)
    return w / w.sum()


@settings(deadline=None, max_examples=80)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 6),
    st.booleans(),
    st.booleans(),
    st.sampled_from(sorted(_DENSE_KINDS)),
    st.sampled_from([0.0, 0.1, 1.0, 40.0]),
    st.integers(0, 3),
)
def test_distinct_score_pairs_match_the_dense_pair_block(seed, distinct, discrete, resampled, kind_name, scale, which):
    # few distinct feature rows, so scores repeat within and across classes;
    # integer features and weights also put hinge pairs exactly on the kink
    rng = np.random.default_rng(seed)
    n = int(rng.integers(8, 40))
    base = rng.integers(-2, 3, (distinct, 3)).astype(float) if discrete else rng.standard_normal((distinct, 3))
    rows = rng.integers(0, distinct, n)
    # resampled rows carry their labels along; otherwise equal rows may disagree
    labels = rng.integers(0, 2, (distinct, 2))[rows] if resampled else rng.integers(0, 2, (n, 2))
    labels[0], labels[1] = (1, 1), (0, 0)
    feats = base[rows]
    weights = np.round(rng.standard_normal(3) * 2.0) if discrete else rng.standard_normal(3)
    scorer = LinearScorer(weights=scale * weights, bias=0.3)
    inst, labs = InstanceSet(feats), SampledLabels(labels)
    objective = [PerLabel(0), LossAgg((1.0, 2.5)), LabelAgg(Sum(), CostMatrix.absdiff(3)), LabelAgg(Sum(), CostMatrix.uniform(3))][which]
    kind, dense_phi, dense_dphi = _DENSE_KINDS[kind_name]

    w = _dense_pair_weights(labs, objective)
    s = scorer.scores(inst)
    z = s[:, None] - s[None, :]
    d = w * dense_dphi(z)
    grad_scores = d.sum(axis=1) - d.sum(axis=0)
    want_loss = float((w * dense_phi(z)).sum())
    want_grads = [feats.T @ grad_scores, np.array([grad_scores.sum()])]

    loss = surrogate_objective(scorer, inst, labs, objective, kind)
    grads = surrogate_gradient(scorer, inst, labs, objective, kind)
    assert loss == pytest.approx(want_loss, rel=1e-12, abs=1e-12)
    for got, want in zip(grads, want_grads):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def test_surrogates_upper_bound_the_misranking_indicator():
    z = np.linspace(-5, 5, 401)
    indicator = (z <= 0).astype(float)
    assert np.all(Logistic().phi(z) / np.log(2.0) >= indicator - 1e-12)
    assert np.all(Hinge().phi(z) >= indicator - 1e-12)


def test_loss_agg_with_single_active_weight_reduces_to_per_label():
    inst, labels = _dataset(3)
    rng = np.random.default_rng(4)
    scorer = LinearScorer(weights=rng.standard_normal(inst.d), bias=0.0)
    # a second weight of epsilon 0 is rejected, so compare via linearity:
    # loss(a1, a2) = a1 * loss(label 1) + a2 * loss(label 2)
    full = surrogate_objective(scorer, inst, labels, LossAgg((2.0, 3.0)), Logistic())
    l1 = surrogate_objective(scorer, inst, labels, PerLabel(0), Logistic())
    l2 = surrogate_objective(scorer, inst, labels, PerLabel(1), Logistic())
    assert full == pytest.approx(2.0 * l1 + 3.0 * l2, rel=1e-12)


def test_full_batch_descent_decreases_convex_loss_monotonically():
    inst, labels = _dataset(5)
    config = TrainConfig(
        objective=PerLabel(0), surrogate=Logistic(), optimizer="sgd", lr=0.05, epochs=40
    )
    _, trace = train(inst, labels, config)
    losses = [row["loss"] for row in trace]
    assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))


def test_training_is_deterministic_per_seed():
    inst, labels = _dataset(6)
    config = TrainConfig(objective=LossAgg((1.0, 1.0)), epochs=10, seed=3)
    s1, t1 = train(inst, labels, config)
    s2, t2 = train(inst, labels, config)
    np.testing.assert_array_equal(s1.weights, s2.weights)
    assert [r["loss"] for r in t1] == [r["loss"] for r in t2]


def test_pair_sampling_budget_path_trains():
    inst, labels = _dataset(9, n=40)
    config = TrainConfig(objective=PerLabel(0), epochs=15, lr=0.05, pair_budget=20, seed=1)
    scorer, trace = train(inst, labels, config)
    # trace losses are 20-pair estimates, so compare the exact objective
    start = surrogate_objective(
        LinearScorer(weights=np.zeros(inst.d), bias=0.0), inst, labels, PerLabel(0), Logistic()
    )
    end = surrogate_objective(scorer, inst, labels, PerLabel(0), Logistic())
    assert end < start
    assert trace[-1]["train"].per_label[0] > 0.5


def test_mlp_training_runs_and_improves():
    inst, labels = _dataset(10, n=30)
    config = TrainConfig(objective=PerLabel(0), epochs=60, lr=0.02, hidden=(8,), seed=2)
    scorer, trace = train(inst, labels, config)
    assert trace[-1]["train"].per_label[0] > trace[0]["train"].per_label[0] - 1e-9


def test_eval_reports_are_attached():
    inst, labels = _dataset(11)
    config = TrainConfig(objective=PerLabel(1), epochs=2)
    _, trace = train(inst, labels, config, eval_instances=inst, eval_labels=labels)
    assert "eval" in trace[-1]
    assert all("eval" not in row for row in trace[:-1])  # eval AUCs only on the last row
    np.testing.assert_allclose(
        trace[-1]["eval"].per_label, trace[-1]["train"].per_label
    )


def test_table_scorers_are_not_trainable():
    inst, labels = _dataset(12)
    with pytest.raises(NotTrainable):
        surrogate_gradient(TableScorer(np.zeros(inst.n)), inst, labels, PerLabel(0), Logistic())


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(objective=PerLabel(0), epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(objective=PerLabel(0), optimizer="newton")
