from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from rankagg import (
    CostMatrix,
    EtaTable,
    InstanceSet,
    LabelAgg,
    Logistic,
    LossAgg,
    MlpScorer,
    NotTrainable,
    PerLabel,
    SampledLabels,
    Sum,
    TableScorer,
    TrainConfig,
    auc_report,
    certify_bayes,
    gen_conflicting_pair,
    surrogate_gradient,
    surrogate_objective,
    train,
)
from rankagg import surrogate
from rankagg.metrics import _pair_matrix, _weight_rows
from rankagg.surrogate import _loss_and_score_grad, _pair_groups, _rebuild, init_scorer, scorer_parameters


def _dataset(seed, n=14, d=3):
    rng = np.random.default_rng(seed)
    feats = rng.standard_normal((n, d))
    labels = rng.integers(0, 2, (n, 2))
    labels[0], labels[1] = (1, 1), (0, 0)  # both classes on both labels
    return InstanceSet(feats), SampledLabels(labels)


def _linear(w, b):
    """The linear scorer x @ w + b as a one-layer MlpScorer."""
    return MlpScorer(weights=(np.asarray(w, dtype=float)[:, None],), biases=(np.array([b], dtype=float),))


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
                value = surrogate_objective(_rebuild(params), inst, labels, objective, kind)
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
            scorer = _linear(rng.standard_normal(inst.d), 0.1)
        analytic = surrogate_gradient(scorer, inst, labels, objective, Logistic())
        numeric = _numeric_gradient(scorer, inst, labels, objective, Logistic())
        assert _max_rel_err(analytic, numeric) < 1e-5


# dense phi and phi': the references the fused and distinct-pair evaluation must reproduce
def _dense_phi(z):
    return np.logaddexp(0.0, -z)


def _dense_dphi(z):
    return -expit(-z)


def test_fused_logistic_matches_logaddexp_and_expit():
    z = np.concatenate([np.linspace(-745.0, 745.0, 200_001), [0.0, -0.0, np.inf, -np.inf]])
    phi, dphi = Logistic().phi_dphi(z)
    tiny = np.finfo(float).tiny  # below it results are subnormal and carry fewer bits
    for got, want in ((phi, _dense_phi(z)), (dphi, _dense_dphi(z))):
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
    st.sampled_from([0.0, 0.1, 1.0, 40.0]),
    st.integers(0, 3),
)
def test_distinct_score_pairs_match_the_dense_pair_block(seed, distinct, discrete, resampled, scale, which):
    # few distinct feature rows, so scores repeat within and across classes
    rng = np.random.default_rng(seed)
    n = int(rng.integers(8, 40))
    base = rng.integers(-2, 3, (distinct, 3)).astype(float) if discrete else rng.standard_normal((distinct, 3))
    rows = rng.integers(0, distinct, n)
    # resampled rows carry their labels along; otherwise equal rows may disagree
    labels = rng.integers(0, 2, (distinct, 2))[rows] if resampled else rng.integers(0, 2, (n, 2))
    labels[0], labels[1] = (1, 1), (0, 0)
    feats = base[rows]
    weights = np.round(rng.standard_normal(3) * 2.0) if discrete else rng.standard_normal(3)
    scorer = _linear(scale * weights, 0.3)
    inst, labs = InstanceSet(feats), SampledLabels(labels)
    objective = [PerLabel(0), LossAgg((1.0, 2.5)), LabelAgg(Sum(), CostMatrix.absdiff(3)), LabelAgg(Sum(), CostMatrix.uniform(3))][which]

    w = _dense_pair_weights(labs, objective)
    s = scorer.scores(inst)
    z = s[:, None] - s[None, :]
    d = w * _dense_dphi(z)
    grad_scores = d.sum(axis=1) - d.sum(axis=0)
    want_loss = float((w * _dense_phi(z)).sum())
    want_grads = [feats.T @ grad_scores[:, None], np.array([grad_scores.sum()])]

    loss = surrogate_objective(scorer, inst, labs, objective, Logistic())
    grads = surrogate_gradient(scorer, inst, labs, objective, Logistic())
    assert loss == pytest.approx(want_loss, rel=1e-12, abs=1e-12)
    for got, want in zip(grads, want_grads):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


@settings(deadline=None, max_examples=100)
@given(
    st.integers(2, 3000),
    st.integers(1, 5),
    st.floats(-3.0, 3.0),
    st.integers(0, 2**32 - 1),
    st.sampled_from(range(len(_OBJECTIVES))),
)
def test_a_one_layer_scorer_scores_and_differentiates_as_the_linear_formulas_bit_for_bit(n, d, log_scale, seed, which):
    # the linear scorer train builds: init_scorer's one zero layer, rebuilt from its (d, 1) and (1,) parameters
    rng = np.random.default_rng(seed)
    scale = 10.0**log_scale
    feats = scale * rng.standard_normal((n, d))
    w, b = scale * rng.standard_normal(d), scale * float(rng.standard_normal())
    labels = rng.integers(0, 2, (n, 2))
    labels[0], labels[1] = (1, 1), (0, 0)
    inst, labs, objective = InstanceSet(feats), SampledLabels(labels), _OBJECTIVES[which]
    zero = scorer_parameters(init_scorer(d, (), seed))
    assert [(p.shape, p.any()) for p in zero] == [((d, 1), False), ((1,), False)]
    scorer = _rebuild([w[:, None], np.array([b])])

    assert scorer.scores(inst).tobytes() == (feats @ w + b).tobytes()
    _, g = _loss_and_score_grad(feats @ w + b, _pair_groups(labs, objective), Logistic(), True, want_loss=False)
    grads = surrogate_gradient(scorer, inst, labs, objective, Logistic())
    want = [feats.T @ g[:, None], np.array([g.sum()])]
    assert [(got.shape, got.tobytes()) for got in grads] == [(x.shape, x.tobytes()) for x in want]
    assert grads[0][:, 0].tobytes() == (feats.T @ g).tobytes()


def test_surrogates_upper_bound_the_misranking_indicator():
    z = np.linspace(-5, 5, 401)
    indicator = (z <= 0).astype(float)
    assert np.all(Logistic().phi_dphi(z)[0] / np.log(2.0) >= indicator - 1e-12)


def test_loss_agg_with_single_active_weight_reduces_to_per_label():
    inst, labels = _dataset(3)
    rng = np.random.default_rng(4)
    scorer = _linear(rng.standard_normal(inst.d), 0.0)
    # a second weight of epsilon 0 is rejected, so compare via linearity:
    # loss(a1, a2) = a1 * loss(label 1) + a2 * loss(label 2)
    full = surrogate_objective(scorer, inst, labels, LossAgg((2.0, 3.0)), Logistic())
    l1 = surrogate_objective(scorer, inst, labels, PerLabel(0), Logistic())
    l2 = surrogate_objective(scorer, inst, labels, PerLabel(1), Logistic())
    assert full == pytest.approx(2.0 * l1 + 3.0 * l2, rel=1e-12)


@pytest.mark.parametrize("objective", _OBJECTIVES, ids=["per_label", "loss_agg", "label_agg"])
def test_exact_path_adam_training_lowers_the_surrogate_objective(objective):
    inst, labels = _dataset(5)
    config = TrainConfig(objective=objective, lr=0.05, epochs=40)
    scorer, _ = train(inst, labels, config, per_epoch=False)
    start = surrogate_objective(init_scorer(inst.d, (), 0), inst, labels, objective, Logistic())
    assert surrogate_objective(scorer, inst, labels, objective, Logistic()) < start


def test_training_is_deterministic_per_seed():
    inst, labels = _dataset(6)
    config = TrainConfig(objective=LossAgg((1.0, 1.0)), epochs=10, seed=3)
    s1, t1 = train(inst, labels, config)
    s2, t2 = train(inst, labels, config)
    np.testing.assert_array_equal(s1.weights, s2.weights)
    assert [r["loss"] for r in t1] == [r["loss"] for r in t2]


def _adam_reference(inst, labels, objective, lr, steps):
    """Adam (Kingma and Ba, 2015) from the zero linear scorer, one full-pair gradient per step."""
    params = [np.zeros((inst.d, 1)), np.zeros(1)]
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    for t in range(1, steps + 1):
        scorer = MlpScorer(weights=(params[0],), biases=(params[1],))
        for i, g in enumerate(surrogate_gradient(scorer, inst, labels, objective, Logistic())):
            m[i] = 0.9 * m[i] + 0.1 * g
            v[i] = 0.999 * v[i] + 0.001 * g * g
            params[i] = params[i] - lr * (m[i] / (1 - 0.9**t)) / (np.sqrt(v[i] / (1 - 0.999**t)) + 1e-8)
    return params


@pytest.mark.parametrize("steps", [1, 2])
def test_untraced_training_steps_are_bias_corrected_adam(steps):
    data = gen_conflicting_pair(40, 3)
    objective, lr = LossAgg((1.0, 1.0)), 0.05
    config = TrainConfig(objective=objective, lr=lr, epochs=steps)
    scorer, _ = train(data.instances, data.labels, config, per_epoch=False)
    want = _adam_reference(data.instances, data.labels, objective, lr, steps)
    got = [scorer.weights[0], scorer.biases[0]]
    for g, w in zip(got, want):
        np.testing.assert_allclose(g, w, rtol=0.0, atol=1e-12)
    if steps == 1:
        # the bias-corrected moments of one step are g and g^2: each parameter moves by -lr * g / (|g| + eps)
        zero = MlpScorer(weights=(np.zeros((2, 1)),), biases=(np.zeros(1),))
        for g, w in zip(surrogate_gradient(zero, data.instances, data.labels, objective, Logistic()), got):
            np.testing.assert_allclose(w, -lr * g / (np.abs(g) + 1e-8), rtol=0.0, atol=1e-12)


def test_pair_sampling_budget_path_trains():
    inst, labels = _dataset(9, n=40)
    config = TrainConfig(objective=PerLabel(0), epochs=15, lr=0.05, pair_budget=20, seed=1)
    scorer, trace = train(inst, labels, config)
    # trace losses are 20-pair estimates, so compare the exact objective
    start = surrogate_objective(_linear(np.zeros(inst.d), 0.0), inst, labels, PerLabel(0), Logistic())
    end = surrogate_objective(scorer, inst, labels, PerLabel(0), Logistic())
    assert end < start
    assert trace[-1]["train"].per_label[0] > 0.5


def test_mlp_training_runs_and_improves():
    inst, labels = _dataset(10, n=30)
    config = TrainConfig(objective=PerLabel(0), epochs=60, lr=0.02, hidden=(8,), seed=2)
    scorer, trace = train(inst, labels, config)
    assert trace[-1]["train"].per_label[0] > trace[0]["train"].per_label[0] - 1e-9


def test_table_scorers_are_not_trainable():
    inst, labels = _dataset(12)
    with pytest.raises(NotTrainable):
        surrogate_gradient(TableScorer(np.zeros(inst.n)), inst, labels, PerLabel(0), Logistic())


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(objective=PerLabel(0), epochs=0)
    with pytest.raises(TypeError):  # the optimizer is Adam, not a setting
        TrainConfig(objective=PerLabel(0), optimizer="newton")
    for lr in (-0.1, np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="learning rate"):
            TrainConfig(objective=PerLabel(0), lr=lr)
    assert TrainConfig(objective=PerLabel(0), lr=0.0).lr == 0.0


def _reference_phi_dphi(z):
    """phi and phi' as fresh arrays, by the formulas the in-place kernel reproduces bit for bit."""
    e = np.exp(-np.abs(z))
    return np.maximum(-z, 0.0) + np.log1p(e), -np.where(z >= 0.0, e, 1.0) / (1.0 + e)


def _reference_loss_and_score_grad(scores, groups, chunk):
    """Reference full-pair kernel: np.unique on each group side, fresh arrays per block."""
    sets, pairs, _ = groups
    grad_scores = np.zeros(scores.size)
    loss = 0.0
    for i, j, coeff in pairs:
        pos, neg = sets[i], sets[j]
        f_pos, inv_pos, c_pos = np.unique(scores[pos], return_inverse=True, return_counts=True)
        f_neg, inv_neg, c_neg = np.unique(scores[neg], return_inverse=True, return_counts=True)
        c_pos, c_neg = c_pos.astype(float), c_neg.astype(float)
        rows = max(1, chunk // f_neg.size)
        total = 0.0
        g_pos = np.empty(f_pos.size)
        g_neg = np.zeros(f_neg.size)
        for start in range(0, f_pos.size, rows):
            block = slice(start, start + rows)
            phi, dphi = _reference_phi_dphi(f_pos[block, None] - f_neg[None, :])
            total += float((phi * c_neg).sum(axis=1) @ c_pos[block])
            g_pos[block] = dphi @ c_neg
            g_neg -= c_pos[block] @ dphi
        scale = coeff / (pos.size * neg.size)
        grad_scores[pos] += scale * g_pos[inv_pos]
        grad_scores[neg] += scale * g_neg[inv_neg]
        loss += scale * total
    return loss, grad_scores


_KERNEL_OBJECTIVES = [
    PerLabel(0),
    LossAgg((1.0, 2.5)),
    LabelAgg(Sum(), CostMatrix.uniform(3)),
    LabelAgg(Sum(), CostMatrix.absdiff(3)),
]


def _repeated_scores(seed):
    """Scores and labels of resampled rows: few distinct values, signed zeros among them."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 60))
    distinct = int(rng.integers(1, n + 1))
    if rng.random() < 0.5:
        pool = rng.integers(-2, 3, distinct).astype(float)
    else:
        pool = rng.standard_normal(distinct) * rng.choice([1e-3, 1.0, 40.0])
    pool[rng.random(distinct) < 0.25] = 0.0
    pool[rng.random(distinct) < 0.25] = -0.0
    rows = rng.integers(0, distinct, n)
    labels = rng.integers(0, 2, (distinct, 2))[rows]  # labels ride along with their rows
    labels[0], labels[1] = (1, 1), (0, 0)
    return pool[rows], SampledLabels(labels)


def _assert_kernel_matches_reference(scores, labels, objective, kind, chunk):
    groups = _pair_groups(labels, objective)
    want_loss, want_grad = _reference_loss_and_score_grad(scores, groups, chunk)
    loss, grad_scores = _loss_and_score_grad(scores, groups, kind, want_grad=True)
    assert loss == want_loss
    assert grad_scores.tobytes() == want_grad.tobytes()
    assert _loss_and_score_grad(scores, groups, kind, want_grad=False)[0] == want_loss


@settings(deadline=None, max_examples=150)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(range(len(_KERNEL_OBJECTIVES))),
    st.sampled_from([1 << 20, 1, 2, 7, 16]),
)
def test_one_sort_kernel_matches_the_per_group_unique_kernel_bit_for_bit(seed, which, chunk):
    scores, labels = _repeated_scores(seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(surrogate, "_CHUNK_CELLS", chunk)
        _assert_kernel_matches_reference(scores, labels, _KERNEL_OBJECTIVES[which], Logistic(), chunk)


@pytest.mark.parametrize("kind", [Logistic()], ids=["logistic"])
def test_chunked_blocks_split_into_single_rows_and_a_partial_tail(kind, monkeypatch):
    # label 0: 7 distinct positive and 5 distinct negative scores, a signed zero on each side
    pos = [0.0, -0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 3.0, 5.0]
    neg = [-1.0, -0.0, 0.0, 0.25, 1.0, 1.0, -2.0]
    scores = np.array(pos + neg)
    labels = SampledLabels(np.column_stack([[1] * len(pos) + [0] * len(neg), np.arange(scores.size) % 2]))
    assert (np.unique(pos).size, np.unique(neg).size) == (7, 5)
    assert surrogate._block_rows(7, 5) == 7  # the default chunk holds the whole group
    for chunk, rows in ((4, 1), (15, 3), (30, 6)):
        monkeypatch.setattr(surrogate, "_CHUNK_CELLS", chunk)
        # one row per block, or a last block shorter than the others
        assert surrogate._block_rows(7, 5) == rows and (rows == 1 or 7 % rows)
        for objective in (PerLabel(0), LossAgg((1.0, 2.5))):
            _assert_kernel_matches_reference(scores, labels, objective, kind, chunk)


@pytest.mark.parametrize("kind", [Logistic()])
@pytest.mark.parametrize("chunk", [1 << 20, 7])  # one block per group, or several
@pytest.mark.parametrize("budget", [None, 40])  # exact, or sampled pairs
def test_a_reused_scratch_set_leaves_no_stale_cell_in_the_results(kind, chunk, budget, monkeypatch):
    monkeypatch.setattr(surrogate, "_CHUNK_CELLS", chunk)
    _, labels = _dataset(21, n=30)
    spread = np.random.default_rng(3).standard_normal(30)
    # one distinct value, then 30, then fewer again, each behind the cells the last call left
    score_runs = (np.zeros(30), spread, spread.round())
    for objective in _KERNEL_OBJECTIVES:
        reused = _pair_groups(labels, objective)
        stale = [np.full(1024, np.nan) for _ in range(4)]  # longer than any block of 30 rows
        reused[2][:] = stale
        for scores in score_runs:
            for want_loss in (True, False):
                got, want = (
                    _loss_and_score_grad(
                        scores, groups, kind, True, budget=budget, rng=np.random.default_rng(5), want_loss=want_loss
                    )
                    for groups in (reused, _pair_groups(labels, objective))
                )
                assert got[0] == want[0] and (got[0] is None) == (not want_loss)
                assert got[1].tobytes() == want[1].tobytes()
        assert all(buf is old for buf, old in zip(reused[2], stale))  # never regrown: every call read the NaN set


def test_each_full_pair_call_sorts_the_scores_once(monkeypatch):
    scores, labels = _repeated_scores(5)
    calls = []
    unique = np.unique

    def counting_unique(values, *args, **kwargs):
        calls.append(np.asarray(values).size)
        return unique(values, *args, **kwargs)

    def no_sort(*args, **kwargs):
        raise AssertionError("the kernel sorted outside np.unique")

    monkeypatch.setattr(np, "unique", counting_unique)
    for name in ("sort", "argsort", "lexsort", "partition", "argpartition"):
        monkeypatch.setattr(np, name, no_sort)
    for objective in _KERNEL_OBJECTIVES:
        groups = _pair_groups(labels, objective)
        for want_grad in (False, True):
            calls.clear()
            _loss_and_score_grad(scores, groups, Logistic(), want_grad)
            assert calls == [scores.size]
        calls.clear()
        _loss_and_score_grad(scores, groups, Logistic(), True, budget=1, rng=np.random.default_rng(0))
        assert calls == []  # the sampled path needs no distinct values


@pytest.mark.parametrize("kind", [Logistic()])
def test_dphi_alone_matches_phi_dphi_byte_for_byte(kind):
    z = np.concatenate([np.linspace(-800.0, 800.0, 20_001), [0.0, -0.0, np.inf, -np.inf, 709.5, -709.5, 1e300, -1e300]])
    want = kind.phi_dphi(z)[1]
    assert kind.dphi(z).tobytes() == want.tobytes()
    e, dphi = np.empty_like(z), np.empty_like(z)
    assert kind.dphi(z, out=(e, dphi)) is dphi
    assert dphi.tobytes() == want.tobytes()


def _train_both_ways(kind, budget, hidden):
    inst, labels = _dataset(13, n=40)
    config = TrainConfig(
        objective=LabelAgg(Sum(), CostMatrix.absdiff(3)), surrogate=kind, epochs=12, lr=0.05,
        pair_budget=budget, hidden=hidden, seed=4,
    )
    return [train(inst, labels, config, per_epoch=per_epoch) for per_epoch in (True, False)]


@pytest.mark.parametrize("kind", [Logistic()])
@pytest.mark.parametrize("budget", [250_000, 50])  # every epoch exact, or every epoch sampled
@pytest.mark.parametrize("hidden", [(), (4,)])
def test_untraced_training_matches_the_traced_run_bit_for_bit(kind, budget, hidden):
    (traced, full), (untraced, last) = _train_both_ways(kind, budget, hidden)
    for got, want in zip(scorer_parameters(untraced), scorer_parameters(traced)):
        assert got.tobytes() == want.tobytes()
    assert len(full) == 12 and [list(row) for row in last] == [["epoch", "loss"]]
    assert last[0]["epoch"] == full[-1]["epoch"] == 11
    assert last[0]["loss"] == full[-1]["loss"]
    eval_inst, eval_labels = _dataset(14, n=30)
    got, want = (auc_report(scorer.scores(eval_inst), eval_labels) for scorer in (untraced, traced))
    assert got.per_label.tobytes() == want.per_label.tobytes()
    assert (got.diff, got.min) == (want.diff, want.min)


@pytest.mark.parametrize("budget", [250_000, 50])
def test_untraced_training_reports_once_and_evaluates_phi_in_its_last_epoch_only(budget, monkeypatch):
    inst, labels = _dataset(15, n=40)
    epochs = 7
    config = TrainConfig(objective=LossAgg((1.0, 2.0)), epochs=epochs, pair_budget=budget)
    reports, loss_calls, log1p_calls = [], [], []
    real_report, real_loss, real_log1p = surrogate.auc_report, surrogate._loss_and_score_grad, np.log1p

    def counting_report(*args):
        reports.append(args)
        return real_report(*args)

    def counting_loss(*args, **kwargs):
        loss_calls.append(kwargs.get("want_loss", True))
        return real_loss(*args, **kwargs)

    def counting_log1p(*args, **kwargs):
        log1p_calls.append(len(loss_calls) - 1)  # the epoch the call falls in
        return real_log1p(*args, **kwargs)

    monkeypatch.setattr(surrogate, "auc_report", counting_report)
    monkeypatch.setattr(surrogate, "_loss_and_score_grad", counting_loss)
    monkeypatch.setattr(np, "log1p", counting_log1p)
    _, trace = train(inst, labels, config, per_epoch=False)
    assert reports == []
    assert loss_calls == [False] * (epochs - 1) + [True]
    assert log1p_calls and set(log1p_calls) == {epochs - 1}
    assert trace[-1]["loss"] is not None


@pytest.mark.parametrize("hidden", [(), (4,)])
def test_traced_training_reads_each_steps_aucs_off_the_next_forward_pass(hidden, monkeypatch):
    # one forward pass per step, plus one after the last step for its training AUCs
    inst, labels = _dataset(16, n=40)
    epochs = 6
    config = TrainConfig(objective=LabelAgg(Sum(), CostMatrix.absdiff(3)), epochs=epochs, hidden=hidden)
    calls = []
    real = MlpScorer.layer_outputs

    def counting(self, features):
        calls.append(features)
        return real(self, features)

    monkeypatch.setattr(MlpScorer, "layer_outputs", counting)
    _, trace = train(inst, labels, config, per_epoch=True)
    assert len(calls) == epochs + 1
    calls.clear()
    train(inst, labels, config, per_epoch=False)
    assert len(calls) == epochs
    monkeypatch.setattr(MlpScorer, "layer_outputs", real)
    # each row's AUCs are those of the scorer after that step, bit for bit
    for epoch, row in enumerate(trace):
        scorer, _ = train(inst, labels, replace(config, epochs=epoch + 1), per_epoch=False)
        assert row["train"].per_label.tobytes() == auc_report(scorer.scores(inst), labels).per_label.tobytes()


def _square_loss_minimizer(eta, objective):
    """The free scores minimizing sum_ij W_ij (1 - s_i + s_j)^2 over the objective's pair weights W.

    Stationarity is L s = r, with L the Laplacian of W + W^T and r_i = sum_j (W_ij - W_ji).
    """
    w = _pair_matrix(_weight_rows(eta, objective))[0]
    sym = w + w.T
    s = np.linalg.lstsq(np.diag(sym.sum(axis=1)) - sym, (w - w.T).sum(axis=1), rcond=None)[0]
    margins = 1.0 - s[:, None] + s[None, :]
    grad = -2.0 * ((w * margins).sum(axis=1) - (w * margins).sum(axis=0))
    assert np.abs(grad).max() < 1e-9 * max(1.0, np.abs(w).sum())
    return s


def _eta_table(seed):
    return EtaTable(np.random.default_rng(seed).uniform(0.05, 0.95, (8, 2)))


@pytest.mark.parametrize("seed", range(20))
def test_the_square_surrogate_targets_the_single_label_bayes_scorer(seed):
    eta = _eta_table(seed)
    assert certify_bayes(_square_loss_minimizer(eta, PerLabel(0)), eta, PerLabel(0)).optimal


# pinned tables on which the pairwise square loss's minimizer misses the objective's
# optimum: the pairwise surrogates target neither aggregated objective's Bayes scorer
@pytest.mark.parametrize(
    "seed, objective",
    [(4, LossAgg((1.0, 1.0))), (20, LabelAgg(Sum(), CostMatrix.absdiff(3)))],
    ids=["loss_agg", "label_agg"],
)
def test_the_square_surrogate_misses_the_aggregated_optimum(seed, objective):
    eta = _eta_table(seed)
    result = certify_bayes(_square_loss_minimizer(eta, objective), eta, objective)
    assert not result.optimal and result.gap > 1e-6
