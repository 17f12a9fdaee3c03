"""Acceptance gate: one test and one printed PASS/FAIL line per criterion.

Status lines are echoed immediately and repeated in the terminal summary.
Criterion 1 checks the fixture AUCs against exact rational values computed
here with fractions.Fraction, at 1e-12. Criterion 4 is asserted as stated
and fails: on gen_sigmoid_pair, loss aggregation's |AUC1 - AUC2| falls below
label aggregation's at pi2 ~ 0.90 and 0.95, because eta2 saturates and the
sum scorer drifts towards label 1 while alpha2 keeps label 2's weight in the
loss-aggregation scorer (details above that test). Companion tests pin the
exact fixture values and the moderate-skew window.
"""

import functools
import itertools
import sys
import time
from fractions import Fraction

import conftest
import numpy as np
import pytest
from scipy.special import expit

from rankagg import (
    CostMatrix,
    EtaTable,
    InstanceSet,
    LabelAgg,
    LinearScorer,
    Logistic,
    LossAgg,
    PerLabel,
    SampledLabels,
    SigmoidSynthConfig,
    Sum,
    TrainConfig,
    auc_report,
    bipartite_auc_empirical,
    bipartite_auc_population,
    certify_bayes,
    evaluate_bound,
    gen_conflicting_pair,
    gen_sigmoid_pair,
    label_agg_bayes_scorer_sum,
    label_agg_uniform_cost_scorer_k2,
    loss_agg_bayes_scorer,
    multipartite_auc,
    pareto_dominates,
    resample_to_skew,
    surrogate_gradient,
    surrogate_objective,
    train,
)
from rankagg.bayes import alpha_vector, product_agg_bayes_scorer
from rankagg.cli import main
from rankagg.surrogate import _rebuild, init_scorer, scorer_parameters


def _report(criterion: str, ok: bool, detail: str = "") -> None:
    line = f"criterion {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    sys.__stdout__.write(line + "\n")
    sys.__stdout__.flush()
    conftest.acceptance_lines.append(line)


# 6-instance two-signal fixture used by the optimal-ordering comparison; the
# decimal strings are the source of truth for both the float arrays and the
# exact rational reference below
_ETA_1_Q = tuple(Fraction(x) for x in ("1.0", "0.2", "0.62", "0.44", "0.56", "0.81"))
_ETA_2_Q = tuple(Fraction(x) for x in ("0.44", "0.56", "0.81", "1.0", "0.2", "0.62"))
_ETA_1 = np.array([float(q) for q in _ETA_1_Q])
_ETA_2 = np.array([float(q) for q in _ETA_2_Q])
_FIXTURE = EtaTable(np.column_stack([_ETA_1, _ETA_2]))
_ORDERING = (4, 0, 2, 5, 1, 3)


def _exact_population_auc(scores, eta) -> Fraction:
    """sum_ij eta_i (1 - eta_j) H(s_i - s_j) / sum_ij eta_i (1 - eta_j).

    All ordered pairs including i = j, H(0) = 1/2: the population definition
    in the rankagg.metrics docstring, evaluated in exact rational arithmetic.
    """
    num = den = Fraction(0)
    for s_i, e_i in zip(scores, eta):
        for s_j, e_j in zip(scores, eta):
            w = e_i * (1 - e_j)
            den += w
            if s_i > s_j:
                num += w
            elif s_i == s_j:
                num += w / 2
    return num / den


def _exact_uniform_cost_k2_scores(eta_1, eta_2) -> list[Fraction]:
    # (eta1 + eta2 - eta1*eta2) / (1 - eta1*eta2); no fixture row has eta1*eta2 = 1
    return [(a + b - a * b) / (1 - a * b) for a, b in zip(eta_1, eta_2)]


# Exact fixture AUCs: 112831/172062 for the optimal scorer on both labels,
# 113131/172062 and 37777/57354 for the ordering. The reference figures
# 0.65559, 0.65706 and 0.65862 quoted with the paper's fixture are Monte
# Carlo estimates (README, "Tests"); they miss these by 1.7e-4, 4.4e-4 and
# 4e-5, and no exact reading of the definition reproduces them.
_EXACT_OPT_SCORES = _exact_uniform_cost_k2_scores(_ETA_1_Q, _ETA_2_Q)
_EXACT_OPT_AUC_1 = _exact_population_auc(_EXACT_OPT_SCORES, _ETA_1_Q)
_EXACT_OPT_AUC_2 = _exact_population_auc(_EXACT_OPT_SCORES, _ETA_2_Q)
_EXACT_ORD_AUC_1 = _exact_population_auc(_ORDERING, _ETA_1_Q)
_EXACT_ORD_AUC_2 = _exact_population_auc(_ORDERING, _ETA_2_Q)


def _ordering_scores(order) -> np.ndarray:
    # instance i receives the i-th entry of the ordering as its score
    return np.array(order, dtype=float)


def test_criterion_1_optimal_scorer_fixture():
    start = time.perf_counter()
    scorer = label_agg_uniform_cost_scorer_k2(_FIXTURE)
    vals = scorer.scores()
    expected = np.array([1.78571, 0.72973, 1.86380, 1.78571, 0.72973, 1.86380])
    scores_ok = bool(np.all(np.abs(vals - expected) < 1e-4))

    auc_1 = bipartite_auc_population(vals, _ETA_1)
    auc_2 = bipartite_auc_population(vals, _ETA_2)
    ord_scores = _ordering_scores(_ORDERING)
    ord_1 = bipartite_auc_population(ord_scores, _ETA_1)
    ord_2 = bipartite_auc_population(ord_scores, _ETA_2)
    dominates = pareto_dominates([ord_1, ord_2], [auc_1, auc_2])
    elapsed = time.perf_counter() - start

    exact = [float(q) for q in (_EXACT_OPT_AUC_1, _EXACT_OPT_AUC_2, _EXACT_ORD_AUC_1, _EXACT_ORD_AUC_2)]
    auc_ok = abs(auc_1 - exact[0]) < 1e-12 and abs(auc_2 - exact[1]) < 1e-12
    ord_ok = abs(ord_1 - exact[2]) < 1e-12 and abs(ord_2 - exact[3]) < 1e-12
    ok = scores_ok and auc_ok and ord_ok and dominates and elapsed < 1.0
    _report(
        "1",
        ok,
        f"scorer values {'ok' if scores_ok else 'off'}, "
        f"AUCs {auc_1:.6f}/{ord_1:.6f}/{ord_2:.6f} vs exact "
        f"{exact[0]:.6f}/{exact[2]:.6f}/{exact[3]:.6f}, "
        f"dominance {dominates}, {elapsed:.2f}s",
    )
    assert scores_ok
    assert dominates
    assert elapsed < 1.0
    assert auc_ok, f"population AUCs {auc_1}, {auc_2} vs exact {exact[0]}, {exact[1]}"
    assert ord_ok, f"ordering AUCs {ord_1}, {ord_2} vs exact {exact[2]}, {exact[3]}"


def test_criterion_1_companion_exact_values():
    vals = label_agg_uniform_cost_scorer_k2(_FIXTURE).scores()
    assert bipartite_auc_population(vals, _ETA_1) == pytest.approx(float(_EXACT_OPT_AUC_1), abs=1e-12)
    assert bipartite_auc_population(vals, _ETA_2) == pytest.approx(float(_EXACT_OPT_AUC_2), abs=1e-12)
    ord_scores = _ordering_scores(_ORDERING)
    assert bipartite_auc_population(ord_scores, _ETA_1) == pytest.approx(float(_EXACT_ORD_AUC_1), abs=1e-12)
    assert bipartite_auc_population(ord_scores, _ETA_2) == pytest.approx(float(_EXACT_ORD_AUC_2), abs=1e-12)


def test_criterion_2_closed_form_scorers_certified_optimal():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    failures = []
    for trial in range(50):
        eta = EtaTable(rng.uniform(0.02, 0.98, (6, 2)))
        loss = certify_bayes(loss_agg_bayes_scorer(eta), eta, LossAgg((1.0, 1.0)))
        agg = certify_bayes(
            label_agg_bayes_scorer_sum(eta), eta, LabelAgg(Sum(), CostMatrix.absdiff(3))
        )
        if not (loss.optimal and agg.optimal):
            failures.append((trial, loss.gap, agg.gap))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 120.0
    _report("2", ok, f"50 tables, {len(failures)} failures, {elapsed:.1f}s")
    assert not failures
    assert elapsed < 120.0


def test_criterion_3_maximizer_set_chain_via_cli(tmp_path, capsys):
    start = time.perf_counter()
    all_ok = True
    # seeds chosen so the disagreement set is nonempty but within budget
    for seed in (1, 2, 3, 4, 7):
        code = main(
            [
                "oracle",
                "--out", str(tmp_path / f"oracle_{seed}.csv"),
                "--n", "25",
                "--seed", str(seed),
                "--weights-grid", "5",
                "--no-plot",
            ]
        )
        lines = capsys.readouterr().out.strip().splitlines()
        per_seed = code == 0 and lines and all(l.startswith("PASS") for l in lines)
        # the chain plus both frontier-endpoint checks must all be reported
        per_seed = per_seed and len(lines) == 9
        all_ok = all_ok and per_seed
        assert (time.perf_counter() - start) < 300.0 * 5
    elapsed = time.perf_counter() - start
    _report("3", all_ok, f"5 seeds, 9 containment/frontier checks each, {elapsed:.1f}s")
    assert all_ok


def _solve_rho(feats, tau, target):
    lo, hi = -50.0, 50.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if float(expit(tau * (feats[:, 1] - mid)).mean()) > target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@functools.cache  # criterion 4 and its companion read the same sweep
def _skew_sweep_signed():
    """Rows (tau, pi2, lossagg AUC1 - AUC2, labelagg AUC1 - AUC2)."""
    n, seed = 100_000, 0
    targets = [0.5, 0.6, 0.7, 0.8, 0.9, 0.95]
    rows = []
    for tau in (1.0, 5.0):
        feats = gen_sigmoid_pair(SigmoidSynthConfig(n, tau, 0.0, seed)).instances.features
        for target in targets:
            rho = _solve_rho(feats, tau, target)
            data = gen_sigmoid_pair(SigmoidSynthConfig(n, tau, rho, seed))
            pi2 = float(data.labels.labels[:, 1].mean())
            lo = auc_report(loss_agg_bayes_scorer(data.eta).scores(), data.labels).per_label
            la = auc_report(label_agg_bayes_scorer_sum(data.eta).scores(), data.labels).per_label
            rows.append((tau, pi2, float(lo[0] - lo[1]), float(la[0] - la[1])))
    return rows


def _skew_sweep_diffs(signed_rows):
    # |AUC1 - AUC2|, the imbalance the criterion compares (AucReport.diff)
    return [(tau, pi2, abs(s_lo), abs(s_la)) for tau, pi2, s_lo, s_la in signed_rows]


def _signed_table(signed_rows) -> str:
    # per tau: the pi2 = 0.5 baseline, then every pi2 >= 0.7 point
    parts = []
    for tau in (1.0, 5.0):
        points = [
            f"pi2={pi2:.3f} lossagg {s_lo:+.4f} labelagg {s_la:+.4f}"
            for t, pi2, s_lo, s_la in signed_rows
            if t == tau and (pi2 < 0.55 or pi2 >= 0.7)
        ]
        parts.append(f"tau={tau:g}: " + ", ".join(points))
    return "signed AUC1 - AUC2: " + "; ".join(parts)


# Why criterion 4 fails on this generator (not sampling noise: exact
# population AUCs over eta at n=4000, seeds 0 and 1, give the same picture,
# and criteria 2 and 8 certify the scorers and the AUC paths). As rho moves
# label 2 towards pi2 -> 1, eta2 saturates: at tau=5 its spread across
# instances falls from sd 0.39 (pi2=0.5) to 0.09 (pi2=0.95), while
# alpha2 = 1/(pi2 (1 - pi2)) rises from 4 to 21. The loss-aggregation scorer
# alpha1 eta1 + alpha2 eta2 therefore keeps label 2's term at weight O(1)
# and its imbalance stays near the pi2=0.5 baseline, whereas the sum scorer
# eta1 + eta2 loses label 2's term and drifts towards label 1: its signed
# AUC1 - AUC2 crosses zero between pi2 0.7 and 0.8 (tau=5) and then keeps
# growing, to +0.069 against lossagg's +0.007 at pi2=0.95; there is no
# crossover of regime near pi2 0.91. The abstract in PAPER.md only says loss
# aggregation "can" exhibit dictatorship, so whether the claim or
# gen_sigmoid_pair differs from the paper's experiment is open until the
# paper's experimental section is in the repository; both assertions stay.
def test_criterion_4_loss_agg_shows_larger_auc_imbalance_under_skew():
    signed = _skew_sweep_signed()
    rows = _skew_sweep_diffs(signed)
    ordering_ok = all(
        d_lo >= d_la - 0.01 for tau, pi2, d_lo, d_la in rows if pi2 >= 0.7
    )
    extreme = max((r for r in rows if r[0] == 5.0), key=lambda r: r[1])
    strict_ok = extreme[2] >= extreme[3] + 0.01
    ok = ordering_ok and strict_ok
    table = _signed_table(signed)
    _report(
        "4",
        ok,
        f"ordering at pi2>=0.7 {'holds' if ordering_ok else 'fails'}; "
        f"most skewed tau=5 point pi2={extreme[1]:.3f} "
        f"diffs {extreme[2]:.4f} vs {extreme[3]:.4f}; {table}",
    )
    assert ordering_ok, (
        f"|AUC1 - AUC2| lossagg < labelagg - 0.01 at "
        f"{[r for r in rows if r[1] >= 0.7 and r[2] < r[3] - 0.01]}; {table}"
    )
    assert strict_ok, f"most skewed tau=5 point {extreme}; {table}"


def test_criterion_4_companion_moderate_skew_window():
    # this window passes because labelagg's signed AUC1 - AUC2 crosses zero
    # inside it (between pi2 0.6 and 0.8), so its |AUC1 - AUC2| is briefly
    # small; it does not show the claim holding away from extreme skew
    rows = _skew_sweep_diffs(_skew_sweep_signed())
    window = [r for r in rows if 0.55 <= r[1] <= 0.85]
    assert window
    assert all(d_lo >= d_la - 0.01 for _, _, d_lo, d_la in window)
    # and loss aggregation is strictly more imbalanced at moderate tau=5 skew
    mid = [r for r in rows if r[0] == 5.0 and 0.55 <= r[1] <= 0.85]
    assert any(d_lo > d_la + 0.01 for _, _, d_lo, d_la in mid)


_ORDER_HIGH_ALPHA_1 = [(0, 0), (0, 1), (1, 0), (1, 1)]
_ORDER_HIGH_ALPHA_2 = [(0, 0), (1, 0), (0, 1), (1, 1)]


def _order_violation(scores, combos, expected_order):
    position = {c: i for i, c in enumerate(expected_order)}
    for i, j in itertools.combinations(range(len(scores)), 2):
        ci, cj = combos[i], combos[j]
        if ci == cj:
            if scores[i] != scores[j]:
                return (ci, cj)
        elif (scores[i] - scores[j] > 0) != (position[ci] > position[cj]):
            return (ci, cj)
        elif scores[i] == scores[j]:
            return (ci, cj)
    return None


def test_criterion_5_dictatorship_orders_match_the_partial_order_figures():
    checked = 0
    bad = []
    for n in range(2, 7):
        for bits in itertools.product([0, 1], repeat=2 * n):
            table = np.array(bits, dtype=float).reshape(n, 2)
            pi = table.mean(axis=0)
            if np.any(pi <= 0) or np.any(pi >= 1):
                continue
            alphas = alpha_vector(pi, np.ones(2))
            if alphas[0] == alphas[1]:
                continue
            checked += 1
            eta = EtaTable(table)
            combos = [tuple(int(v) for v in row) for row in table.astype(int)]
            expected = _ORDER_HIGH_ALPHA_1 if alphas[0] > alphas[1] else _ORDER_HIGH_ALPHA_2
            loss_scores = loss_agg_bayes_scorer(eta, weights=np.ones(2)).scores()
            if _order_violation(loss_scores, combos, expected) is not None:
                bad.append(("lossagg", combos, alphas))
                continue
            # red-arrow pair: the disagreeing combos must be strictly ordered
            has_a = (1, 0) in combos
            has_b = (0, 1) in combos
            if has_a and has_b:
                s_a = loss_scores[combos.index((1, 0))]
                s_b = loss_scores[combos.index((0, 1))]
                if (s_a > s_b) != (alphas[0] > alphas[1]) or s_a == s_b:
                    bad.append(("red-arrow", combos, alphas))
                    continue
            # sum aggregation: ordered by label sum, disagreeing combos tied
            sum_scores = label_agg_bayes_scorer_sum(eta).scores()
            sums = table.sum(axis=1)
            if not np.array_equal(np.sign(np.subtract.outer(sum_scores, sum_scores)),
                                  np.sign(np.subtract.outer(sums, sums))):
                bad.append(("labelagg-sum", combos, alphas))
                continue
            # product aggregation: only the all-ones combo stands apart
            prod_scores = product_agg_bayes_scorer(eta).scores()
            prods = table.prod(axis=1)
            if not np.array_equal(np.sign(np.subtract.outer(prod_scores, prod_scores)),
                                  np.sign(np.subtract.outer(prods, prods))):
                bad.append(("labelagg-product", combos, alphas))
    ok = checked > 1000 and not bad
    _report("5", ok, f"{checked} deterministic tables checked, {len(bad)} violations")
    assert checked > 1000
    assert not bad, bad[:3]


def test_criterion_6_gap_bound_holds_and_rate_is_flat():
    start = time.perf_counter()
    medians, means = {}, {}
    violations = []
    for K in (2, 4, 8, 16):
        gaps = []
        for i in range(100):
            rng = np.random.default_rng([1000 + i, K])
            eta = EtaTable(rng.uniform(0.2, 0.8, (5, K)))
            report = evaluate_bound(eta, np.ones(K))
            if K in (2, 4, 8) and report.empirical_gap > report.bound_value + 1e-12:
                violations.append((K, i))
            gaps.append(report.empirical_gap)
        medians[K] = float(np.median(gaps)) * np.sqrt(K)
        means[K] = float(np.mean(gaps))
    elapsed = time.perf_counter() - start
    scaled = list(medians.values())
    if max(scaled) == 0.0:
        rate_ok = True  # all medians identically zero: no variation at all
    else:
        rate_ok = max(scaled) <= 3.0 * max(min(scaled), 1e-300)
    ok = not violations and rate_ok and elapsed < 600.0
    _report(
        "6",
        ok,
        "gap <= bound on 300 tables, median gap*sqrt(K) "
        f"[{', '.join(f'{v:.2e}' for v in scaled)}], {elapsed:.1f}s",
    )
    assert not violations
    assert rate_ok
    assert elapsed < 600.0
    # the medians are all exactly zero here; the means carry the rate signal
    mean_vals = [means[K] for K in (2, 4, 8, 16)]
    assert all(b <= a + 1e-9 for a, b in zip(mean_vals, mean_vals[1:]))


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


def test_criterion_7_logistic_gradients_match_finite_differences():
    objectives = [
        PerLabel(0),
        PerLabel(1),
        LossAgg((1.0, 2.0)),
        LabelAgg(Sum(), CostMatrix.absdiff(3)),
    ]
    worst = 0.0
    for draw in range(20):
        rng = np.random.default_rng(7000 + draw)
        n, d = 12, 3
        inst = InstanceSet(rng.standard_normal((n, d)))
        lab = rng.integers(0, 2, (n, 2))
        lab[0], lab[1] = (1, 1), (0, 0)
        labels = SampledLabels(lab)
        objective = objectives[draw % len(objectives)]
        if draw % 2 == 0:
            scorer = LinearScorer(weights=rng.standard_normal(d), bias=float(rng.standard_normal()))
        else:
            scorer = init_scorer(d, (4,), draw)
        analytic = surrogate_gradient(scorer, inst, labels, objective, Logistic())
        numeric = _numeric_gradient(scorer, inst, labels, objective, Logistic())
        for a, g in zip(analytic, numeric):
            scale = np.maximum(np.abs(g), 1e-3)  # bias gradients are exactly zero
            worst = max(worst, float(np.max(np.abs(a - g) / scale)))
    ok = worst < 1e-5
    _report("7", ok, f"20 draws over 4 objectives, max relative error {worst:.2e}")
    assert ok


def test_criterion_8_metric_cross_checks():
    rng = np.random.default_rng(88)
    # population vs Monte Carlo empirical, 1e4 label draws
    n, draws = 8, 10_000
    eta = rng.uniform(0.1, 0.9, n)
    scores = rng.standard_normal(n)
    pop = bipartite_auc_population(scores, eta)
    samples = []
    for _ in range(draws):
        y = (rng.random(n) < eta).astype(int)
        if 0 < y.sum() < n:
            samples.append(bipartite_auc_empirical(scores, y))
    samples = np.array(samples)
    se = samples.std(ddof=1) / np.sqrt(samples.size)
    # the population form includes i=j pairs; allow their O(1/n) offset
    mc_ok = abs(samples.mean() - pop) < 3 * se + 1.0 / n
    # binary multipartite equals bipartite bit-for-bit
    exact_ok = True
    for _ in range(100):
        m = int(rng.integers(4, 40))
        s = rng.standard_normal(m)
        if rng.random() < 0.5:
            s = s.round(1)
        y = rng.integers(0, 2, m)
        y[0], y[1] = 1, 0
        if multipartite_auc(s, y, CostMatrix.uniform(2)) != bipartite_auc_empirical(s, y):
            exact_ok = False
            break
    ok = mc_ok and exact_ok
    _report(
        "8",
        ok,
        f"MC deviation {abs(samples.mean() - pop):.5f} vs "
        f"3*SE + same-index offset {3 * se + 1.0 / n:.5f}; "
        f"binary equality {'exact' if exact_ok else 'broken'}",
    )
    assert mc_ok
    assert exact_ok


def _fit(inst, labels, objective, seed):
    config = TrainConfig(
        objective=objective, surrogate=Logistic(), optimizer="adam",
        lr=0.05, epochs=60, seed=seed,
    )
    scorer, _ = train(inst, labels, config)
    return scorer


def test_criterion_9_training_direction_checks():
    # per-label training maximizes its own AUC on conflicting-signal data
    direction_ok = True
    for t in range(10):
        seed = 100 + t
        data = gen_conflicting_pair(600, seed)
        s0 = _fit(data.instances, data.labels, PerLabel(0), seed)
        s1 = _fit(data.instances, data.labels, PerLabel(1), seed)
        r0 = auc_report(s0.scores(data.instances), data.labels)
        r1 = auc_report(s1.scores(data.instances), data.labels)
        if not (r0.per_label[0] > r1.per_label[0] and r1.per_label[1] > r0.per_label[1]):
            direction_ok = False

    # under skew, the aggregated label keeps the better worst-label AUC
    mins = {"lossagg": [], "labelagg": []}
    for t in range(25):
        seed = 100 + t
        data = gen_conflicting_pair(600, seed)
        inst_r, lab_r = resample_to_skew(data.instances, data.labels, 0, 0.85, seed)
        for name, objective in (
            ("lossagg", LossAgg((1.0, 1.0))),
            ("labelagg", LabelAgg(Sum(), CostMatrix.absdiff(3))),
        ):
            scorer = _fit(inst_r, lab_r, objective, seed)
            mins[name].append(auc_report(scorer.scores(data.instances), data.labels).min)
    la, lo = float(np.mean(mins["labelagg"])), float(np.mean(mins["lossagg"]))
    balance_ok = la >= lo - 0.01
    ok = direction_ok and balance_ok
    _report(
        "9",
        ok,
        f"per-label direction {'holds' if direction_ok else 'fails'}; "
        f"min AUC over 25 trials: labelagg {la:.4f} vs lossagg {lo:.4f}",
    )
    assert direction_ok
    assert balance_ok
