"""Command-line experiment harness.

Subcommands: skew-sweep, train, oracle, bound. Exit codes: 0 success,
2 flag errors, 3 data errors, 4 enumeration budget errors. Flags override
values from an optional key=value --config file, which overrides builtin
defaults. RANKAGG_THREADS caps the worker pool that runs independent train
trials; each trial is single-threaded for determinism and rows are sorted
before writing. Sweep and bound points run one after another.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import dataio, svgplot
from .bayes import label_agg_bayes_scorer_sum, loss_agg_bayes_scorer
from .core import (
    CostMatrix,
    EtaTable,
    LabelAgg,
    LossAgg,
    PerLabel,
    SampledLabels,
    Sum,
)
from .errors import BudgetExceeded, DegenerateLabel, RankAggError, TooLarge
from .metrics import auc_report
from .oracle import DEFAULT_BUDGET, MAX_EXHAUSTIVE_N, auc_scatter, index_equal, index_subset, maximizer_sets
from .bound import evaluate_bound
from .surrogate import Hinge, Logistic, TrainConfig, train
from .synthgen import (
    SigmoidSynthConfig,
    gen_gaussian_bilevel,
    gen_sigmoid_pair,
    resample_to_skew,
)

__all__ = ["main"]

_EXIT_OK = 0
_EXIT_FLAGS = 2
_EXIT_DATA = 3
_EXIT_BUDGET = 4


def _pool_size() -> int:
    raw = os.environ.get("RANKAGG_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def _run_points(fn, points):
    workers = _pool_size()
    if workers == 1 or len(points) <= 1:
        return [fn(p) for p in points]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, points))


def _float_list(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip() != ""]


def _int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip() != ""]


def _load_config(path) -> dict[str, str]:
    values = {}
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


def _merge(args: argparse.Namespace, spec: dict) -> argparse.Namespace:
    """Fill None flags from the config file, then from builtin defaults."""
    config = _load_config(args.config) if getattr(args, "config", None) else {}
    unknown = sorted(set(config) - {name for key in spec for name in (key, key.replace("_", "-"))})
    if unknown:
        raise ValueError(f"{args.config}: unknown config keys {', '.join(unknown)}")
    for key, (parse, default) in spec.items():
        if getattr(args, key) is None:
            raw = config.get(key.replace("_", "-"), config.get(key))
            setattr(args, key, parse(raw) if raw is not None else default)
    return args


def _plot_path(args) -> Path:
    return Path(args.plot_out) if args.plot_out else Path(args.out).with_suffix(".svg")


# ---------------------------------------------------------------- skew-sweep


def _solve_rho_for_pi2(feats: np.ndarray, tau: float, target: float) -> float:
    """Invert mean sigmoid(tau * (x2 - rho)) = target by bisection (decreasing in rho).

    Each step is a function of (lo, hi) alone, so once a step leaves the
    bracket unchanged every later one would too; stopping there returns the
    same value the full 200 steps would. Each step evaluates
    1 / (1 + exp(tau * (mid - x2))) in one buffer; tau * (mid - x2) is
    exactly -(tau * (x2 - mid)), so the mean is bit for bit that of
    synthgen._sigmoid(tau * (x2 - mid)).
    """
    x = np.ascontiguousarray(feats[:, 1])
    buf = np.empty_like(x)
    lo, hi = -50.0, 50.0
    with np.errstate(over="ignore"):
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            np.subtract(mid, x, out=buf)
            buf *= tau
            np.exp(buf, out=buf)
            buf += 1.0
            np.divide(1.0, buf, out=buf)
            value = float(buf.mean())
            bracket = (mid, hi) if value > target else (lo, mid)
            if bracket == (lo, hi):
                break
            lo, hi = bracket
    if lo == -50.0 or hi == 50.0:
        raise ValueError(f"no label-2 shift in [-50, 50] reaches positive rate {target:g} at tau={tau:g}")
    return 0.5 * (lo + hi)


_SWEEP_SCORERS = {"labelagg": label_agg_bayes_scorer_sum, "lossagg": loss_agg_bayes_scorer}


def _sweep_point(task):
    tau, rho, pi2_target, n, seed = task
    data = gen_sigmoid_pair(SigmoidSynthConfig(n=n, tau=tau, rho=rho, seed=seed))
    pi2_emp = float(data.labels.labels[:, 1].mean())
    rows = []
    for method, build_scorer in _SWEEP_SCORERS.items():
        # runtime_ms covers this method's scorer and AUC report only
        start = time.perf_counter()
        report = auc_report(build_scorer(data.eta).scores(), data.labels)
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        rows.append(
            [
                "skew-sweep",
                tau,
                rho,
                pi2_target if pi2_target is not None else "",
                pi2_emp,
                method,
                float(report.per_label[0]),
                float(report.per_label[1]),
                report.diff,
                report.min,
                elapsed_ms,
                seed,
            ]
        )
    return rows


def cmd_skew_sweep(args) -> int:
    _merge(
        args,
        {
            "tau": (_float_list, [1.0, 5.0]),
            "rho": (_float_list, None),
            "pi2": (_float_list, None),
            "n": (int, 100_000),
            "seed": (int, 0),
        },
    )
    if args.rho is None and args.pi2 is None:
        args.pi2 = [0.5, 0.6, 0.7, 0.8, 0.9, 0.95]
    if args.rho is not None and args.pi2 is not None:
        print("give --rho or --pi2, not both", file=sys.stderr)
        return _EXIT_FLAGS
    if args.pi2 is not None:
        bad = [f"--pi2 {p:g}" for p in args.pi2 if not 0.0 < p < 1.0]
        bad += [f"--tau {t:g}" for t in args.tau if not 0.0 < t < np.inf]
        if bad:
            print(f"{', '.join(bad)}: targets need 0 < pi2 < 1 and a finite tau > 0", file=sys.stderr)
            return _EXIT_FLAGS
    tasks = []
    for tau in args.tau:
        if args.rho is not None:
            for rho in args.rho:
                tasks.append((tau, rho, None, args.n, args.seed))
        else:
            feats = gen_sigmoid_pair(SigmoidSynthConfig(args.n, tau, 0.0, args.seed)).instances.features
            for target in args.pi2:
                rho = _solve_rho_for_pi2(feats, tau, target)
                tasks.append((tau, rho, target, args.n, args.seed))
    rows = [row for task in tasks for row in _sweep_point(task)]
    rows.sort(key=lambda r: (r[1], r[4], r[5]))
    header = [
        "experiment",
        "tau",
        "rho",
        "pi2_target",
        "pi2_emp",
        "method",
        "auc_label1",
        "auc_label2",
        "diff_auc",
        "min_auc",
        "runtime_ms",
        "seed",
    ]
    dataio.write_rows(args.out, header, rows)
    if not args.no_plot:
        series = {}
        for row in rows:
            series.setdefault(f"{row[5]} tau={row[1]:g}", []).append((row[4], row[8]))
        svgplot.line_chart(
            _plot_path(args),
            series,
            title="Per-label AUC difference vs label-2 skew",
            xlabel="empirical positive rate of label 2",
            ylabel="|AUC1 - AUC2|",
        )
    return _EXIT_OK


# --------------------------------------------------------------------- train


def _parse_objective(text: str, K: int):
    if text == "label1":
        return PerLabel(0)
    if text == "label2":
        return PerLabel(1)
    if text.startswith("lossagg:"):
        weights = _float_list(text.split(":", 1)[1])
        return LossAgg(tuple(weights))
    if text == "labelagg:uniform":
        return LabelAgg(Sum(), CostMatrix.uniform(K + 1))
    if text == "labelagg:absdiff":
        return LabelAgg(Sum(), CostMatrix.absdiff(K + 1))
    raise ValueError(f"unknown objective {text!r}")


def _parse_model(text: str) -> tuple:
    if text == "linear":
        return ()
    if text.startswith("mlp:"):
        return tuple(_int_list(text.split(":", 1)[1]))
    raise ValueError(f"unknown model {text!r}")


def cmd_train(args) -> int:
    _merge(
        args,
        {
            "labels": (str, "y0,y1"),
            "objective": (str, "labelagg:absdiff"),
            "surrogate": (str, "logistic"),
            "model": (str, "linear"),
            "epochs": (int, 100),
            "lr": (float, 0.01),
            "seed": (int, 0),
            "resample_pi": (str, None),
            "trials": (int, 1),
            "pair_budget": (int, 250_000),
        },
    )
    instances, all_labels = dataio.read_dataset(args.data)
    col_names = [name.strip() for name in args.labels.split(",")]
    available = [f"y{k}" for k in range(all_labels.K)]
    try:
        cols = [available.index(name) for name in col_names]
    except ValueError:
        raise ValueError(f"label columns {col_names} not all present in {available}") from None
    labels = SampledLabels(all_labels.labels[:, cols])
    objective = _parse_objective(args.objective, labels.K)
    surrogate = {"logistic": Logistic(), "hinge": Hinge()}.get(args.surrogate)
    if surrogate is None:
        raise ValueError(f"unknown surrogate {args.surrogate!r}")
    hidden = _parse_model(args.model)
    resample = None
    if args.resample_pi:
        k_text, _, pi_text = args.resample_pi.partition(":")
        resample = (int(k_text), float(pi_text))

    def run_trial(trial: int) -> list:
        start = time.perf_counter()
        trial_seed = args.seed + trial
        inst, labs = instances, labels
        if resample is not None:
            inst, labs = resample_to_skew(inst, labs, resample[0], resample[1], trial_seed)
        config = TrainConfig(
            objective=objective,
            surrogate=surrogate,
            lr=args.lr,
            epochs=args.epochs,
            pair_budget=args.pair_budget,
            seed=trial_seed,
            hidden=hidden,
        )
        scorer, trace = train(inst, labs, config, eval_instances=instances, eval_labels=labels)
        report = trace[-1]["eval"]
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        return [
            "train",
            trial,
            args.objective,
            *[float(v) for v in report.per_label],
            report.diff if report.diff is not None else "",
            report.min,
            trace[-1]["loss"],
            elapsed_ms,
            trial_seed,
        ]

    rows = _run_points(run_trial, list(range(args.trials)))
    rows.sort(key=lambda r: r[1])
    aucs = np.array([row[3 : 3 + labels.K] for row in rows], dtype=float)
    diffs = np.array([row[3 + labels.K] for row in rows], dtype=float) if labels.K == 2 else None
    mins = np.array([row[4 + labels.K] for row in rows], dtype=float)

    def stderr(v: np.ndarray) -> float:
        return float(v.std(ddof=1) / np.sqrt(v.size)) if v.size > 1 else 0.0

    for stat, reduce in (("mean", lambda v: float(v.mean())), ("stderr", stderr)):
        rows.append(
            [
                "train",
                stat,
                args.objective,
                *[reduce(aucs[:, k]) for k in range(labels.K)],
                reduce(diffs) if diffs is not None else "",
                reduce(mins),
                "",
                "",
                args.seed,
            ]
        )
    header = [
        "experiment",
        "trial",
        "objective",
        *[f"auc_label{k + 1}" for k in range(labels.K)],
        "diff_auc",
        "min_auc",
        "final_loss",
        "runtime_ms",
        "seed",
    ]
    dataio.write_rows(args.out, header, rows)
    return _EXIT_OK


# -------------------------------------------------------------------- oracle


def cmd_oracle(args) -> int:
    _merge(
        args,
        {
            "n": (int, 25),
            "P": (int, 3),
            "seed": (int, 0),
            "weights_grid": (int, 5),
            "budget": (int, DEFAULT_BUDGET),
        },
    )
    data = gen_gaussian_bilevel(args.n, args.seed)
    sets = maximizer_sets(data.labels, P=args.P, weight_grid_max=args.weights_grid, budget=args.budget)
    grid = args.weights_grid
    eq_sets = [sets.loss_agg[(w, w)] for w in range(1, grid + 1)]
    lt_sets = [sets.loss_agg[(a1, a2)] for a1 in range(1, grid + 1) for a2 in range(a1 + 1, grid + 1)]
    gt_sets = [sets.loss_agg[(a1, a2)] for a1 in range(1, grid + 1) for a2 in range(1, a1)]

    def proper_subset(a, b) -> bool:
        return index_subset(a, b) and a.size < b.size

    checks = [
        ("equal-weight maximizer sets agree across the grid",
         all(index_equal(s, eq_sets[0]) for s in eq_sets)),
        ("equal-weight loss-agg maximizers = summed-label maximizers",
         index_equal(eq_sets[0], sets.label_agg_sum)),
        ("label-2-heavy maximizer sets agree across the grid",
         all(index_equal(s, lt_sets[0]) for s in lt_sets) if lt_sets else True),
        ("label-1-heavy maximizer sets agree across the grid",
         all(index_equal(s, gt_sets[0]) for s in gt_sets) if gt_sets else True),
        ("label-2-heavy maximizers properly within equal-weight set",
         proper_subset(lt_sets[0], eq_sets[0]) if lt_sets else True),
        ("label-1-heavy maximizers properly within equal-weight set",
         proper_subset(gt_sets[0], eq_sets[0]) if gt_sets else True),
        ("summed-label maximizers properly within product-label set",
         proper_subset(sets.label_agg_sum, sets.label_product)),
    ]
    auc_1, auc_2, counts, on_front = auc_scatter(sets.scan)

    def auc_pair_of(indices) -> tuple[float, float]:
        h = int(indices[0])
        return (
            float(sets.scan.count_1[h] / (2.0 * sets.scan.denom_1)),
            float(sets.scan.count_2[h] / (2.0 * sets.scan.denom_2)),
        )

    front_pts = [(a1, a2) for a1, a2, f in zip(auc_1, auc_2, on_front) if f]
    if gt_sets:
        endpoint_1 = max(front_pts)  # best label-1 AUC corner
        checks.append(
            ("frontier endpoint matches the label-1-heavy maximizer",
             gt_sets[0].size == 1 and np.allclose(auc_pair_of(gt_sets[0]), endpoint_1, atol=1e-12)),
        )
    if lt_sets:
        endpoint_2 = max(front_pts, key=lambda p: (p[1], p[0]))
        checks.append(
            ("frontier endpoint matches the label-2-heavy maximizer",
             lt_sets[0].size == 1 and np.allclose(auc_pair_of(lt_sets[0]), endpoint_2, atol=1e-12)),
        )
    for name, ok in checks:
        print(f"{'PASS' if ok else 'FAIL'} {name}")
    header = ["auc_label1", "auc_label2", "hypotheses", "on_front"]
    rows = [
        [float(a1), float(a2), int(c), int(f)]
        for a1, a2, c, f in zip(auc_1, auc_2, counts, on_front)
    ]
    rows.sort(key=lambda r: (r[0], r[1]))
    dataio.write_rows(args.out, header, rows)
    if not args.no_plot:
        svgplot.scatter_chart(
            _plot_path(args),
            [(r[0], r[1], bool(r[3])) for r in rows],
            title="Per-label AUCs over the exhaustive hypothesis grid",
            xlabel="AUC label 1",
            ylabel="AUC label 2",
        )
    return _EXIT_OK


# --------------------------------------------------------------------- bound


def cmd_bound(args) -> int:
    _merge(
        args,
        {
            "K": (_int_list, [2, 4, 8, 16]),
            "n": (int, 5),
            "c": (float, 0.2),
            "seed": (int, 0),
        },
    )
    if args.n > MAX_EXHAUSTIVE_N:
        raise TooLarge(f"{args.n} instances exceed the exhaustive limit {MAX_EXHAUSTIVE_N}")

    def run_k(K: int) -> list:
        start = time.perf_counter()
        rng = np.random.default_rng([int(args.seed), 20, K])
        eta = EtaTable(rng.uniform(args.c, 1.0 - args.c, (args.n, K)))
        report = evaluate_bound(eta, np.ones(K))
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        return ["bound", K, report.empirical_gap, report.bound_value, report.argument, elapsed_ms, args.seed]

    rows = [run_k(K) for K in sorted(args.K)]
    header = ["experiment", "K", "gap", "bound", "argument", "runtime_ms", "seed"]
    dataio.write_rows(args.out, header, rows)
    if not args.no_plot:
        floor = 1e-12  # keep zero gaps plottable on the log axis
        series = {
            "gap": [(r[1], max(r[2], floor)) for r in rows],
            "bound": [(r[1], max(r[3], floor)) for r in rows if np.isfinite(r[3])],
        }
        svgplot.line_chart(
            _plot_path(args),
            series,
            title="Optimality gap of the probability-sum scorer vs K",
            xlabel="K",
            ylabel="gap",
            logx=True,
            logy=True,
        )
    return _EXIT_OK


# ---------------------------------------------------------------- dispatcher


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rankagg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", required=True, help="output CSV path")
        p.add_argument("--config", help="key=value config file; flags take precedence")
        p.add_argument("--seed", type=int)
        p.add_argument("--no-plot", action="store_true")
        p.add_argument("--plot-out", help="SVG path (default: out path with .svg)")

    p = sub.add_parser("skew-sweep", help="per-label AUC difference vs label skew")
    common(p)
    p.add_argument("--tau", type=_float_list, help="comma list of sigmoid scales")
    p.add_argument("--rho", type=_float_list, help="comma list of label-2 shifts")
    p.add_argument("--pi2", type=_float_list, help="comma list of target label-2 positive rates")
    p.add_argument("--n", type=int, help="evaluation sample size")
    p.set_defaults(fn=cmd_skew_sweep)

    p = sub.add_parser("train", help="train a scorer on a CSV dataset")
    common(p)
    p.add_argument("--data", required=True, help="dataset CSV (f0..,y0.. schema)")
    p.add_argument("--labels", help="comma list of label column names (default y0,y1)")
    p.add_argument(
        "--objective",
        help="label1 | label2 | lossagg:a1,a2 | labelagg:uniform | labelagg:absdiff",
    )
    p.add_argument("--surrogate", help="logistic | hinge")
    p.add_argument("--model", help="linear | mlp:h1,h2,...")
    p.add_argument("--epochs", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--resample-pi", help="k:pi, reskew label column k to rate pi per trial")
    p.add_argument("--trials", type=int)
    p.add_argument("--pair-budget", type=int)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("oracle", help="exhaustive maximizer-set comparison")
    common(p)
    p.add_argument("--n", type=int, help="dataset size")
    p.add_argument("--P", type=int, help="top score level for the hypothesis grid")
    p.add_argument("--weights-grid", type=int, help="weights range over {1..max}^2")
    p.add_argument("--budget", type=int, help="max hypotheses to enumerate")
    p.set_defaults(fn=cmd_oracle)

    p = sub.add_parser("bound", help="optimality-gap bound vs K")
    common(p)
    p.add_argument("--K", type=_int_list, help="comma list of label counts")
    p.add_argument("--n", type=int, help=f"instance count (<= {MAX_EXHAUSTIVE_N})")
    p.add_argument("--c", type=float, help="probabilities drawn uniform in [c, 1-c]")
    p.set_defaults(fn=cmd_bound)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else _EXIT_FLAGS
    try:
        return args.fn(args)
    except (BudgetExceeded, TooLarge) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_BUDGET
    except (DegenerateLabel, RankAggError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
