"""Command-line experiment harness.

Subcommands: skew-sweep, train, oracle, bound. Exit codes: 0 success; 2 a
bad flag, among them any option value its _OPTIONS parse rejects; 3 the same
value in a config file, or data the run cannot use; 4 enumeration budget
errors (oracle --budget counts hypothesis classes). Every option but --out,
--data, --trace-out, --config, --no-plot and --plot-out is also a key
(snake_case or kebab-case) of an optional key=value --config file; flags
override config values, which override builtin defaults. Sweep points, train
trials and bound points run one after another. train computes its per-epoch
losses and training AUCs only for --trace-out, which writes them as JSON
lines. Each cmd_* returns its CSV header, rows and chart (None for train,
which draws none); main writes the CSV and, unless --no-plot, the SVG. Rows
are iterables of str, int and float cells, which csv writes as they are.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from . import dataio, svgplot
from .bayes import bayes_scorer
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
from .oracle import (
    DEFAULT_BUDGET,
    MAX_EXHAUSTIVE_N,
    _require_exhaustive,
    auc_scatter,
    index_equal,
    index_subset,
    maximizer_sets,
)
from .bound import evaluate_bound
from .surrogate import TrainConfig, train
from .synthgen import gen_gaussian_bilevel, resample_to_skew, sigmoid_sweep

__all__ = ["main"]

_EXIT_OK = 0
_EXIT_FLAGS = 2
_EXIT_DATA = 3
_EXIT_BUDGET = 4


class _UsageError(Exception):
    """A flag combination the run cannot use; main prints it as is and exits 2."""


def _float_list(text: str, parse=float) -> list:
    values = [parse(tok) for tok in text.split(",") if tok.strip() != ""]
    if not values:
        raise ValueError(f"expected a nonempty comma list, got {text!r}")
    return values


def _checked(parse, ok, expected: str):
    """parse, then a range check: ValueError saying what was expected unless ok(value)."""

    def check(text: str):
        value = parse(text)
        if not ok(value):
            raise ValueError(f"expected {expected}")
        return value

    return check


def _int_from(low: int):
    return _checked(int, lambda value: value >= low, f"an integer of at least {low}")


def _count_list(text: str) -> list[int]:
    return _float_list(text, _int_from(1))


def _label_names(text: str) -> tuple[str, ...]:
    names = tuple(name.strip() for name in text.split(","))
    if not all(name[:1] == "y" and name[1:].isdigit() for name in names):
        raise ValueError("expected a comma list of label columns y0, y1, ...")
    return names


def _label_rate(text: str) -> tuple[int, float]:
    k_text, _, pi_text = text.partition(":")
    return int(k_text), float(pi_text)


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
        return tuple(_count_list(text.split(":", 1)[1]))
    raise ValueError(f"unknown model {text!r}")


def _objective_text(text: str) -> str:
    _parse_objective(text, 2)  # grammar and lossagg weights; their count needs the data's K
    return text


_SEED = (_int_from(0), 0, "random seed, a non-negative integer")

# subcommand -> option -> (parse, default, help). Each entry is both a
# --flag and a config key, spelled snake_case or kebab-case; parse is the
# only check on the value that needs no data.
_OPTIONS = {
    "skew-sweep": {
        "seed": _SEED,
        "tau": (_checked(_float_list, lambda ts: all(0.0 < t < np.inf for t in ts), "finite scales tau > 0"),
                (1.0, 5.0), "comma list of sigmoid scales"),
        "rho": (_checked(_float_list, lambda rs: all(-np.inf < r < np.inf for r in rs), "finite shifts rho"),
                None, "comma list of label-2 shifts"),
        # default (0.5, ..., 0.95) only when --rho is unset too; see cmd_skew_sweep
        "pi2": (_checked(_float_list, lambda ps: all(0.0 < p < 1.0 for p in ps), "targets 0 < pi2 < 1"),
                None, "comma list of target label-2 positive rates"),
        "n": (_int_from(1), 100_000, "evaluation sample size"),
    },
    "train": {
        "seed": _SEED,
        "labels": (_label_names, ("y0", "y1"), "comma list of label column names (default y0,y1)"),
        "objective": (_objective_text, "labelagg:absdiff",
                      "label1 | label2 | lossagg:a1,a2 | labelagg:uniform | labelagg:absdiff"),
        "model": (_parse_model, (), "linear | mlp:h1,h2,..."),
        "epochs": (_int_from(1), 100, None),
        "lr": (_checked(float, lambda lr: 0.0 <= lr < np.inf, "a finite learning rate of at least 0"), 0.01, None),
        "resample_pi": (_checked(_label_rate, lambda kp: kp[0] >= 0 and 0.0 < kp[1] < 1.0,
                                 "k:pi with k >= 0 and 0 < pi < 1"),
                        None, "k:pi, reskew label column k to rate pi per trial"),
        "trials": (_int_from(1), 1, None),
        "pair_budget": (_int_from(1), 250_000, None),
    },
    "oracle": {
        "seed": _SEED,
        "n": (_int_from(2), 25, "dataset size"),
        "P": (_int_from(2), 3, "top score level for the hypothesis grid"),
        "weights_grid": (_int_from(1), 5, "weights range over {1..max}^2"),
        "budget": (_int_from(1), DEFAULT_BUDGET, "max hypothesis classes to enumerate"),
    },
    "bound": {
        "seed": _SEED,
        "K": (_count_list, (2, 4, 8, 16), "comma list of label counts"),
        "n": (_int_from(1), 5, f"instance count (<= {MAX_EXHAUSTIVE_N})"),
        "c": (_checked(float, lambda c: 0.0 <= c <= 0.5, "a margin c in [0, 0.5]"), 0.2,
              "probabilities drawn uniform in [c, 1-c], 0 <= c <= 0.5"),
    },
}


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


def _merge(args: argparse.Namespace, options: dict) -> argparse.Namespace:
    """Fill None flags from the config file, then from builtin defaults.

    args.sources maps each option to where its value came from: "flag",
    "config" or "default".
    """
    config = _load_config(args.config) if args.config else {}
    unknown = sorted(set(config) - {name for key in options for name in (key, key.replace("_", "-"))})
    if unknown:
        raise ValueError(f"{args.config}: unknown config keys {', '.join(unknown)}")
    args.sources = {}
    for key, (parse, default, _) in options.items():
        if getattr(args, key) is not None:
            args.sources[key] = "flag"
            continue
        name = next((name for name in (key.replace("_", "-"), key) if name in config), None)
        if name is None:
            args.sources[key] = "default"
            setattr(args, key, default)
            continue
        args.sources[key] = "config"
        try:
            setattr(args, key, parse(config[name]))
        except ValueError as exc:
            raise ValueError(f"{args.config}: {name}={config[name]}: {exc}") from None
    return args


# ---------------------------------------------------------------- skew-sweep


def _sweep_point(tau, rho, pi2_target, eta, labels, seed):
    pi2_emp = float(labels.labels[:, 1].mean())
    rows = []
    for method, objective in (("labelagg", LabelAgg(Sum(), CostMatrix.absdiff(3))), ("lossagg", LossAgg((1.0, 1.0)))):
        # runtime_ms covers this method's scorer and AUC report only
        start = time.perf_counter()
        report = auc_report(bayes_scorer(eta, objective).scores(), labels)
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


def cmd_skew_sweep(args):
    if args.rho is None and args.pi2 is None:
        args.pi2 = [0.5, 0.6, 0.7, 0.8, 0.9, 0.95]
    if args.rho is not None and args.pi2 is not None:
        raise _UsageError("give --rho or --pi2, not both")
    rows = []
    for point in sigmoid_sweep(args.n, args.seed, args.tau, args.rho, args.pi2):
        rows += _sweep_point(*point, args.seed)
        # free this point's eta and labels before the generator builds the next
        del point
    rows.sort(key=lambda r: (r[1], r[4], r[5]))
    header = "experiment,tau,rho,pi2_target,pi2_emp,method,auc_label1,auc_label2,diff_auc,min_auc,runtime_ms,seed".split(",")
    series = {}
    for row in rows:
        series.setdefault(f"{row[5]} tau={row[1]:g}", []).append((row[4], row[8]))
    text = {"title": "Per-label AUC difference vs label-2 skew", "xlabel": "empirical positive rate of label 2",
            "ylabel": "|AUC1 - AUC2|"}
    return header, rows, (svgplot.line_chart, series, text)


# --------------------------------------------------------------------- train


def cmd_train(args):
    instances, all_labels = dataio.read_dataset(args.data)
    available = [f"y{k}" for k in range(all_labels.K)]
    try:
        cols = [available.index(name) for name in args.labels]
    except ValueError:
        raise ValueError(f"label columns {list(args.labels)} not all present in {available}") from None
    labels = SampledLabels(all_labels.labels[:, cols])
    objective = _parse_objective(args.objective, labels.K)
    if args.resample_pi is not None and args.resample_pi[0] >= labels.K:
        raise ValueError(f"--resample-pi label index {args.resample_pi[0]} is not in 0..{labels.K - 1}")

    rows, traces, reports = [], [], []
    for trial in range(args.trials):
        start = time.perf_counter()
        trial_seed = args.seed + trial
        inst, labs = instances, labels
        if args.resample_pi is not None:
            inst, labs = resample_to_skew(inst, labs, *args.resample_pi, trial_seed)
        config = TrainConfig(
            objective=objective,
            lr=args.lr,
            epochs=args.epochs,
            pair_budget=args.pair_budget,
            seed=trial_seed,
            hidden=args.model,
        )
        scorer, trace = train(inst, labs, config, per_epoch=args.trace_out is not None)
        traces.append(trace)
        # every trial is scored on the un-resampled rows, whatever it trained on
        report = auc_report(scorer.scores(instances), labels)
        reports.append(report)
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        rows.append(
            [
                "train",
                trial,
                args.objective,
                *report.per_label.tolist(),
                report.diff if report.diff is not None else "",
                report.min,
                trace[-1]["loss"],
                elapsed_ms,
                trial_seed,
            ]
        )
    aucs = np.array([r.per_label for r in reports])
    diffs = np.array([r.diff for r in reports]) if labels.K == 2 else None
    mins = np.array([r.min for r in reports])

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
    header = ["experiment", "trial", "objective", *[f"auc_label{k + 1}" for k in range(labels.K)],
              "diff_auc", "min_auc", "final_loss", "runtime_ms", "seed"]
    if args.trace_out is not None:
        _write_train_trace(args.trace_out, traces)
    return header, rows, None


def _write_train_trace(path, traces: list[list[dict]]) -> None:
    """One JSON line per (trial, epoch): the loss and the training per-label AUCs."""
    import json  # only --trace-out runs need it, so importing the CLI does not load it

    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for trial, trace in enumerate(traces):
            for row in trace:
                line = {"trial": trial, "epoch": row["epoch"], "loss": row["loss"],
                        "train_auc": [float(v) for v in row["train"].per_label]}
                fh.write(json.dumps(line) + "\n")


# -------------------------------------------------------------------- oracle


def cmd_oracle(args):
    data = gen_gaussian_bilevel(args.n, args.seed)
    sets = maximizer_sets(data.labels, P=args.P, weight_grid_max=args.weights_grid, budget=args.budget)
    grid = args.weights_grid
    eq_sets = [sets.loss_agg[(w, w)] for w in range(1, grid + 1)]
    lt_sets = [sets.loss_agg[(a1, a2)] for a1 in range(1, grid + 1) for a2 in range(a1 + 1, grid + 1)]
    gt_sets = [sets.loss_agg[(a1, a2)] for a1 in range(1, grid + 1) for a2 in range(1, a1)]

    def proper_subset(a, b) -> bool:
        return index_subset(a, b) and a.size < b.size

    def unique_hypothesis(indices) -> bool:
        return indices.size == 1 and sets.scan.multiplicity[indices[0]] == 1

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
    # Python scalars for csv; the object array's counts stay exact past int64
    auc_1, auc_2, counts = auc_1.tolist(), auc_2.tolist(), counts.tolist()
    on_front = on_front.astype(np.int64).tolist()

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
             unique_hypothesis(gt_sets[0]) and np.allclose(auc_pair_of(gt_sets[0]), endpoint_1, atol=1e-12)),
        )
    if lt_sets:
        endpoint_2 = max(front_pts, key=lambda p: (p[1], p[0]))
        checks.append(
            ("frontier endpoint matches the label-2-heavy maximizer",
             unique_hypothesis(lt_sets[0]) and np.allclose(auc_pair_of(lt_sets[0]), endpoint_2, atol=1e-12)),
        )
    for name, ok in checks:
        print(f"{'PASS' if ok else 'FAIL'} {name}")
    header = ["auc_label1", "auc_label2", "hypotheses", "on_front"]
    # auc_scatter's rows already increase in (auc_1, auc_2)
    rows = zip(auc_1, auc_2, counts, on_front)
    points = zip(auc_1, auc_2, on_front)
    text = {"title": "Per-label AUCs over the exhaustive hypothesis grid", "xlabel": "AUC label 1",
            "ylabel": "AUC label 2"}
    return header, rows, (svgplot.scatter_chart, points, text)


# --------------------------------------------------------------------- bound


def cmd_bound(args):
    _require_exhaustive(args.n)

    def run_k(K: int) -> list:
        start = time.perf_counter()
        rng = np.random.default_rng([int(args.seed), 20, K])
        eta = EtaTable(rng.uniform(args.c, 1.0 - args.c, (args.n, K)))
        report = evaluate_bound(eta, np.ones(K))
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        return ["bound", K, report.empirical_gap, report.bound_value, report.argument, elapsed_ms, args.seed]

    rows = [run_k(K) for K in sorted(args.K)]
    header = ["experiment", "K", "gap", "bound", "argument", "runtime_ms", "seed"]
    floor = 1e-12  # keep zero gaps plottable on the log axis
    series = {
        "gap": [(r[1], max(r[2], floor)) for r in rows],
        "bound": [(r[1], max(r[3], floor)) for r in rows if np.isfinite(r[3])],
    }
    text = {"title": "Optimality gap of the probability-sum scorer vs K", "xlabel": "K", "ylabel": "gap",
            "logx": True, "logy": True}
    return header, rows, (svgplot.line_chart, series, text)


# ---------------------------------------------------------------- dispatcher


def _flag(parse):
    """parse as an argparse type: argparse prints its ValueError after the flag, with the value."""

    def flag(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"invalid value {text!r}: {exc}") from None

    return flag


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rankagg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "skew-sweep": (cmd_skew_sweep, "per-label AUC difference vs label skew"),
        "train": (cmd_train, "train a scorer on a CSV dataset"),
        "oracle": (cmd_oracle, "exhaustive maximizer-set comparison"),
        "bound": (cmd_bound, "optimality-gap bound vs K"),
    }
    for name, (fn, text) in commands.items():
        p = sub.add_parser(name, help=text)
        p.add_argument("--out", required=True, help="output CSV path")
        if name == "train":
            p.add_argument("--data", required=True, help="dataset CSV (f0..,y0.. schema)")
            p.add_argument("--trace-out", help="JSONL path for each epoch's loss and training per-label AUCs")
        p.add_argument("--config", help="key=value config file; flags take precedence")
        p.add_argument("--no-plot", action="store_true")
        p.add_argument("--plot-out", help="SVG path (default: out path with .svg)")
        for key, (parse, _, option_help) in _OPTIONS[name].items():
            p.add_argument("--" + key.replace("_", "-"), type=_flag(parse), help=option_help)
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else _EXIT_FLAGS
    try:
        header, rows, chart = args.fn(_merge(args, _OPTIONS[args.command]))
        dataio.write_rows(args.out, header, rows)
        if chart is not None and not args.no_plot:
            plot, data, text = chart
            plot(Path(args.plot_out) if args.plot_out else Path(args.out).with_suffix(".svg"), data, **text)
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return _EXIT_FLAGS
    except (BudgetExceeded, TooLarge) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_BUDGET
    except (DegenerateLabel, RankAggError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_DATA
    return _EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
