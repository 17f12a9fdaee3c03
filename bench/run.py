"""Per-layer timings of rankagg kernels, written to a BENCH_*.json file.

Each case is timed in this process after one warm-up call; a case records
the median and quartiles of its repeats, and the minor page faults per call
over all of them (``ru_minflt`` of this process). Cases (``_cases`` lists
them in the order they run):

- ``auc_report_k2_n<n>``: ``metrics.auc_report`` of tie-free scores against
  two sampled 0/1 labels, n in {1e3, 1e5, 1e6}; seconds per call, over
  1e6 / n calls per repeat;
- ``auc_report_k2_n100000_ties``: the n=1e5 case with its scores rounded to
  3 decimals, so that runs of tied scores are grouped;
- ``solve_rho_default_sweep_n100000``: ``synthgen._solve_rho_for_pi2`` for
  the twelve (tau, pi2) points of ``skew-sweep`` at its defaults (seed 0);
  seconds for all twelve;
- ``sweep_points_n100000``: the twelve points of ``skew-sweep`` at its
  defaults (seed 0), with each rho solved beforehand: ``sigmoid_sweep``
  builds each point's eta and labels (drawing the inputs once), then both
  sweep scorers and their ``auc_report``; seconds for all twelve;
- ``loss_agg_scorer_n100000``: ``bayes.loss_agg_bayes_scorer`` of the eta
  table of ``skew-sweep``'s inputs (seed 0) at tau=1, rho=0, its priors
  the table's column means; seconds per call;
- ``scale_condition_absdiff_m8``: ``bayes.scale_condition_holds`` on
  ``CostMatrix.absdiff(8)``; seconds per call;
- ``surrogate_loss_grad_n600``: one exact logistic loss plus score gradient
  (``surrogate._loss_and_score_grad``) for ``labelagg:absdiff`` at the
  scores of a fixed linear scorer; seconds per call;
- ``train_epoch_n600``: ``surrogate.train`` at the ``rankagg train``
  benchmark flags (``labelagg:absdiff``, linear, Adam, lr 0.05) for
  TRAIN_EPOCHS epochs; seconds per epoch;
- ``train_epoch_untraced_n600``: the same training with ``per_epoch=False``,
  as ``rankagg train`` runs it without ``--trace-out``: no per-epoch loss
  or training AUCs;
- ``train_epoch_mlp8_n600``: the untraced training with one hidden ReLU
  layer of 8 units (``hidden=(8,)``, ``--model mlp:8``); seconds per epoch;
- ``train_epoch_sampled_n100000``: untraced training as above, for
  SAMPLED_EPOCHS epochs on n=1e5 rows of the train CSV's data without the
  reskew; its pairs exceed ``pair_budget``, so every epoch draws a pair
  sample; seconds per epoch;
- ``aggregate_distribution_k<K>``: ``core.aggregate_distribution`` with
  ``Sum()`` over n=100 instances, eta uniform on [0.2, 0.8], K in
  {2, 16, 64, 256}; seconds per call, over 256 / K calls per repeat;
- ``evaluate_bound_n5_k256``: ``bound.evaluate_bound`` with unit weights
  over n=5 instances and K=256 labels, eta drawn as above; seconds per call.
  The two cases pass an ``EtaTable`` as the label model;
- ``certify_bayes_n<n>``: ``oracle.certify_bayes`` of the probability-sum
  scorer under ``bound``'s objective (the uniform-cost multipartite AUC of
  the sum of K=4 labels) over n in {8, 10, 12} instances, eta drawn as
  above: the subset DP and both pair-kernel values; seconds per call;
- ``label_agg_auc_population_n100000``: ``metrics.label_agg_auc`` of
  standard normal scores under an ``EtaTable`` of n=1e5 instances and K=2
  labels (eta uniform on [0.2, 0.8]), ``Sum()`` and ``CostMatrix.absdiff(3)``;
  seconds per call;
- ``oracle_n25_seeds0to4``, ``oracle_n60_seed3``, ``oracle_n100_seed1``:
  ``oracle.maximizer_sets`` plus ``oracle.auc_scatter`` at the ``rankagg
  oracle`` defaults (P=3, weights up to 5) on ``gen_gaussian_bilevel``
  labels; seconds for all of a case's seeds, over ORACLE_REPEATS repeats.
  A case whose grid exceeds the source tree's default budget records the
  ``BudgetExceeded`` size and budget instead of a time;
- ``oracle_cli_n500_seed1``: ``cli.main(["oracle", "--n", "500", "--seed",
  "1", "--out", <temporary CSV>, "--no-plot"])`` in this process, its
  PASS/FAIL lines discarded: the grid scan plus the CSV of every distinct
  AUC pair; seconds per call, over ORACLE_REPEATS repeats.

Besides the timings, ``memory`` records the tracemalloc peak of one pass over
the same twelve points, after a warm-up pass, in bytes and in bytes per
instance: the sweep's working set above its imports.

The n=600 surrogate cases use data built as the benchmark's train CSV
(uniform features on [-1, 1]^2, labels Bernoulli(s(6 x1)) and
Bernoulli(s(2 x2)), seed 0), with label 1 reskewed to rate 0.85.

Usage::

    python bench/run.py --out BENCH.json --label after
    python bench/run.py --src /path/to/other/checkout/src --out BENCH.json --label before
    python bench/run.py --out BENCH.json --label after --cases train_epoch_n600 certify_bayes_n8

``--src`` picks the source tree to measure (default: this checkout's
``src``). Each run stores its record under ``runs[label]`` in ``--out``,
keeping the other labels already there, so one file can hold the timings
before and after a change. ``--cases`` runs only the named cases, in
``_cases``' order, and builds only their inputs.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
SWEEP_TAUS = (1.0, 5.0)
SWEEP_TARGETS = (0.5, 0.6, 0.7, 0.8, 0.9, 0.95)
SWEEP_N = 100_000
REPEATS = 7
TRAIN_N = 600
TRAIN_EPOCHS = 60
SAMPLED_N, SAMPLED_EPOCHS = 100_000, 10
LABEL_AGG_N = 100_000
ORACLE_CASES = {"oracle_n25_seeds0to4": (25, (0, 1, 2, 3, 4)), "oracle_n60_seed3": (60, (3,)),
                "oracle_n100_seed1": (100, (1,))}
ORACLE_REPEATS = 3
AGGREGATE_N = 100
AGGREGATE_KS = (2, 16, 64, 256)
BOUND_N, BOUND_K = 5, 256
CERTIFY_NS, CERTIFY_K = (8, 10, 12), 4


def _git(src: Path, *args: str) -> str | None:
    try:
        out = subprocess.run(["git", "-C", str(src), *args], capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def _cpu_model() -> str | None:
    try:
        lines = Path("/proc/cpuinfo").read_text().splitlines()
    except OSError:
        return None
    return next((line.split(":", 1)[1].strip() for line in lines if line.startswith("model name")), None)


def _timings(fn, number: int, repeats: int, units: int = 1) -> dict:
    """Seconds per call of fn, or per unit of work when one call does units of it.

    Median and quartiles over repeats of number calls, and the minor page
    faults per call over all the repeats.
    """
    fn()
    per_call = []
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(number):
            fn()
        per_call.append((time.perf_counter() - start) / (number * units))
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    q1, median, q3 = statistics.quantiles(per_call, n=4, method="inclusive")
    return {"median_s": statistics.median(per_call), "q1_s": q1, "q3_s": q3,
            "repeats": repeats, "calls_per_repeat": number, "units_per_call": units,
            "minor_faults_per_call": faults / (repeats * number)}


def _traced_peak(fn) -> int:
    """Bytes at the tracemalloc peak of one call of fn, after a warm-up call."""
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _cases(memory: dict) -> dict:
    """Every case's name and the call that measures it, in the order the cases run.

    A case builds its inputs when it runs, so a run of some cases builds
    only theirs. The sweep_points case also stores its memory record in
    memory.

    The order is fixed, so that every source tree is measured alike. The
    surrogate cases run first: once the n=1e6 arrays of the AUC cases are
    freed, glibc raises its mmap threshold, and from then on an allocation
    of a few hundred kB comes from the heap without the mmap and the page
    faults it costs a fresh ``rankagg train`` process. Each case records
    its minor faults per call.
    """
    return {**_surrogate_cases(), **_label_model_cases(), **_auc_cases(), **_sweep_cases(memory), **_oracle_cases()}


def measure(selected=None) -> tuple[dict, dict]:
    """Timings of the selected cases (default: all), keyed by case name, and the memory record."""
    memory = {}
    cases = {name: run() for name, run in _cases(memory).items() if selected is None or name in selected}
    return cases, memory


def _auc_cases() -> dict:
    from rankagg import SampledLabels
    from rankagg.metrics import auc_report

    sizes = (1_000, 100_000, 1_000_000)

    def data(n):
        # one stream for all sizes, drawn in order, so each size's data is the same in any run
        rng = np.random.default_rng(0)
        for size in sizes:
            scores = rng.standard_normal(size)
            labels = SampledLabels(rng.integers(0, 2, (size, 2)))
            if size == n:
                return scores, labels

    def report(n, ties=False):
        scores, labels = data(n)
        if ties:
            scores = scores.round(3)
        return _timings(lambda: auc_report(scores, labels), number=1_000_000 // n, repeats=REPEATS)

    cases = {}
    for n in sizes:
        cases[f"auc_report_k2_n{n}"] = functools.partial(report, n)
        if n == 100_000:
            cases[f"auc_report_k2_n{n}_ties"] = functools.partial(report, n, ties=True)
    return cases


def _sweep_cases(memory: dict) -> dict:
    from rankagg import CostMatrix, SigmoidSynthConfig, gen_sigmoid_pair
    from rankagg.bayes import label_agg_bayes_scorer_sum, loss_agg_bayes_scorer, scale_condition_holds
    from rankagg.metrics import auc_report
    from rankagg.synthgen import _solve_rho_for_pi2, sigmoid_sweep

    @functools.cache
    def feats():
        return gen_sigmoid_pair(SigmoidSynthConfig(SWEEP_N, 1.0, 0.0, 0)).instances.features

    def solve_rho():
        x = feats()

        def sweep_solves():
            for tau in SWEEP_TAUS:
                for target in SWEEP_TARGETS:
                    _solve_rho_for_pi2(x, tau, target)

        return _timings(sweep_solves, number=1, repeats=REPEATS)

    def points():
        x = feats()
        rhos = {tau: [_solve_rho_for_pi2(x, tau, target) for target in SWEEP_TARGETS] for tau in SWEEP_TAUS}

        def sweep_points():
            for tau in SWEEP_TAUS:
                for point in sigmoid_sweep(SWEEP_N, 0, (tau,), rhos[tau]):
                    for build in (label_agg_bayes_scorer_sum, loss_agg_bayes_scorer):
                        auc_report(build(point[3]).scores(), point[4])
                    # as skew-sweep does, free the point before the next is built
                    del point

        timings = _timings(sweep_points, number=1, repeats=REPEATS)
        peak = _traced_peak(sweep_points)
        memory[f"sweep_points_n{SWEEP_N}"] = {"traced_peak_bytes": peak, "bytes_per_instance": peak / SWEEP_N}
        return timings

    def loss_agg_scorer():
        eta = gen_sigmoid_pair(SigmoidSynthConfig(SWEEP_N, 1.0, 0.0, 0)).eta
        return _timings(lambda: loss_agg_bayes_scorer(eta), number=100, repeats=REPEATS)

    def scale_condition():
        absdiff = CostMatrix.absdiff(8)
        return _timings(lambda: scale_condition_holds(absdiff), number=100, repeats=REPEATS)

    return {f"solve_rho_default_sweep_n{SWEEP_N}": solve_rho, f"sweep_points_n{SWEEP_N}": points,
            f"loss_agg_scorer_n{SWEEP_N}": loss_agg_scorer, "scale_condition_absdiff_m8": scale_condition}


def _oracle_cases() -> dict:
    from rankagg import BudgetExceeded, gen_gaussian_bilevel
    from rankagg.cli import main
    from rankagg.oracle import auc_scatter, maximizer_sets

    def scan(n, seeds):
        labels = [gen_gaussian_bilevel(n, seed).labels for seed in seeds]

        def scan_all():
            for lab in labels:
                auc_scatter(maximizer_sets(lab).scan)

        try:
            return _timings(scan_all, number=1, repeats=ORACLE_REPEATS)
        except BudgetExceeded as exc:
            return {"budget_exceeded": {"size": exc.total, "budget": exc.budget}}

    def cli():
        with tempfile.TemporaryDirectory() as tmp:
            argv = ["oracle", "--n", "500", "--seed", "1", "--out", str(Path(tmp) / "oracle.csv"), "--no-plot"]

            def oracle_cli():
                with contextlib.redirect_stdout(io.StringIO()):
                    if main(argv) != 0:
                        raise RuntimeError(f"rankagg {' '.join(argv)} failed")

            return _timings(oracle_cli, number=1, repeats=ORACLE_REPEATS)

    cases = {name: functools.partial(scan, n, seeds) for name, (n, seeds) in ORACLE_CASES.items()}
    cases["oracle_cli_n500_seed1"] = cli
    return cases


def _label_model_cases() -> dict:
    from rankagg import CostMatrix, EtaTable, LabelAgg, Sum, aggregate_distribution, certify_bayes, evaluate_bound
    from rankagg.metrics import label_agg_auc

    @functools.cache
    def data():
        # one stream, drawn in case order, so each case's data is the same in any run
        rng = np.random.default_rng(0)
        aggregate = {K: EtaTable(rng.uniform(0.2, 0.8, (AGGREGATE_N, K))) for K in AGGREGATE_KS}
        bound = EtaTable(rng.uniform(0.2, 0.8, (BOUND_N, BOUND_K)))
        certify = {n: EtaTable(rng.uniform(0.2, 0.8, (n, CERTIFY_K))) for n in CERTIFY_NS}
        return aggregate, bound, certify

    def aggregate(K):
        model = data()[0][K]
        return _timings(lambda: aggregate_distribution(model, Sum()), number=256 // K, repeats=REPEATS)

    def bound():
        eta = data()[1]
        return _timings(lambda: evaluate_bound(eta, np.ones(BOUND_K)), number=1, repeats=REPEATS)

    def certify(n):
        eta = data()[2][n]
        scores = eta.eta.sum(axis=1)
        objective = LabelAgg(Sum(), CostMatrix.uniform(CERTIFY_K + 1))
        return _timings(lambda: certify_bayes(scores, eta, objective), number=1, repeats=REPEATS)

    def label_agg_population():
        rng = np.random.default_rng([0, 25])
        eta = EtaTable(rng.uniform(0.2, 0.8, (LABEL_AGG_N, 2)))
        scores = rng.standard_normal(LABEL_AGG_N)
        costs = CostMatrix.absdiff(3)
        return _timings(lambda: label_agg_auc(scores, eta, Sum(), costs), number=10, repeats=REPEATS)

    cases = {f"aggregate_distribution_k{K}": functools.partial(aggregate, K) for K in AGGREGATE_KS}
    cases[f"evaluate_bound_n{BOUND_N}_k{BOUND_K}"] = bound
    cases.update({f"certify_bayes_n{n}": functools.partial(certify, n) for n in CERTIFY_NS})
    cases[f"label_agg_auc_population_n{LABEL_AGG_N}"] = label_agg_population
    return cases


def _train_data(n: int, seed: int):
    """The benchmark train CSV's data at n rows: uniform features on [-1, 1]^2, two logistic labels."""
    from rankagg import InstanceSet, SampledLabels

    rng = np.random.default_rng([seed, 7])
    feats = rng.uniform(-1.0, 1.0, (n, 2))
    eta = 1.0 / (1.0 + np.exp(-np.column_stack([6.0 * feats[:, 0], 2.0 * feats[:, 1]])))
    return InstanceSet(feats), SampledLabels((rng.random(eta.shape) < eta).astype(int))


def _surrogate_cases() -> dict:
    from rankagg import CostMatrix, LabelAgg, Logistic, Sum, TrainConfig, resample_to_skew, train
    from rankagg.surrogate import _loss_and_score_grad, _pair_groups

    objective = LabelAgg(Sum(), CostMatrix.absdiff(3))
    config = TrainConfig(objective=objective, lr=0.05, epochs=TRAIN_EPOCHS)

    @functools.cache
    def data():
        return resample_to_skew(*_train_data(TRAIN_N, 0), 0, 0.85, 0)

    def loss_grad():
        instances, labels = data()
        groups = _pair_groups(labels, objective)
        scores = instances.features @ np.array([1.0, 0.5])
        return _timings(lambda: _loss_and_score_grad(scores, groups, Logistic(), True), number=100, repeats=REPEATS)

    def epochs(per_epoch, hidden=()):
        instances, labels = data()
        layered = replace(config, hidden=hidden)
        return _timings(
            lambda: train(instances, labels, layered, per_epoch=per_epoch), number=1, repeats=REPEATS,
            units=TRAIN_EPOCHS,
        )

    def sampled_epochs():
        instances, labels = _train_data(SAMPLED_N, 0)
        sampled = replace(config, epochs=SAMPLED_EPOCHS)
        return _timings(
            lambda: train(instances, labels, sampled, per_epoch=False), number=1, repeats=REPEATS,
            units=SAMPLED_EPOCHS,
        )

    return {
        f"surrogate_loss_grad_n{TRAIN_N}": loss_grad,
        f"train_epoch_n{TRAIN_N}": functools.partial(epochs, True),
        f"train_epoch_untraced_n{TRAIN_N}": functools.partial(epochs, False),
        f"train_epoch_mlp8_n{TRAIN_N}": functools.partial(epochs, False, (8,)),
        f"train_epoch_sampled_n{SAMPLED_N}": sampled_epochs,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--src", type=Path, default=REPO / "src", help="source tree holding the rankagg package")
    parser.add_argument("--out", type=Path, required=True, help="BENCH JSON file to update")
    parser.add_argument("--label", required=True, help="key of this run under 'runs'")
    parser.add_argument(
        "--cases", nargs="+", metavar="NAME", help="run only these cases (default: all), in the usual order"
    )
    args = parser.parse_args(argv)
    src = args.src.resolve()
    sys.path.insert(0, str(src))
    import rankagg

    if Path(rankagg.__file__).resolve().parent.parent != src:
        parser.error(f"rankagg was imported from {rankagg.__file__}, not from {src}")
    record = {
        "commit": _git(src, "rev-parse", "HEAD"),
        "dirty": bool(_git(src, "status", "--porcelain", "--", ".")),
        "machine": {"platform": platform.platform(), "machine": platform.machine(),
                    "cpu_model": _cpu_model(), "cpu_count": os.cpu_count()},
        "versions": {"python": platform.python_version(), "numpy": np.__version__},
    }
    known = list(_cases({}))
    unknown = sorted(set(args.cases or ()) - set(known))
    if unknown:
        parser.error(f"unknown cases {', '.join(unknown)}; known: {', '.join(known)}")
    record["cases"], record["memory"] = measure(args.cases)
    data = json.loads(args.out.read_text()) if args.out.exists() else {"runs": {}}
    data["runs"][args.label] = record
    args.out.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    for name, case in record["cases"].items():
        if "median_s" in case:
            print(f"{args.label:>8} {name:<34} {case['median_s'] * 1e3:10.3f} ms"
                  f" {case['minor_faults_per_call']:10.1f} faults/call")
        else:
            print(f"{args.label:>8} {name:<34} over budget {case['budget_exceeded']}")
    for name, peak in record["memory"].items():
        print(f"{args.label:>8} {name + ' traced peak':<34} {peak['traced_peak_bytes'] / 1e6:10.3f} MB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
