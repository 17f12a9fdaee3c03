"""Per-layer timings of rankagg kernels, written to a BENCH_*.json file.

Each case is timed in this process after one warm-up call; a case records
the median and quartiles of its repeats. Cases:

- ``auc_report_k2_n<n>``: ``metrics.auc_report`` of tie-free scores against
  two sampled 0/1 labels, n in {1e3, 1e5, 1e6}; seconds per call, over
  1e6 / n calls per repeat;
- ``auc_report_k2_n100000_ties``: the n=1e5 case with its scores rounded to
  3 decimals, so that runs of tied scores are grouped;
- ``solve_rho_default_sweep_n100000``: ``synthgen._solve_rho_for_pi2`` for
  the twelve (tau, pi2) points of ``skew-sweep`` at its defaults (seed 0);
  seconds for all twelve. Older source trees keep the solver in ``cli``,
  where it is taken from instead;
- ``sweep_points_n100000``: the twelve points of ``skew-sweep`` at its
  defaults (seed 0), with each rho solved beforehand: ``sigmoid_sweep``
  builds each point's eta and labels (drawing the inputs and eta1 once per
  tau), then both sweep scorers and their ``auc_report``; seconds for all
  twelve. A source tree without ``synthgen.sigmoid_sweep`` leaves it out;
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
  or training AUCs. A source tree whose ``train`` has no ``per_epoch``
  leaves this case out;
- ``aggregate_distribution_k<K>``: ``core.aggregate_distribution`` with
  ``Sum()`` over n=100 instances, eta uniform on [0.2, 0.8], K in
  {2, 16, 64, 256}; seconds per call, over 256 / K calls per repeat;
- ``evaluate_bound_n5_k256``: ``bound.evaluate_bound`` with unit weights
  over n=5 instances and K=256 labels, eta drawn as above; seconds per call.
  The two cases pass an ``EtaTable`` as the label model; a source tree whose
  ``JointLabelModel`` still has ``from_eta`` gets the wrapped model instead;
- ``oracle_n25_seeds0to4``, ``oracle_n60_seed3``, ``oracle_n100_seed1``:
  ``oracle.maximizer_sets`` plus ``oracle.auc_scatter`` at the ``rankagg
  oracle`` defaults (P=3, weights up to 5) on ``gen_gaussian_bilevel``
  labels; seconds for all of a case's seeds, over ORACLE_REPEATS repeats.
  A case whose grid exceeds the source tree's default budget records the
  ``BudgetExceeded`` size and budget instead of a time.

Besides the timings, ``memory`` records the tracemalloc peak of one pass over
the same twelve points, after a warm-up pass, in bytes and in bytes per
instance: the sweep's working set above its imports.

The surrogate cases use n=600 data built as the benchmark's train CSV
(uniform features on [-1, 1]^2, labels Bernoulli(s(6 x1)) and
Bernoulli(s(2 x2)), seed 0), with label 1 reskewed to rate 0.85.

Usage::

    python bench/run.py --out BENCH.json --label after
    python bench/run.py --src /path/to/other/checkout/src --out BENCH.json --label before

``--src`` picks the source tree to measure (default: this checkout's
``src``). Each run stores its record under ``runs[label]`` in ``--out``,
keeping the other labels already there, so one file can hold the timings
before and after a change.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
SWEEP_TAUS = (1.0, 5.0)
SWEEP_TARGETS = (0.5, 0.6, 0.7, 0.8, 0.9, 0.95)
SWEEP_N = 100_000
REPEATS = 7
TRAIN_N = 600
TRAIN_EPOCHS = 60
ORACLE_CASES = {"oracle_n25_seeds0to4": (25, (0, 1, 2, 3, 4)), "oracle_n60_seed3": (60, (3,)),
                "oracle_n100_seed1": (100, (1,))}
ORACLE_REPEATS = 3
AGGREGATE_N = 100
AGGREGATE_KS = (2, 16, 64, 256)
BOUND_N, BOUND_K = 5, 256


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

    Median and quartiles over repeats of number calls.
    """
    fn()
    per_call = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(number):
            fn()
        per_call.append((time.perf_counter() - start) / (number * units))
    q1, median, q3 = statistics.quantiles(per_call, n=4, method="inclusive")
    return {"median_s": statistics.median(per_call), "q1_s": q1, "q3_s": q3,
            "repeats": repeats, "calls_per_repeat": number, "units_per_call": units}


def _traced_peak(fn) -> int:
    """Bytes at the tracemalloc peak of one call of fn, after a warm-up call."""
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def measure() -> tuple[dict, dict]:
    """Timings of every case, keyed by case name, and the memory record."""
    from rankagg import CostMatrix, SampledLabels, SigmoidSynthConfig, gen_sigmoid_pair
    from rankagg.bayes import label_agg_bayes_scorer_sum, loss_agg_bayes_scorer, scale_condition_holds
    from rankagg.metrics import auc_report

    try:
        from rankagg.synthgen import _solve_rho_for_pi2
    except ImportError:
        from rankagg.cli import _solve_rho_for_pi2

    # The surrogate cases run first: once the n=1e6 arrays below are freed,
    # glibc raises its mmap threshold, and later block temporaries of a few
    # hundred kB no longer pay the mmap and page faults a fresh `rankagg
    # train` process pays.
    cases = _surrogate_cases()
    cases.update(_label_model_cases())
    rng = np.random.default_rng(0)
    for n in (1_000, 100_000, 1_000_000):
        scores = rng.standard_normal(n)
        labels = SampledLabels(rng.integers(0, 2, (n, 2)))
        cases[f"auc_report_k2_n{n}"] = _timings(
            lambda: auc_report(scores, labels), number=1_000_000 // n, repeats=REPEATS
        )
        if n == 100_000:
            tied = scores.round(3)
            cases[f"auc_report_k2_n{n}_ties"] = _timings(
                lambda: auc_report(tied, labels), number=1_000_000 // n, repeats=REPEATS
            )
    feats = gen_sigmoid_pair(SigmoidSynthConfig(SWEEP_N, 1.0, 0.0, 0)).instances.features

    def sweep_solves():
        for tau in SWEEP_TAUS:
            for target in SWEEP_TARGETS:
                _solve_rho_for_pi2(feats, tau, target)

    cases[f"solve_rho_default_sweep_n{SWEEP_N}"] = _timings(sweep_solves, number=1, repeats=REPEATS)
    memory = {}
    try:
        from rankagg.synthgen import sigmoid_sweep
    except ImportError:
        sigmoid_sweep = None
    if sigmoid_sweep is not None:
        rhos = {tau: [_solve_rho_for_pi2(feats, tau, target) for target in SWEEP_TARGETS] for tau in SWEEP_TAUS}

        def sweep_points():
            for tau in SWEEP_TAUS:
                for point in sigmoid_sweep(SWEEP_N, 0, (tau,), rhos[tau]):
                    for build in (label_agg_bayes_scorer_sum, loss_agg_bayes_scorer):
                        auc_report(build(point[3]).scores(), point[4])
                    # as skew-sweep does, free the point before the next is built
                    del point

        cases[f"sweep_points_n{SWEEP_N}"] = _timings(sweep_points, number=1, repeats=REPEATS)
        peak = _traced_peak(sweep_points)
        memory[f"sweep_points_n{SWEEP_N}"] = {"traced_peak_bytes": peak, "bytes_per_instance": peak / SWEEP_N}
    absdiff = CostMatrix.absdiff(8)
    cases["scale_condition_absdiff_m8"] = _timings(lambda: scale_condition_holds(absdiff), number=100, repeats=REPEATS)
    cases.update(_oracle_cases())
    return cases, memory


def _oracle_cases() -> dict:
    from rankagg import BudgetExceeded, gen_gaussian_bilevel
    from rankagg.oracle import auc_scatter, maximizer_sets

    cases = {}
    for name, (n, seeds) in ORACLE_CASES.items():
        labels = [gen_gaussian_bilevel(n, seed).labels for seed in seeds]

        def scan_all():
            for lab in labels:
                auc_scatter(maximizer_sets(lab).scan)

        try:
            cases[name] = _timings(scan_all, number=1, repeats=ORACLE_REPEATS)
        except BudgetExceeded as exc:
            cases[name] = {"budget_exceeded": {"size": exc.total, "budget": exc.budget}}
    return cases


def _label_model_cases() -> dict:
    from rankagg import EtaTable, JointLabelModel, Sum, aggregate_distribution, evaluate_bound

    wrap = getattr(JointLabelModel, "from_eta", lambda eta: eta)
    rng = np.random.default_rng(0)
    cases = {}
    for K in AGGREGATE_KS:
        model = wrap(EtaTable(rng.uniform(0.2, 0.8, (AGGREGATE_N, K))))
        cases[f"aggregate_distribution_k{K}"] = _timings(
            lambda: aggregate_distribution(model, Sum()), number=256 // K, repeats=REPEATS
        )
    eta = EtaTable(rng.uniform(0.2, 0.8, (BOUND_N, BOUND_K)))
    cases[f"evaluate_bound_n{BOUND_N}_k{BOUND_K}"] = _timings(
        lambda: evaluate_bound(eta, np.ones(BOUND_K)), number=1, repeats=REPEATS
    )
    return cases


def _surrogate_cases() -> dict:
    from rankagg import (
        CostMatrix, InstanceSet, LabelAgg, Logistic, SampledLabels, Sum, TrainConfig, resample_to_skew, train,
    )
    from rankagg.surrogate import _loss_and_score_grad, _pair_groups

    rng = np.random.default_rng([0, 7])
    feats = rng.uniform(-1.0, 1.0, (TRAIN_N, 2))
    eta = 1.0 / (1.0 + np.exp(-np.column_stack([6.0 * feats[:, 0], 2.0 * feats[:, 1]])))
    labels = SampledLabels((rng.random(eta.shape) < eta).astype(int))
    instances, labels = resample_to_skew(InstanceSet(feats), labels, 0, 0.85, 0)
    objective = LabelAgg(Sum(), CostMatrix.absdiff(3))
    groups = _pair_groups(labels, objective)
    scores = instances.features @ np.array([1.0, 0.5])
    config = TrainConfig(objective=objective, lr=0.05, epochs=TRAIN_EPOCHS)
    cases = {
        f"surrogate_loss_grad_n{TRAIN_N}": _timings(
            lambda: _loss_and_score_grad(scores, groups, Logistic(), True), number=100, repeats=REPEATS
        ),
        f"train_epoch_n{TRAIN_N}": _timings(
            lambda: train(instances, labels, config), number=1, repeats=REPEATS, units=TRAIN_EPOCHS
        ),
    }
    if "per_epoch" in inspect.signature(train).parameters:
        cases[f"train_epoch_untraced_n{TRAIN_N}"] = _timings(
            lambda: train(instances, labels, config, per_epoch=False), number=1, repeats=REPEATS, units=TRAIN_EPOCHS
        )
    return cases


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--src", type=Path, default=REPO / "src", help="source tree holding the rankagg package")
    parser.add_argument("--out", type=Path, required=True, help="BENCH JSON file to update")
    parser.add_argument("--label", required=True, help="key of this run under 'runs'")
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
    record["cases"], record["memory"] = measure()
    data = json.loads(args.out.read_text()) if args.out.exists() else {"runs": {}}
    data["runs"][args.label] = record
    args.out.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    for name, case in record["cases"].items():
        if "median_s" in case:
            print(f"{args.label:>8} {name:<34} {case['median_s'] * 1e3:10.3f} ms")
        else:
            print(f"{args.label:>8} {name:<34} over budget {case['budget_exceeded']}")
    for name, peak in record["memory"].items():
        print(f"{args.label:>8} {name + ' traced peak':<34} {peak['traced_peak_bytes'] / 1e6:10.3f} MB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
