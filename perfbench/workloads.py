"""The benchmark's workloads, their inputs, and the checks on their outputs.

Each workload is one ``rankagg`` CLI subcommand run in a fresh interpreter:

- ``sweep``: ``skew-sweep`` at its defaults (n=100,000, tau in {1, 5}, six
  target rates; 24 rows). The paper's headline experiment; its time goes to
  the ``cli`` bisection and the ``metrics`` rank-path AUC.
- ``train``: the README training example on an n=600, d=2, K=2 CSV that this
  module writes with numpy (two logistic labels of unequal strength); 5
  trials plus mean and stderr rows. Its time goes to per-epoch ``metrics``
  AUC reports and ``surrogate`` loss and gradient.
- ``certify``: ``bound --n 8 --K 2,4,8,16,20``, exhaustive certification at
  the largest exhaustive n; one row per K. Its time goes to ``oracle``
  weak-order search and ``core`` aggregate distributions over 2^20 columns.

The ``oracle`` subcommand's hypothesis grid is left out: its size follows
from the seed (1 hypothesis for one seed, 14M for another), so no steady
workload can be built on it.

``smoke`` sizes run the same subcommands in well under a second each; the
benchmark's own tests use them. Reference outputs exist for full sizes only.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from typing import Callable
from pathlib import Path

import numpy as np

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Outputs are compared with the recorded references column by column, except
# runtime_ms. Floats match when |got - ref| <= ABS_TOL + REL_TOL * |ref|: a
# wrong AUC, gap or loss is off by far more, while reordered sums (a different
# AUC kernel, bincount for add.at) move results by ~1e-15, which 60 training
# epochs amplify to ~1e-13 at most.
ABS_TOL = 1e-9
REL_TOL = 1e-9
# Invariants that hold exactly in real arithmetic are checked to this slack.
EXACT_TOL = 1e-12

TRAIN_N = 600


@dataclass(frozen=True)
class Workload:
    name: str
    subcommand: str
    flags: tuple[str, ...]
    smoke_flags: tuple[str, ...]
    header: tuple[str, ...]
    check: Callable[[list[dict], list[str], int, list[str]], None]

    def cli_args(self, seed: int, workdir: Path, smoke: bool = False) -> list[str]:
        """Arguments after ``rankagg``; outputs (CSV and SVG) go to ``workdir``."""
        args = [self.subcommand, "--out", str(self.out_path(workdir)), "--seed", str(seed)]
        if self.name == "train":
            args += ["--data", str(workdir / "train_data.csv")]
        return args + list(self.smoke_flags if smoke else self.flags)

    def prepare(self, seed: int, workdir: Path) -> None:
        """Write the inputs the workload reads, derived from ``seed`` alone."""
        if self.name == "train":
            write_train_data(workdir / "train_data.csv", seed)

    def out_path(self, workdir: Path) -> Path:
        return workdir / f"{self.name}.csv"


_SWEEP_HEADER = (
    "experiment", "tau", "rho", "pi2_target", "pi2_emp", "method",
    "auc_label1", "auc_label2", "diff_auc", "min_auc", "runtime_ms", "seed",
)
_TRAIN_HEADER = (
    "experiment", "trial", "objective", "auc_label1", "auc_label2",
    "diff_auc", "min_auc", "final_loss", "runtime_ms", "seed",
)
_CERTIFY_HEADER = ("experiment", "K", "gap", "bound", "argument", "runtime_ms", "seed")
_TRAIN_FLAGS = ("--objective", "labelagg:absdiff", "--model", "linear", "--lr", "0.05", "--resample-pi", "0:0.85")


def write_train_data(path: Path, seed: int) -> None:
    """n=600 uniform features on [-1, 1]^2; label 1 = Bernoulli(s(6 x1)), label 2 = Bernoulli(s(2 x2))."""
    rng = np.random.default_rng([int(seed), 7])
    feats = rng.uniform(-1.0, 1.0, (TRAIN_N, 2))
    eta = 1.0 / (1.0 + np.exp(-np.column_stack([6.0 * feats[:, 0], 2.0 * feats[:, 1]])))
    labels = (rng.random(eta.shape) < eta).astype(int)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("f0,f1,y0,y1\n")
        for (x0, x1), (y0, y1) in zip(feats.tolist(), labels.tolist()):
            fh.write(f"{x0!r},{x1!r},{y0},{y1}\n")


# ------------------------------------------------------------------- checks


def _flag(args: list[str], name: str, default: str) -> str:
    return args[args.index(name) + 1] if name in args else default


def _floats(rows: list[dict], column: str) -> np.ndarray:
    return np.array([float(row[column]) for row in rows])


def _check_auc_rows(rows: list[dict], problems: list[str]) -> None:
    a1, a2 = _floats(rows, "auc_label1"), _floats(rows, "auc_label2")
    for column, values in (("auc_label1", a1), ("auc_label2", a2), ("min_auc", _floats(rows, "min_auc"))):
        if not np.all((values >= 0.0) & (values <= 1.0)):
            problems.append(f"{column} outside [0, 1]")
    if not np.allclose(_floats(rows, "diff_auc"), np.abs(a1 - a2), rtol=0.0, atol=EXACT_TOL):
        problems.append("diff_auc != |auc_label1 - auc_label2|")
    if not np.allclose(_floats(rows, "min_auc"), np.minimum(a1, a2), rtol=0.0, atol=EXACT_TOL):
        problems.append("min_auc != min(auc_label1, auc_label2)")


def _check_seeds(rows: list[dict], expected: list[int], problems: list[str]) -> None:
    if [row["seed"] for row in rows] != [str(s) for s in expected]:
        problems.append("seed column does not match the seed")


def _check_sweep(rows: list[dict], args: list[str], seed: int, problems: list[str]) -> None:
    _check_seeds(rows, [seed] * len(rows), problems)
    taus = [float(t) for t in _flag(args, "--tau", "1,5").split(",")]
    targets = [float(p) for p in _flag(args, "--pi2", "0.5,0.6,0.7,0.8,0.9,0.95").split(",")]
    expected = sorted((tau, target, method) for tau in taus for target in targets for method in ("labelagg", "lossagg"))
    got = sorted((float(r["tau"]), float(r["pi2_target"]), r["method"]) for r in rows)
    if got != expected:
        problems.append("sweep rows do not cover each (tau, pi2 target, method) once")
    pi2 = _floats(rows, "pi2_emp")
    if not np.all((pi2 >= 0.0) & (pi2 <= 1.0)):
        problems.append("pi2_emp outside [0, 1]")
    _check_auc_rows(rows, problems)


def _check_train(rows: list[dict], args: list[str], seed: int, problems: list[str]) -> None:
    trials = int(_flag(args, "--trials", "1"))
    if [r["trial"] for r in rows] != [str(t) for t in range(trials)] + ["mean", "stderr"]:
        problems.append(f"train rows are not trials 0..{trials - 1}, mean, stderr")
        return
    # trial t trains with seed + t; the summary rows carry the base seed
    _check_seeds(rows, [seed + t for t in range(trials)] + [seed, seed], problems)
    per_trial = rows[:trials]
    _check_auc_rows(per_trial, problems)
    for column in ("auc_label1", "auc_label2", "diff_auc", "min_auc"):
        values = _floats(per_trial, column)
        stderr = values.std(ddof=1) / math.sqrt(values.size) if values.size > 1 else 0.0
        if not math.isclose(float(rows[trials][column]), values.mean(), rel_tol=0.0, abs_tol=EXACT_TOL):
            problems.append(f"mean row {column} is not the mean of the trials")
        if not math.isclose(float(rows[trials + 1][column]), stderr, rel_tol=0.0, abs_tol=EXACT_TOL):
            problems.append(f"stderr row {column} is not the standard error of the trials")
    if not np.all(np.isfinite(_floats(per_trial, "final_loss"))):
        problems.append("final_loss is not finite")


def certify_closed_form(seed: int, n: int, K: int, c: float = 0.2) -> tuple[float, float]:
    """(argument, bound) of the gap bound for unit weights, recomputed independently.

    The CLI draws eta uniform in [c, 1 - c] from default_rng([seed, 20, K]).
    With unit weights both moment sums equal v_i = sum_k eta_ik (1 - eta_ik),
    so the argument is the mean over ordered pairs of (v_i + v_j)^(-1/2) and
    the bound is 2t / (1 - t), or +inf for t >= 1.
    """
    eta = np.random.default_rng([int(seed), 20, K]).uniform(c, 1.0 - c, (n, K))
    v = (eta * (1.0 - eta)).sum(axis=1)
    t = float(((v[:, None] + v[None, :]) ** -0.5).mean())
    return t, (2.0 * t / (1.0 - t) if t < 1.0 else math.inf)


def _check_certify(rows: list[dict], args: list[str], seed: int, problems: list[str]) -> None:
    _check_seeds(rows, [seed] * len(rows), problems)
    ks = sorted(int(k) for k in _flag(args, "--K", "2,4,8,16").split(","))
    if [int(r["K"]) for r in rows] != ks:
        problems.append(f"certify rows are not one per K in {ks}")
        return
    n = int(_flag(args, "--n", "5"))
    for row, K in zip(rows, ks):
        argument, bound = certify_closed_form(seed, n, K)
        if not math.isclose(float(row["argument"]), argument, rel_tol=REL_TOL, abs_tol=ABS_TOL):
            problems.append(f"K={K}: argument {row['argument']} != closed form {argument!r}")
        got_bound = float(row["bound"])
        if not (got_bound == bound or math.isclose(got_bound, bound, rel_tol=REL_TOL, abs_tol=ABS_TOL)):
            problems.append(f"K={K}: bound {row['bound']} != closed form {bound!r}")
        if not float(row["gap"]) >= -EXACT_TOL:
            problems.append(f"K={K}: negative gap {row['gap']}")


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep", "skew-sweep", (), ("--n", "2000", "--pi2", "0.5,0.9"), _SWEEP_HEADER, _check_sweep),
        Workload(
            "train",
            "train",
            _TRAIN_FLAGS + ("--epochs", "60", "--trials", "5"),
            _TRAIN_FLAGS + ("--epochs", "3", "--trials", "2"),
            _TRAIN_HEADER,
            _check_train,
        ),
        Workload(
            "certify", "bound", ("--n", "8", "--K", "2,4,8,16,20"), ("--n", "4", "--K", "2,4"), _CERTIFY_HEADER,
            _check_certify,
        ),
    )
}


def read_rows(path: Path) -> tuple[list[str], list[dict]]:
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        rows = list(reader)
    if any(len(row) != len(header) for row in rows):
        raise ValueError("a row's field count differs from the header's")
    return header, [dict(zip(header, row)) for row in rows]


def reference_rows(rows: list[dict], header) -> list[list[str]]:
    """The rows as compared with the references: every column but runtime_ms."""
    keep = [column for column in header if column != "runtime_ms"]
    return [[row[column] for column in keep] for row in rows]


def load_references(name: str) -> dict:
    path = REFERENCE_DIR / f"{name}.json"
    if not path.exists():
        return {}
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["seeds"]


def _same_value(got: str, ref: str) -> bool:
    if got == ref:
        return True
    try:
        g, r = float(got), float(ref)
    except ValueError:
        return False
    return math.isclose(g, r, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def _check_reference(got: list[list[str]], ref: list[list[str]], problems: list[str]) -> None:
    if len(got) != len(ref) or any(len(g) != len(r) for g, r in zip(got, ref)):
        problems.append("output shape differs from the reference")
        return
    for i, (g_row, r_row) in enumerate(zip(got, ref)):
        bad = [f"{g}!={r}" for g, r in zip(g_row, r_row) if not _same_value(g, r)]
        if bad:
            problems.append(f"row {i} differs from the reference: {', '.join(bad[:3])}")


def check_output(workload: Workload, seed: int, args: list[str], out_path: Path, returncode: int,
                 references: dict | None = None) -> list[str]:
    """Everything wrong with one run's output; an empty list means the run is correct.

    ``references`` maps a seed (as a string) to the reference rows of that
    seed; seeds without a reference get the structural and closed-form checks.
    """
    if returncode != 0:
        return [f"exit code {returncode}"]
    if not out_path.exists():
        return ["no output CSV"]
    try:
        header, rows = read_rows(out_path)
    except ValueError as exc:
        return [f"malformed CSV: {exc}"]
    if tuple(header) != workload.header:
        return [f"header {header} != {list(workload.header)}"]
    problems: list[str] = []
    try:
        workload.check(rows, args, seed, problems)
    except (KeyError, ValueError) as exc:
        problems.append(f"malformed output: {exc!r}")
    ref = (references or {}).get(str(seed))
    if ref is not None:
        _check_reference(reference_rows(rows, header), ref, problems)
    return problems
