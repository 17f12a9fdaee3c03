"""Smoke tests of the benchmark itself, at tiny input sizes.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import csv
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import compare  # noqa: E402
import run  # noqa: E402
from tracer import layer_metrics, self_times  # noqa: E402
from workloads import WORKLOADS, check_output, reference_rows, read_rows  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SEED = 3


def _bench(workload: str, trace: int) -> list[str]:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    return proc.stdout.splitlines()


def _cli(argv: list[str]) -> None:
    subprocess.run(argv, cwd=ROOT, env=run.CHILD_ENV, check=True, timeout=120, capture_output=True)


def _without_runtime(path: Path) -> list[list[str]]:
    header, rows = read_rows(path)
    return [header] + reference_rows(rows, header)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_end_to_end_metric_printed_with_unit(workload):
    lines = _bench(workload, 0)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    for spec in BENCHMARK["end_to_end"]:
        assert result["metrics"][spec["name"]]["unit"] == spec["unit"]
        assert result["metrics"][spec["name"]]["value"] > 0
        assert any(line.startswith(f"{workload} {spec['name']}: ") and f" {spec['unit']} " in line
                   for line in lines[:-1])
    assert set(result["metrics"]) == {spec["name"] for spec in BENCHMARK["end_to_end"]}


def test_every_per_layer_metric_printed_with_unit():
    result = json.loads(_bench("certify", 1)[-1])
    assert result["correct"] and result["failed"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        spec["name"]: spec["unit"] for spec in BENCHMARK["per_layer"]
    }


def test_self_times_of_nested_spans():
    spans = [
        {"id": 0, "parent": None, "name": "cli.main", "layer": "cli", "start": 0.0, "end": 8.0, "error": False},
        {"id": 1, "parent": 0, "name": "metrics.a", "layer": "metrics", "start": 1.0, "end": 3.0, "error": False},
        {"id": 2, "parent": 0, "name": "metrics.b", "layer": "metrics", "start": 4.0, "end": 7.0, "error": True},
        {"id": 3, "parent": 2, "name": "metrics.a", "layer": "metrics", "start": 5.0, "end": 6.0, "error": False},
    ]
    assert self_times(spans) == [3.0, 2.0, 2.0, 1.0]
    metrics = layer_metrics(spans)
    assert metrics["metrics.calls"] == 3 and metrics["metrics.errors"] == 1
    assert metrics["metrics.total_s"] == 5.0  # the nested metrics span is not counted twice
    assert metrics["metrics.self_s"] == 5.0 and metrics["cli.self_s"] == 3.0


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tracing_leaves_cli_output_unchanged(workload, tmp_path):
    spec = WORKLOADS[workload]
    plain, traced = tmp_path / "plain", tmp_path / "traced"
    for directory in (plain, traced):
        directory.mkdir()
        spec.prepare(SEED, directory)
    _cli([sys.executable, "-m", "rankagg.cli", *spec.cli_args(SEED, plain, smoke=True)])
    spans_path = tmp_path / "spans.json"
    _cli([sys.executable, str(BENCH_DIR / "tracer.py"), "--spans", str(spans_path), "--",
          *spec.cli_args(SEED, traced, smoke=True)])
    assert _without_runtime(spec.out_path(plain)) == _without_runtime(spec.out_path(traced))
    for svg in plain.glob("*.svg"):
        assert svg.read_bytes() == (traced / svg.name).read_bytes()

    spans = json.loads(spans_path.read_text(encoding="utf-8"))["spans"]
    roots = [s for s in spans if s["parent"] is None]
    assert [s["name"] for s in roots] == ["cli.main"]
    selfs = self_times(spans)
    # Self time is a difference of clock readings, so allow float rounding only.
    assert min(selfs) >= -1e-12
    assert sum(selfs) == pytest.approx(roots[0]["end"] - roots[0]["start"], rel=1e-12, abs=1e-12)
    assert len({s["layer"] for s in spans}) >= 3


def _valid_output(workload: str, directory: Path) -> tuple[list[str], Path]:
    spec = WORKLOADS[workload]
    spec.prepare(SEED, directory)
    args = spec.cli_args(SEED, directory, smoke=True)
    _cli([sys.executable, "-m", "rankagg.cli", *args])
    assert check_output(spec, SEED, args, spec.out_path(directory), 0) == []
    return args, spec.out_path(directory)


def _rewrite(path: Path, edit) -> None:
    rows = list(csv.reader(io.StringIO(path.read_text(encoding="utf-8"))))
    edit(rows)
    path.write_text("".join(",".join(row) + "\n" for row in rows), encoding="utf-8")


def _bump(rows, column: str, delta: float, row: int = 1) -> None:
    j = rows[0].index(column)
    rows[row][j] = repr(float(rows[row][j]) + delta)


@pytest.mark.parametrize(
    "workload, edit",
    [
        ("sweep", lambda rows: _bump(rows, "auc_label1", 0.01)),
        ("sweep", lambda rows: rows.pop()),
        ("train", lambda rows: _bump(rows, "auc_label2", -0.001)),
        ("train", lambda rows: _bump(rows, "diff_auc", 0.001, row=3)),
        ("certify", lambda rows: _bump(rows, "argument", 1e-6)),
        ("certify", lambda rows: _bump(rows, "gap", -0.01)),
    ],
)
def test_corrupted_csv_is_a_failure(workload, edit, tmp_path):
    args, out = _valid_output(workload, tmp_path)
    _rewrite(out, edit)
    assert check_output(WORKLOADS[workload], SEED, args, out, 0) != []


def test_reference_tolerance(tmp_path):
    spec = WORKLOADS["certify"]
    args, out = _valid_output("certify", tmp_path)
    header, rows = read_rows(out)
    reference = reference_rows(rows, header)
    j = [c for c in header if c != "runtime_ms"].index("argument")
    for delta, ok in ((1e-13, True), (1e-6, False)):
        shifted = [list(row) for row in reference]
        shifted[0][j] = repr(float(shifted[0][j]) + delta)
        assert (check_output(spec, SEED, args, out, 0, {str(SEED): shifted}) == []) is ok
    assert check_output(spec, SEED, args, out, 3) == ["exit code 3"]


class _CorruptingChild:
    """Stands in for run.Child: the CLI 'succeeds' but writes a corrupted CSV."""

    source: Path

    def __init__(self, argv, log_path, timeout):
        self.returncode, self.wall_s, self.peak_rss_mb, self.log = 0, 0.5, 100.0, ""
        if "rankagg.cli" in argv:
            out = Path(argv[argv.index("--out") + 1])
            text = self.source.read_text(encoding="utf-8")
            out.write_text(text.replace("bound,2,", "bound,3,", 1), encoding="utf-8")


def test_corrupted_run_is_counted_as_failed(tmp_path, monkeypatch):
    _, good = _valid_output("certify", tmp_path)
    monkeypatch.setattr(_CorruptingChild, "source", good, raising=False)
    monkeypatch.setattr(run, "Child", _CorruptingChild)
    workdir = tmp_path / "work"
    workdir.mkdir()
    bench = run.Run(WORKLOADS["certify"], SEED, 0.0, False, True, workdir, tmp_path / "spans.json")
    bench.execute()
    assert bench.attempted == 2  # one workload run and one import run
    assert bench.failed == 1 and bench.problems


def test_compare_verdicts():
    same = [(1.0 + 0.01 * i, 1.0 + 0.01 * i) for i in range(10)]
    faster = [(1.0 + 0.01 * i, 0.8 + 0.01 * i) for i in range(10)]
    slower = [(1.0 + 0.01 * i, 1.3 + 0.01 * i) for i in range(10)]
    noisy = [(v, v) for v in (0.5, 1.5, 0.6, 1.4, 0.7, 1.3, 0.8, 1.2, 0.9, 1.1)]
    assert compare.verdict(same, "lower", 0.2)[0] == "unchanged"
    assert compare.verdict(faster, "lower", 0.2)[0] == "improved"
    assert compare.verdict(faster[:9], "lower", 0.2)[0] == "unchanged"  # too few pairs to claim a gain
    assert compare.verdict(faster, "lower", 0.2, alternating=False)[0] == "unchanged"
    assert compare.verdict(faster, "lower", 0.2, more_failures=True)[0] == "unchanged"
    assert compare.verdict(slower, "lower", 0.2)[0] == "worse"
    assert compare.verdict(noisy, "lower", 0.2)[0] == "unresolved"
    assert compare.verdict(slower, "lower", None)[0] == "worse"


def test_refuses_to_run_without_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in BENCH_DIR.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
