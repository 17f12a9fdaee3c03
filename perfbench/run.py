"""rankagg benchmark: end-to-end CLI timings and an outside-in per-module trace.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 24 --trace 1

Every timed run is a ``rankagg`` subcommand in a fresh interpreter
(``python -m rankagg.cli``, ``PYTHONPATH=src``, ``RANKAGG_THREADS`` unset,
plots on), so import cost counts as users pay it. Runs are sequential, one
at a time (a closed loop with one client). One untimed warm-up run of the
workload fills the bytecode caches first; then runs repeat until
``--seconds`` have passed, and the median of the repeats is reported.

``--trace 0`` reports, all measured untraced:
  wall_s       spawn-to-exit wall time of the subcommand, import included;
  setup_s      wall time of ``python -c "import rankagg.cli"``, measured
               SETUP_REPEATS times between workload runs;
  peak_rss_mb  the child's own peak RSS, from ``os.wait4``.

``--trace 1`` alternates untraced runs with runs of ``perfbench/tracer.py``,
which wraps each layer module's public functions and writes spans to a
file. It reports per layer ``<layer>.calls``, ``.total_s``, ``.self_s`` and
``.errors``, the inclusive time of a few entry points, and
``trace.overhead_frac`` (median traced over median untraced wall time,
minus one).

Every timed run's output is checked (see ``workloads.check_output``); a
run that fails a check counts as a failed operation. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. A results file with every sample, the machine
and the exact child command goes to ``perfbench/results/``; ``compare.py``
compares such files from two commits.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import uuid
from importlib import metadata
from pathlib import Path

from tracer import layer_metrics
from workloads import WORKLOADS, check_output, load_references

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS_DIR = BENCH_DIR / "results"
SCRATCH_DIR = BENCH_DIR / "out"

SETUP_REPEATS = 3
# The whole run, warm-up included, ends well inside three minutes; a child
# still running at the deadline is killed and counted as failed.
DEADLINE_S = 165.0

CHILD_ENV = {"PATH": os.environ.get("PATH", ""), "PYTHONPATH": "src"}
SETUP_ARGV = [sys.executable, "-c", "import rankagg.cli"]

UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "trace.overhead_frac": "ratio"}


class Child:
    """One child process: wall time from spawn to exit and its own peak RSS."""

    def __init__(self, argv: list[str], log_path: Path, timeout: float):
        with open(log_path, "wb") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=CHILD_ENV, stdin=subprocess.DEVNULL, stdout=log, stderr=log)
            watchdog = threading.Timer(max(timeout, 0.0), proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                watchdog.cancel()
            self.wall_s = time.perf_counter() - start
        proc.returncode = self.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_mb = usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux
        self.log = log_path.read_text(encoding="utf-8", errors="replace")[-2000:]


def summary(values: list[float]) -> dict:
    """Median, quartiles and sample count of one metric's repeats."""
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"value": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git directly; None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": sys.version,
        "python_executable": sys.executable,
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
    }


class Run:
    """One benchmark run of one workload and seed."""

    def __init__(self, workload, seed: int, seconds: float, trace: bool, smoke: bool, workdir: Path,
                 spans_copy: Path):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.workdir, self.spans_copy = workdir, spans_copy
        self.cli_args = workload.cli_args(seed, workdir, smoke)
        self.argv = [sys.executable, "-m", "rankagg.cli", *self.cli_args]
        self.references = None if smoke else load_references(workload.name)
        self.deadline = time.perf_counter() + DEADLINE_S
        self.samples: dict[str, list[float]] = {}
        self.layer_samples: list[dict[str, float]] = []
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self._count = 0

    def _child(self, argv: list[str]) -> Child:
        self._count += 1
        return Child(argv, self.workdir / f"child-{self._count}.log", self.deadline - time.perf_counter())

    def _workload_child(self, argv: list[str], timed: bool = True) -> Child:
        out = self.workload.out_path(self.workdir)
        out.unlink(missing_ok=True)
        child = self._child(argv)
        problems = check_output(self.workload, self.seed, self.cli_args, out, child.returncode, self.references)
        if timed:
            self.attempted += 1
            self.failed += bool(problems)
            self.problems += [f"run {self._count}: {p}" for p in problems]
        elif problems:
            print(f"warm-up run: {problems[0]}", file=sys.stderr)
        if problems:
            print(child.log, file=sys.stderr)
        return child

    def _add(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def _traced(self) -> tuple[float, dict[str, float]]:
        spans_path = self.workdir / f"spans-{self._count + 1}.json"
        trace_id = f"{self.workload.name}-{self.seed}-{uuid.uuid4().hex[:12]}"
        argv = [sys.executable, str(BENCH_DIR / "tracer.py"), "--spans", str(spans_path), "--trace-id", trace_id,
                "--", *self.cli_args]
        child = self._workload_child(argv)
        if child.returncode != 0 or not spans_path.exists():
            return child.wall_s, {}
        with open(spans_path, encoding="utf-8") as fh:
            spans = json.load(fh)["spans"]
        shutil.copyfile(spans_path, self.spans_copy)
        return child.wall_s, layer_metrics(spans)

    def execute(self) -> None:
        self.workload.prepare(self.seed, self.workdir)
        self._workload_child(self.argv, timed=False)
        start = time.perf_counter()
        while True:
            child = self._workload_child(self.argv)
            self._add("wall_s", child.wall_s)
            self._add("peak_rss_mb", child.peak_rss_mb)
            if self.trace:
                wall, layers = self._traced()
                self._add("traced_wall_s", wall)
                if layers:
                    self.layer_samples.append(layers)
            elif len(self.samples.get("setup_s", ())) < SETUP_REPEATS:
                setup = self._child(SETUP_ARGV)
                self.attempted += 1
                if setup.returncode != 0:
                    self.failed += 1
                    self.problems.append(f"run {self._count}: import exited {setup.returncode}")
                self._add("setup_s", setup.wall_s)
            if time.perf_counter() - start >= self.seconds or time.perf_counter() > self.deadline:
                break

    def metrics(self) -> dict[str, dict]:
        out = {}
        if self.trace:
            names = self.layer_samples[0] if self.layer_samples else {}
            for name in names:
                unit = "count" if name.endswith((".calls", ".errors")) else "s"
                out[name] = {**summary([layers[name] for layers in self.layer_samples]), "unit": unit}
            if self.layer_samples:
                traced = statistics.median(self.samples["traced_wall_s"])
                ratio = traced / statistics.median(self.samples["wall_s"]) - 1.0
                out["trace.overhead_frac"] = {"value": ratio, "n": len(self.samples["traced_wall_s"]),
                                              "unit": UNITS["trace.overhead_frac"]}
        else:
            for name in ("wall_s", "setup_s", "peak_rss_mb"):
                out[name] = {**summary(self.samples[name]), "unit": UNITS[name]}
        return out


def run_workload(workload, seed: int, seconds: float, trace: int, smoke: bool) -> dict:
    """Run, check and report one workload; return the result object for the last line."""
    SCRATCH_DIR.mkdir(exist_ok=True)
    RESULTS_DIR.mkdir(exist_ok=True)
    started = time.time()
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime(started))
    stem = RESULTS_DIR / f"{workload.name}-seed{seed}-trace{trace}-{stamp}-{os.getpid()}"
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=SCRATCH_DIR))
    run = Run(workload, seed, seconds, bool(trace), smoke, workdir, stem.with_suffix(".spans.json"))
    try:
        run.execute()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics = run.metrics()
    result = {"correct": run.failed == 0 and bool(metrics), "attempted": run.attempted, "failed": run.failed,
              "metrics": {name: {"value": m["value"], "unit": m["unit"]} for name, m in metrics.items()}}
    record = {
        "workload": workload.name,
        "seed": seed,
        "trace": trace,
        "seconds": seconds,
        "smoke": smoke,
        "started_at": started,
        "finished_at": time.time(),
        "commit": git_commit(),
        "machine": machine(),
        "child": {"argv": run.argv, "env": CHILD_ENV, "unset": ["RANKAGG_THREADS"], "cwd": "."},
        "setup_argv": SETUP_ARGV,
        "samples": run.samples,
        "metrics": metrics,
        "problems": run.problems,
        **{k: result[k] for k in ("correct", "attempted", "failed")},
    }
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    for problem in run.problems:
        print(f"FAILED {workload.name} {problem}")
    for name, m in metrics.items():
        spread = f" (q1 {m['q1']:.6g}, q3 {m['q3']:.6g}, n={m['n']})" if "q1" in m else f" (n={m['n']})"
        print(f"{workload.name} {name}: {m['value']:.6g} {m['unit']}{spread}", flush=True)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*sorted(WORKLOADS), "all"],
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="how long the repeats run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny input sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "rankagg" / "cli.py").is_file():
        print(f"error: no rankagg sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    if args.workload != "all":
        result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, args.trace, args.smoke)
        print(json.dumps(result))
        return 0
    # All workloads: metric names are prefixed with the workload's name.
    results = {name: run_workload(w, args.seed, args.seconds, args.trace, args.smoke) for name, w in WORKLOADS.items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{name}": m for w, r in results.items() for name, m in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
