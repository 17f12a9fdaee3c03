"""Per-layer timings of rankagg kernels, written to a BENCH_*.json file.

Each case is timed in this process after one warm-up call; a case records
the median and quartiles of its repeats. Cases:

- ``auc_report_k2_n<n>``: ``metrics.auc_report`` of tie-free scores against
  two sampled 0/1 labels, n in {1e3, 1e5, 1e6}; seconds per call, over
  1e6 / n calls per repeat;
- ``solve_rho_default_sweep_n100000``: ``cli._solve_rho_for_pi2`` for the
  twelve (tau, pi2) points of ``skew-sweep`` at its defaults (seed 0);
  seconds for all twelve.

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
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
SWEEP_TAUS = (1.0, 5.0)
SWEEP_TARGETS = (0.5, 0.6, 0.7, 0.8, 0.9, 0.95)
REPEATS = 7


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


def _timings(fn, number: int, repeats: int) -> dict:
    """Seconds per call of fn: median and quartiles over repeats of number calls."""
    fn()
    per_call = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(number):
            fn()
        per_call.append((time.perf_counter() - start) / number)
    q1, median, q3 = statistics.quantiles(per_call, n=4, method="inclusive")
    return {"median_s": statistics.median(per_call), "q1_s": q1, "q3_s": q3,
            "repeats": repeats, "calls_per_repeat": number}


def measure() -> dict:
    """Timings of every case, keyed by case name."""
    from rankagg import SampledLabels, SigmoidSynthConfig, gen_sigmoid_pair
    from rankagg.cli import _solve_rho_for_pi2
    from rankagg.metrics import auc_report

    rng = np.random.default_rng(0)
    cases = {}
    for n in (1_000, 100_000, 1_000_000):
        scores = rng.standard_normal(n)
        labels = SampledLabels(rng.integers(0, 2, (n, 2)))
        cases[f"auc_report_k2_n{n}"] = _timings(
            lambda: auc_report(scores, labels), number=1_000_000 // n, repeats=REPEATS
        )
    feats = gen_sigmoid_pair(SigmoidSynthConfig(100_000, 1.0, 0.0, 0)).instances.features

    def sweep_solves():
        for tau in SWEEP_TAUS:
            for target in SWEEP_TARGETS:
                _solve_rho_for_pi2(feats, tau, target)

    cases["solve_rho_default_sweep_n100000"] = _timings(sweep_solves, number=1, repeats=REPEATS)
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
        "cases": measure(),
    }
    data = json.loads(args.out.read_text()) if args.out.exists() else {"runs": {}}
    data["runs"][args.label] = record
    args.out.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    for name, case in record["cases"].items():
        print(f"{args.label:>8} {name:<34} {case['median_s'] * 1e3:10.3f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
