"""Compare benchmark results of two commits, one verdict per (metric, workload).

    python3 perfbench/compare.py PARENT_RESULTS_DIR CHANGE_RESULTS_DIR

Each directory holds the ``perfbench/results/*.json`` files of one commit.
Runs pair up by workload, trace mode and seed, so run both commits on the
same seeds, alternating which commit runs first, for example:

    for seed in $(seq 1 10); do
      first=parent; second=change
      [ $((seed % 2)) = 0 ] && first=change && second=parent
      for side in $first $second; do
        (cd "$side" && python3 perfbench/run.py --workload sweep --seed $seed --seconds 24 --trace 0)
      done
    done

Verdicts, with the bounds and directions of ``BENCHMARK.json``:

- ``worse``: the change's median is worse than the parent's by more than
  the metric's bound (metrics without a bound: the improved rule, mirrored);
- ``improved``: at least MIN_PAIRS pairs, alternating which side ran first,
  the change wins at least 9/10 of them (ties count for neither), the medians
  differ by more than the parent's interquartile spread, and the change
  failed no more operations than the parent;
- ``unresolved``: not worse, not improved, and the parent's own spread is
  wider than the bound, unless every change run beats every parent run;
- ``unchanged``: otherwise.

The exit code is 1 when any row is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_results(directory: Path) -> dict[tuple, list[dict]]:
    """Results files grouped by (workload, trace), each group in start order."""
    groups: dict[tuple, list[dict]] = {}
    for path in sorted(directory.glob("*.json")):
        if path.name.endswith(".spans.json"):
            continue
        record = json.loads(path.read_text(encoding="utf-8"))
        groups.setdefault((record["workload"], record["trace"]), []).append(record)
    for records in groups.values():
        records.sort(key=lambda r: r["started_at"])
    return groups


def pair_runs(parent: list[dict], change: list[dict]) -> list[tuple[dict, dict]]:
    """Pair runs with the same seed, in start order; unmatched runs are dropped."""
    pending: dict[int, list[dict]] = {}
    for record in change:
        pending.setdefault(record["seed"], []).append(record)
    pairs = []
    for record in parent:
        if pending.get(record["seed"]):
            pairs.append((record, pending[record["seed"]].pop(0)))
    return pairs


def _spread(values: list[float]) -> float:
    if len(values) < 2:
        return float("inf")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def verdict(pairs: list[tuple[float, float]], better: str, bound: float | None,
            alternating: bool = True, more_failures: bool = False) -> tuple[str, dict]:
    """Verdict for one metric on one workload from (parent, change) value pairs."""
    sign = 1.0 if better == "lower" else -1.0
    parent = [p for p, _ in pairs]
    change = [c for _, c in pairs]
    p_med, c_med = statistics.median(parent), statistics.median(change)
    gain = sign * (p_med - c_med)  # > 0 when the change is better
    spread = _spread(parent)
    wins = sum(sign * (p - c) > 0 for p, c in pairs)
    losses = sum(sign * (p - c) < 0 for p, c in pairs)
    facts = {"pairs": len(pairs), "wins": wins, "losses": losses, "parent_median": p_med,
             "change_median": c_med, "parent_iqr": spread}
    enough = len(pairs) >= MIN_PAIRS and alternating
    if bound is not None and -gain > bound * abs(p_med):
        return "worse", facts
    if bound is None and enough and losses >= WIN_SHARE * len(pairs) and -gain > spread:
        return "worse", facts
    if enough and wins >= WIN_SHARE * len(pairs) and gain > spread and not more_failures:
        return "improved", facts
    if bound is not None and spread > bound * abs(p_med):
        all_better = all(sign * (p - c) > 0 for p in parent for c in change)
        if not all_better:
            return "unresolved", facts
    return "unchanged", facts


def compare(parent_dir: Path, change_dir: Path, benchmark: dict) -> list[dict]:
    specs = {m["name"]: m for m in benchmark["end_to_end"] + benchmark["per_layer"]}
    parent_groups, change_groups = load_results(parent_dir), load_results(change_dir)
    rows = []
    for key in sorted(parent_groups.keys() & change_groups.keys()):
        runs = pair_runs(parent_groups[key], change_groups[key])
        if not runs:
            continue
        parent_first = sum(p["started_at"] < c["started_at"] for p, c in runs)
        alternating = abs(2 * parent_first - len(runs)) <= 1
        more_failures = sum(c["failed"] for _, c in runs) > sum(p["failed"] for p, _ in runs)
        for name, spec in specs.items():
            values = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
                      for p, c in runs if name in p["metrics"] and name in c["metrics"]]
            if not values:
                continue
            result, facts = verdict(values, spec["better"], spec.get("bound"), alternating, more_failures)
            rows.append({"workload": key[0], "metric": name, "verdict": result,
                         "parent_first": parent_first, **facts})
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", type=Path, help="results directory of the parent commit")
    parser.add_argument("change", type=Path, help="results directory of the change")
    args = parser.parse_args(argv)
    benchmark = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    rows = compare(args.parent, args.change, benchmark)
    if not rows:
        print("no paired runs: run both commits on the same workloads and seeds", file=sys.stderr)
        return 2
    print(f"{'workload':<9} {'metric':<40} {'parent':>12} {'change':>12} {'iqr':>10} {'wins':>6}  verdict")
    for r in rows:
        print(f"{r['workload']:<9} {r['metric']:<40} {r['parent_median']:>12.6g} {r['change_median']:>12.6g} "
              f"{r['parent_iqr']:>10.3g} {r['wins']:>3}/{r['pairs']:<2}  {r['verdict']}")
    short = sorted({(r["workload"], r["pairs"], r["parent_first"]) for r in rows})
    for workload, pairs, first in short:
        if pairs < MIN_PAIRS or abs(2 * first - pairs) > 1:
            print(f"note: {workload}: {pairs} pairs, parent ran first in {first}; "
                  f"'improved' needs >= {MIN_PAIRS} alternating pairs")
    return 1 if any(r["verdict"] == "worse" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
