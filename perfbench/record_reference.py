"""Record reference outputs of the benchmark workloads for a range of seeds.

    python3 perfbench/record_reference.py --workload sweep --seeds 0-63

Runs the workload once per seed, exactly as the benchmark does, checks the
output's structure and closed forms, and stores every column except
``runtime_ms`` in ``perfbench/reference/<workload>.json``. Later runs of
the benchmark compare their outputs with these rows (see
``workloads.check_output`` for the tolerance). Record only at a commit
whose outputs are known to be right.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

from run import ROOT, SCRATCH_DIR, Child, git_commit
from workloads import ABS_TOL, REFERENCE_DIR, REL_TOL, WORKLOADS, check_output, read_rows, reference_rows


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seeds", required=True, type=parse_seeds, help="e.g. 0-63 or 0,5,9")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    path = REFERENCE_DIR / f"{workload.name}.json"
    record = {"workload": workload.name, "seeds": {}}
    if path.exists():
        record = json.loads(path.read_text(encoding="utf-8"))
    SCRATCH_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="reference-", dir=SCRATCH_DIR))
    try:
        for seed in args.seeds:
            workload.prepare(seed, workdir)
            cli_args = workload.cli_args(seed, workdir)
            out = workload.out_path(workdir)
            child = Child([sys.executable, "-m", "rankagg.cli", *cli_args], workdir / "child.log", 600.0)
            problems = check_output(workload, seed, cli_args, out, child.returncode)
            if problems:
                print(f"seed {seed}: {problems}\n{child.log}", file=sys.stderr)
                return 1
            header, rows = read_rows(out)
            record["seeds"][str(seed)] = reference_rows(rows, header)
            print(f"seed {seed}: {len(rows)} rows, {child.wall_s:.2f} s", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record.update(
        columns=[c for c in workload.header if c != "runtime_ms"],
        commit=git_commit(),
        tolerance={"abs": ABS_TOL, "rel": REL_TOL},
        argv_template=["rankagg", *workload.cli_args("<seed>", Path("<workdir>"))],
    )
    seeds = dict(sorted(record.pop("seeds").items(), key=lambda kv: int(kv[0])))
    REFERENCE_DIR.mkdir(exist_ok=True)
    lines = [f"{json.dumps(seed)}: {json.dumps(rows)}" for seed, rows in seeds.items()]
    head = json.dumps(record, indent=1)[:-2]  # one seed per line keeps diffs readable
    path.write_text(head + ',\n "seeds": {\n' + ",\n".join(lines) + "\n }\n}\n", encoding="utf-8")
    print(f"wrote {path.relative_to(ROOT)} with {len(seeds)} seeds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
