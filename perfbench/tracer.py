"""Outside-in span tracing of the rankagg modules.

The tracer wraps every public function named in each layer module's
``__all__`` and rebinds the wrapper in every ``rankagg`` namespace that
holds the original, so ``from .metrics import auc_report`` inside ``cli``
and ``surrogate`` is traced too. Each call records one span (name, layer,
start, end, parent, error flag and the run's trace id); spans stay in
memory and are written out once, when the run ends. The program itself is
not modified.

Run as a script, it executes one CLI run traced and writes the spans:

    PYTHONPATH=src python perfbench/tracer.py --spans spans.json -- bound --out b.csv --n 5

Spans are kept on one stack, so the traced run must be single-threaded
(``RANKAGG_THREADS`` unset), which the benchmark guarantees.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import inspect
import json
import sys
import time
import uuid

LAYERS = ("cli", "synthgen", "bayes", "metrics", "core", "oracle", "bound", "surrogate", "dataio", "svgplot")

# Entry points whose inclusive time is reported on its own, besides the layers.
ENTRY_POINTS = (
    "metrics.auc_report",
    "metrics.population_pair_weights",
    "oracle.certify_bayes",
    "core.aggregate_distribution",
    "surrogate.train",
)


class Tracer:
    """Collects spans from wrapped functions; one instance per traced run."""

    def __init__(self, trace_id: str | None = None):
        self.trace_id = trace_id or uuid.uuid4().hex
        self.spans: list = []
        self._stack: list[int] = []

    def wrap(self, fn, layer: str, name: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            error = False
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                error = True
                raise
            finally:
                end = clock()
                stack.pop()
                spans[span_id] = (name, layer, start, end, parent, error)

        return traced

    def install(self) -> int:
        """Wrap the public functions of each layer; return how many were wrapped."""
        importlib.import_module("rankagg.cli")
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"rankagg.{layer}")
            for attr in module.__all__:
                fn = getattr(module, attr)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    wrappers[fn] = self.wrap(fn, layer, f"{layer}.{attr}")
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "rankagg" or mod_name.startswith("rankagg.")):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(module, attr, wrappers[value])
        return len(wrappers)

    def records(self) -> list[dict]:
        keys = ("name", "layer", "start", "end", "parent", "error")
        return [
            {"id": i, "trace_id": self.trace_id, **dict(zip(keys, span))}
            for i, span in enumerate(self.spans)
            if span is not None
        ]

    def dump(self, path, **extra) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**extra, "spans": self.records()}, fh)


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    out = []
    for span in spans:
        covered, reach = 0.0, span["start"]
        for start, end in sorted(children.get(span["id"], ())):
            start, end = max(start, reach), min(end, span["end"])
            if end > start:
                covered += end - start
                reach = end
        out.append(span["end"] - span["start"] - covered)
    return out


def _outermost(spans: list[dict], key: str) -> list[dict]:
    """Spans with no ancestor that shares their ``key`` (so recursion is not counted twice)."""
    by_id = {span["id"]: span for span in spans}
    out = []
    for span in spans:
        parent = span["parent"]
        while parent is not None and by_id[parent][key] != span[key]:
            parent = by_id[parent]["parent"]
        if parent is None:
            out.append(span)
    return out


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer calls, inclusive and self seconds and errors, plus entry-point inclusive seconds."""
    selfs = self_times(spans)
    metrics: dict[str, float] = {}
    for layer in LAYERS:
        mine = [i for i, span in enumerate(spans) if span["layer"] == layer]
        metrics[f"{layer}.calls"] = len(mine)
        metrics[f"{layer}.total_s"] = sum(
            span["end"] - span["start"] for span in _outermost(spans, "layer") if span["layer"] == layer
        )
        metrics[f"{layer}.self_s"] = sum(selfs[i] for i in mine)
        metrics[f"{layer}.errors"] = sum(1 for i in mine if spans[i]["error"])
    outer_by_name = _outermost(spans, "name")
    for name in ENTRY_POINTS:
        metrics[f"{name}.total_s"] = sum(span["end"] - span["start"] for span in outer_by_name if span["name"] == name)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="run one rankagg CLI command with every layer traced")
    parser.add_argument("--spans", required=True, help="JSON file the spans are written to")
    parser.add_argument("--trace-id", help="identifier shared by the spans of this run")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER, help="-- then the rankagg CLI arguments")
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args
    tracer = Tracer(args.trace_id)
    wrapped = tracer.install()
    from rankagg import cli

    code = cli.main(cli_args)
    tracer.dump(args.spans, argv=cli_args, wrapped_functions=wrapped, exit_code=code)
    return code


if __name__ == "__main__":
    sys.exit(main())
