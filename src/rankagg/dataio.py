"""Dataset and result CSV I/O.

Dataset schema: header row with feature columns f0..f{d-1} (decimal
floats, '.' separator) followed by label columns y0..y{K-1} (0/1);
UTF-8, LF line endings. csv writes floats with repr, so a round trip
reproduces the exact same doubles.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from .core import InstanceSet, SampledLabels

__all__ = ["write_dataset", "read_dataset", "write_rows"]


def write_rows(path, header: list[str], rows) -> None:
    """Write the header, then rows: any iterable of sequences of str, int or float cells.

    csv writes each cell as it is: a float (numpy float64 included) as its
    repr, an int (numpy int64 included) as its digits, and a str quoted
    where it holds a comma or a quote.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_dataset(path, instances: InstanceSet, labels: SampledLabels) -> None:
    if instances.n != labels.n:
        raise ValueError("feature and label row counts differ")
    header = [f"f{i}" for i in range(instances.d)] + [f"y{k}" for k in range(labels.K)]
    rows = (f + y for f, y in zip(instances.features.tolist(), labels.labels.tolist()))
    write_rows(path, header, rows)


def read_dataset(path) -> tuple[InstanceSet, SampledLabels]:
    path = Path(path)
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        f_cols = [i for i, name in enumerate(header) if name.startswith("f")]
        y_cols = [i for i, name in enumerate(header) if name.startswith("y")]
        expected = [f"f{i}" for i in range(len(f_cols))] + [f"y{k}" for k in range(len(y_cols))]
        if not f_cols or not y_cols or header != expected:
            raise ValueError(f"{path}: header must be f0..f{{d-1}},y0..y{{K-1}}, got {header}")
        feats, labs = [], []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise ValueError(f"{path}:{lineno}: expected {len(header)} fields")
            try:
                feats.append([float(row[i]) for i in f_cols])
                labs.append([int(row[i]) for i in y_cols])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            if any(v not in (0, 1) for v in labs[-1]):
                raise ValueError(f"{path}:{lineno}: labels must be 0 or 1")
    if not feats:
        raise ValueError(f"{path}: no data rows")
    return InstanceSet(np.array(feats)), SampledLabels(np.array(labs))
