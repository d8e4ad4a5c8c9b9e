"""Dataset files, dense CSV and sparse index:value text, and the output directory.

Both loaders assign ids by row order (0-based, header excluded) and densify
to the shared FeatureMatrix type. Parse failures name the offending line.
"""
from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

from ..data import FeatureMatrix


def _parse_error(path, line_no: int, msg: str) -> ValueError:
    return ValueError(f"{path}:{line_no}: {msg}")


def _parse_label(token: str, path, line_no: int) -> int:
    try:
        value = float(token)
    except ValueError:
        raise _parse_error(path, line_no, f"label {token!r} is not a number") from None
    if value not in (0.0, 1.0):
        raise _parse_error(path, line_no, f"label must be 0 or 1, got {token!r}")
    return int(value)


def load_dense_csv(path: str | Path) -> FeatureMatrix:
    """Header row, one sample per line, last column is the 0/1 label."""
    rows: list[list[float]] = []
    labels: list[int] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise _parse_error(path, 1, "empty file, expected a header row") from None
        width = len(header) - 1
        if width < 1:
            raise _parse_error(path, 1, "header must name at least one feature and the label")
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != width + 1:
                raise _parse_error(
                    path, line_no, f"expected {width + 1} columns, found {len(row)}"
                )
            try:
                values = [float(v) for v in row[:-1]]
            except ValueError:
                raise _parse_error(path, line_no, "non-numeric feature value") from None
            if not all(map(math.isfinite, values)):
                raise _parse_error(path, line_no, "non-finite feature value")
            rows.append(values)
            labels.append(_parse_label(row[-1], path, line_no))
    if not rows:
        raise _parse_error(path, 2, "no data rows")
    return FeatureMatrix.from_arrays(np.asarray(rows), np.asarray(labels))


def load_sparse(path: str | Path, n_features: int | None = None) -> FeatureMatrix:
    """One sample per line: ``label idx:val idx:val ...``.

    Indices are 0-based and must be strictly ascending within a line. Width
    is the declared n_features, or one past the highest index seen.
    """
    entries: list[tuple[int, list[tuple[int, float]]]] = []
    max_idx = -1
    with open(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            tokens = line.split()
            if not tokens:
                continue
            label = _parse_label(tokens[0], path, line_no)
            pairs: list[tuple[int, float]] = []
            prev = -1
            for tok in tokens[1:]:
                idx_s, _, val_s = tok.partition(":")
                try:
                    idx = int(idx_s)
                    val = float(val_s)
                except ValueError:
                    raise _parse_error(path, line_no, f"malformed entry {tok!r}") from None
                if not math.isfinite(val):
                    raise _parse_error(path, line_no, "non-finite feature value")
                if idx < 0:
                    raise _parse_error(path, line_no, f"negative feature index {idx}")
                if idx <= prev:
                    raise _parse_error(
                        path, line_no, f"feature indices must be strictly ascending, got {idx} after {prev}"
                    )
                prev = idx
                pairs.append((idx, val))
            max_idx = max(max_idx, prev)
            entries.append((label, pairs))
    if not entries:
        raise _parse_error(path, 1, "no data rows")
    width = n_features if n_features is not None else max_idx + 1
    if width < max_idx + 1:
        raise ValueError(
            f"{path}: declared n_features {width} is below the highest index {max_idx}"
        )
    width = max(width, 1)
    values = np.zeros((len(entries), width))
    labels = np.empty(len(entries), dtype=np.int64)
    for row, (label, pairs) in enumerate(entries):
        labels[row] = label
        for idx, val in pairs:
            values[row, idx] = val
    return FeatureMatrix.from_arrays(values, labels)


DATA_FORMATS = ("dense", "sparse")


def load_file(path: str | Path, fmt: str, n_features: int | None = None) -> FeatureMatrix:
    """A labeled dataset file in one of DATA_FORMATS. A sparse file is read at
    n_features columns when given; a dense file carries its own width."""
    if fmt not in DATA_FORMATS:
        raise ValueError(f"data format must be one of {DATA_FORMATS}, got {fmt!r}")
    return load_dense_csv(path) if fmt == "dense" else load_sparse(path, n_features)


def write_dense_csv(data: FeatureMatrix, path: str | Path) -> None:
    """Inverse of load_dense_csv; feature columns named f0..fN-1."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"f{i}" for i in range(data.n_features)] + ["label"])
        for row, label in zip(data.values, data.labels):
            writer.writerow([repr(float(v)) for v in row] + [int(label)])


def output_dir(path: str | Path) -> Path:
    """path, created with its parents if missing: the directory a command writes into."""
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out
