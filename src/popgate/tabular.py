"""CSV reading/writing for the pipeline's tabular artifacts.

All files are UTF-8 CSV with a header row. Floats are written with repr(),
which round-trips exactly in float64 — rewriting unchanged data yields
byte-identical files, which the reproducibility guarantees lean on.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .exceptions import MissingInputError, PopgateError

KEY_COLUMN = "track_id"


def _cell(value) -> str:
    # np.float64 subclasses float, so convert before repr to dodge numpy's
    # "np.float64(...)" wrapper
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def _write_rows(path: str | Path, header: Sequence[str], rows: Iterable[Sequence[str]]) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    _write_rows(path, header, ([_cell(v) for v in row] for row in rows))


def read_csv(path: str | Path) -> tuple[list[str], list[list[str]]]:
    path = Path(path)
    if not path.exists():
        raise MissingInputError(f"input file not found: {path}")
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise PopgateError(f"{path} is empty (no header row)")
        return header, [row for row in reader]


def read_columns(path: str | Path, names: Sequence[str]) -> dict[str, list[str]]:
    """Pull named columns as string lists, preserving row order."""
    header, rows = read_csv(path)
    missing = [n for n in names if n not in header]
    if missing:
        raise PopgateError(f"{path} lacks columns {missing}; has {header}")
    idx = {n: header.index(n) for n in names}
    return {n: [row[i] for row in rows] for n, i in idx.items()}


def write_matrix_csv(
    path: str | Path, ids: Sequence[str], feature_names: Sequence[str], X: np.ndarray
) -> None:
    X = np.asarray(X)
    if X.shape != (len(ids), len(feature_names)):
        raise PopgateError(
            f"matrix shape {X.shape} does not match {len(ids)} ids x {len(feature_names)} names"
        )
    # tolist() yields Python scalars, whose repr() is what _cell writes
    _write_rows(
        path,
        [KEY_COLUMN, *feature_names],
        ([tid, *map(repr, row.tolist())] for tid, row in zip(ids, X)),
    )


def read_matrix_csv(path: str | Path) -> tuple[list[str], list[str], np.ndarray]:
    """Read a track_id-keyed numeric table -> (ids, feature_names, float64 matrix).
    Every cell must be a finite number."""
    header, rows = read_csv(path)
    if not header or header[0] != KEY_COLUMN:
        raise PopgateError(f"{path}: first column must be {KEY_COLUMN!r}, got {header[:1]}")
    names = header[1:]
    ids = []
    data = np.empty((len(rows), len(names)), dtype=np.float64)
    for r, row in enumerate(rows):
        if len(row) != len(header):
            raise PopgateError(f"{path} row {r + 2}: expected {len(header)} cells, got {len(row)}")
        ids.append(row[0])
        for c, cell in enumerate(row[1:]):
            try:
                data[r, c] = float(cell)
            except ValueError:
                raise PopgateError(f"{path} row {r + 2}, column {names[c]!r}: not a number: {cell!r}")
    bad = np.argwhere(~np.isfinite(data))
    if bad.size:
        r, c = bad[0]
        raise PopgateError(
            f"{path} row {r + 2}, column {names[c]!r}: not a finite number: {rows[r][c + 1]!r}"
        )
    return ids, names, data


def align_rows(
    ids: Sequence[str], table_ids: Sequence[str], X: np.ndarray, label: str
) -> np.ndarray:
    """Reorder a matrix so its rows follow `ids`; errors on absent tracks."""
    pos = {tid: i for i, tid in enumerate(table_ids)}
    missing = [tid for tid in ids if tid not in pos]
    if missing:
        raise MissingInputError(
            f"{label}: no rows for {len(missing)} tracks (first few: {missing[:3]})"
        )
    return X[[pos[tid] for tid in ids]]
