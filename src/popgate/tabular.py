"""CSV reading/writing for the pipeline's tabular artifacts.

All files are UTF-8 CSV with a header row; readers skip a leading UTF-8
byte-order mark. Floats are written with repr(), which round-trips exactly
in float64 — rewriting unchanged data yields byte-identical files, which the
reproducibility guarantees lean on.

Numeric matrices (the audio descriptors reach 12851 columns) stream one row
at a time in both directions. The writer quotes only the id through
`csv.writer` and joins the row's reprs itself, since a number never needs
quoting; the reader parses each row with `float` straight into one float64
matrix, so it never holds one Python string per cell of the whole file, nor
a second copy of the matrix.
"""

from __future__ import annotations

import csv
import io
from contextlib import contextmanager
from itertools import islice
from pathlib import Path
from typing import Iterable, Iterator, Sequence

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


@contextmanager
def _csv_writer(path: str | Path) -> Iterator[tuple]:
    """Open `path` for writing -> (file, csv.writer on it)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        yield fh, csv.writer(fh, lineterminator="\n")


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    with _csv_writer(path) as (_, writer):
        writer.writerow(header)
        writer.writerows([_cell(v) for v in row] for row in rows)


@contextmanager
def _csv_rows(path: str | Path) -> Iterator[tuple[list[str], Iterator[list[str]]]]:
    """Open a CSV file -> (header, reader over the remaining rows)."""
    path = Path(path)
    if not path.exists():
        raise MissingInputError(f"input file not found: {path}")
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise PopgateError(f"{path} is empty (no header row)")
        yield header, reader


def read_csv(path: str | Path) -> tuple[list[str], list[list[str]]]:
    with _csv_rows(path) as (header, reader):
        return header, list(reader)


def _ragged(path: str | Path, r: int, header: list[str], row: list[str]) -> PopgateError:
    return PopgateError(f"{path} row {r}: expected {len(header)} cells, got {len(row)}")


def read_columns(path: str | Path, names: Sequence[str]) -> dict[str, list[str]]:
    """Pull named columns as string lists, preserving row order. Every row
    must have as many cells as the header."""
    header, rows = read_csv(path)
    missing = [n for n in names if n not in header]
    if missing:
        raise PopgateError(f"{path} lacks columns {missing}; has {header}")
    for r, row in enumerate(rows, start=2):
        if len(row) != len(header):
            raise _ragged(path, r, header, row)
    idx = {n: header.index(n) for n in names}
    return {n: [row[i] for row in rows] for n, i in idx.items()}


def write_matrix_csv(
    path: str | Path, ids: Sequence[str], feature_names: Sequence[str], X: np.ndarray
) -> None:
    """Write a track_id-keyed numeric table; the bytes are those of
    `csv.writer` over `[id, *map(repr, row.tolist())]` for every row."""
    X = np.asarray(X)
    if X.shape != (len(ids), len(feature_names)):
        raise PopgateError(
            f"matrix shape {X.shape} does not match {len(ids)} ids x {len(feature_names)} names"
        )
    with _csv_writer(path) as (fh, writer):
        writer.writerow([KEY_COLUMN, *feature_names])
        if not feature_names:  # rows of one cell: csv.writer quotes an empty id alone
            writer.writerows([tid] for tid in ids)
            return
        # the id with its trailing comma, quoted as csv.writer would
        buf = io.StringIO()
        prefix = csv.writer(buf, lineterminator="\n")
        for tid, row in zip(ids, X):
            buf.seek(0)
            buf.truncate()
            prefix.writerow((tid, ""))
            # tolist() yields Python scalars, whose repr() is what _cell writes;
            # one row at a time, so no list of the whole matrix is built
            fh.write(f"{buf.getvalue()[:-1]}{','.join(map(repr, row.tolist()))}\n")


def _row_cells(path: Path, r: int) -> list[str]:
    """The cells of data row `r` (0-based), read again from the file."""
    with _csv_rows(path) as (_, reader):
        return next(islice(reader, r, None))


def _max_rows(path: Path) -> int:
    """An upper bound on the data rows of a CSV file: its line ends (`\\n`,
    `\\r\\n` or `\\r`), plus one for a last line without one. A `\\r\\n`
    split across two chunks counts twice, which keeps it a bound."""
    lines = 1
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            lines += chunk.count(b"\n")
            if b"\r" in chunk:
                lines += chunk.count(b"\r") - chunk.count(b"\r\n")
    return lines


def read_matrix_csv(path: str | Path) -> tuple[list[str], list[str], np.ndarray]:
    """Read a track_id-keyed numeric table -> (ids, feature_names, float64 matrix).
    Every cell must be a finite number. The first ragged or non-numeric row,
    in file order, is reported before any non-finite cell. Rows are parsed
    straight into one matrix sized from a count of the file's lines, then
    shrunk in place to the rows read."""
    path = Path(path)
    with _csv_rows(path) as (header, reader):
        if not header or header[0] != KEY_COLUMN:
            raise PopgateError(f"{path}: first column must be {KEY_COLUMN!r}, got {header[:1]}")
        names = header[1:]
        n = len(names)
        ids: list[str] = []
        data = np.empty((_max_rows(path), n))
        for r, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise _ragged(path, r, header, row)
            ids.append(row[0])
            try:
                data[r - 2] = np.fromiter(map(float, row[1:]), np.float64, count=n)
            except ValueError:
                for c, cell in enumerate(row[1:]):
                    try:
                        float(cell)
                    except ValueError:
                        raise PopgateError(
                            f"{path} row {r}, column {names[c]!r}: not a number: {cell!r}"
                        ) from None
                raise
    # the only reference, so the buffer can shrink where it lies
    data.resize((len(ids), n), refcheck=False)
    bad = np.argwhere(~np.isfinite(data))
    if bad.size:
        r, c = bad[0]
        cell = _row_cells(path, r)[c + 1]
        raise PopgateError(f"{path} row {r + 2}, column {names[c]!r}: not a finite number: {cell!r}")
    return ids, names, data


def align_rows(ids: Sequence[str], table_ids: Sequence[str], label: str) -> list[int]:
    """The row of `table_ids` that holds each of `ids`; errors on absent
    tracks, naming `label` and the first of them."""
    pos = {tid: i for i, tid in enumerate(table_ids)}
    missing = [tid for tid in ids if tid not in pos]
    if missing:
        raise MissingInputError(
            f"{label}: no rows for {len(missing)} tracks (first few: {missing[:3]})"
        )
    return [pos[tid] for tid in ids]
