"""CSV reading/writing for the pipeline's tabular artifacts.

All files are UTF-8 CSV with a header row; readers skip a leading UTF-8
byte-order mark. Floats are written with repr(), which round-trips exactly
in float64 — rewriting unchanged data yields byte-identical files, which the
reproducibility guarantees lean on. Every table is written to a temporary
sibling (`<name>.tmp`) and renamed onto its name only once it is complete,
so a write that fails leaves the earlier file (or none), never a truncated
one. Lines end in `\n`, and a cell that holds a `\r` or a `\n` is quoted,
so that every table popgate writes reads back as it was written.

Numeric matrices (the audio descriptors reach 12851 columns) stream one row
at a time in both directions. The writer quotes only the id through
`csv.writer` and joins the row's reprs itself, since a number never needs
quoting; the reader parses each row with `float` straight into one float64
matrix, so it never holds one Python string per cell of the whole file, nor
a second copy of the matrix.

A matrix of at least PARALLEL_CELLS cells is split into contiguous blocks of
rows, one per core the process may run on (`os.sched_getaffinity`, which
`taskset` restricts). The parent handles block 0; blocks 1…k−1 run the same
per-row code in workers forked through `multiprocessing`. A writer worker
streams its rows to `<name>.part<b>` beside the target, which the parent
appends in order after its own rows. A reader worker parses its byte range
of the file and sends the ids and float64 rows back through a pipe, read
straight into the parent's matrix. The bytes written, the values read and
the errors raised do not depend on the block count. Workers come from
`popgate.lanes`, forked so that they use the parent's matrix and ids in
place, with nothing pickled but a block's ids; every worker is reaped
before a call returns or raises. `popgate.ctd.events` cuts large play logs
into byte ranges with the same `_scan` and reads them through `_ByteRange`.

A file that is not UTF-8 raises a PopgateError naming it and the offset of
its first bad byte from the start of the file, at any block count and
whatever else is wrong with it.
"""

from __future__ import annotations

import codecs
import csv
import io
import os
import pickle
import shutil
from contextlib import contextmanager
from itertools import islice
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .codec import replacing
from .exceptions import MissingInputError, PopgateError
from .lanes import _fork, _worker_failed, _workers

KEY_COLUMN = "track_id"

# The fewest cells a matrix needs before it is split across cores, set
# between the largest table that two blocks did not reliably speed up in a
# fresh process (155k cells of CTD features: 6 of 8 alternating runs won)
# and the smallest that they did (248k cells of random floats: 11 or 12 of
# 12); BENCH_parallel_matrix_io.json has the runs.
PARALLEL_CELLS = 200_000


def _cell(value) -> str:
    # np.float64 subclasses float, so convert before repr to dodge numpy's
    # "np.float64(...)" wrapper
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


class _LineFeeds:
    """A text file to which `csv.writer` writes rows ending in `\r\n`,
    storing each with a `\n` instead: with `\r` in its line terminator,
    csv.writer quotes a cell that holds a bare `\r`, which it leaves bare
    under `\n` alone, where a reader would end the row at it."""

    def __init__(self, fh):
        self._write = fh.write

    def write(self, row: str) -> int:
        # csv.writer writes each row, its terminator included, in one call
        return self._write(f"{row[:-2]}\n")


def _writer(fh):
    """A `csv.writer` on `fh` with `\n` line ends that quotes every cell
    holding a `\r` or a `\n`."""
    return csv.writer(_LineFeeds(fh), lineterminator="\r\n")


@contextmanager
def _csv_writer(path: str | Path) -> Iterator[tuple]:
    """Open `path`'s temporary sibling from `replacing` for writing -> (file,
    csv.writer on it)."""
    with replacing(path) as tmp, open(tmp, "w", newline="", encoding="utf-8") as fh:
        yield fh, _writer(fh)


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
    with open(path, newline="", encoding="utf-8-sig") as fh, _utf8(path):
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise PopgateError(f"{path} is empty (no header row)")
        yield header, reader


@contextmanager
def _utf8(path: Path) -> Iterator[None]:
    """Turn a UnicodeDecodeError in the block into `_not_utf8`'s error."""
    try:
        yield
    except UnicodeDecodeError as e:
        raise _not_utf8(path) or PopgateError(f"{path} is not UTF-8: {e.reason}") from None


def _not_utf8(path: Path) -> PopgateError | None:
    """The error for a file that does not decode as UTF-8, naming the offset
    of its first bad byte from the start of the file; None for a file that
    does."""
    decoder = codecs.getincrementaldecoder("utf-8")()
    offset = 0
    with open(path, "rb") as fh:
        while True:
            chunk = fh.read(1 << 20)
            held = len(decoder.getstate()[0])  # bytes of a sequence that the chunk goes on with
            try:
                decoder.decode(chunk, final=not chunk)
            except UnicodeDecodeError as e:
                return PopgateError(f"{path} is not UTF-8: byte {offset - held + e.start} is "
                                    f"0x{e.object[e.start]:02x} ({e.reason})")
            if not chunk:
                return None
            offset += len(chunk)


def read_csv(path: str | Path) -> tuple[list[str], list[list[str]]]:
    with _csv_rows(path) as (header, reader):
        return header, list(reader)


class _BadRow(Exception):
    """Row `args[0]` (0-based) of a block is ragged or holds a non-number;
    `args[1]` is the rest of the message after "<path> row <r>"."""

    def error(self, path: str | Path, first: int) -> PopgateError:
        """The error, for a block whose first row is data row `first`."""
        i, detail = self.args
        return PopgateError(f"{path} row {first + i + 2}{detail}")


def _ragged(i: int, header: list[str], row: list[str]) -> _BadRow:
    return _BadRow(i, f": expected {len(header)} cells, got {len(row)}")


def read_columns(path: str | Path, names: Sequence[str]) -> dict[str, list[str]]:
    """Pull named columns as string lists, preserving row order. Every row
    must have as many cells as the header."""
    header, rows = read_csv(path)
    missing = [n for n in names if n not in header]
    if missing:
        raise PopgateError(f"{path} lacks columns {missing}; has {header}")
    for i, row in enumerate(rows):
        if len(row) != len(header):
            raise _ragged(i, header, row).error(path, 0)
    idx = {n: header.index(n) for n in names}
    return {n: [row[i] for row in rows] for n, i in idx.items()}


def _write_rows(fh, ids: Iterable[str], X: np.ndarray) -> None:
    """Write one line per row, `_writer`'s bytes for `[id, *map(repr, row.tolist())]`."""
    if not X.shape[1]:  # rows of one cell: csv.writer quotes an empty id alone
        _writer(fh).writerows([tid] for tid in ids)
        return
    # the id with its trailing comma, quoted as _writer would
    buf = io.StringIO()
    prefix = _writer(buf)
    for tid, row in zip(ids, X):
        buf.seek(0)
        buf.truncate()
        prefix.writerow((tid, ""))
        # tolist() yields Python scalars, whose repr() is what _cell writes;
        # one row at a time, so no list of the whole matrix is built
        fh.write(f"{buf.getvalue()[:-1]}{','.join(map(repr, row.tolist()))}\n")


def _write_part(_out, part: Path, ids: Sequence[str], X: np.ndarray, lo: int, hi: int) -> None:
    """A writer worker's block: rows lo..hi-1 into `part`; it sends nothing back."""
    with open(part, "w", newline="", encoding="utf-8") as fh:
        _write_rows(fh, islice(ids, lo, hi), X[lo:hi])


def write_matrix_csv(
    path: str | Path, ids: Sequence[str], feature_names: Sequence[str], X: np.ndarray
) -> None:
    """Write a track_id-keyed numeric table; the bytes are those of
    `_writer` over `[id, *map(repr, row.tolist())]` for every row."""
    X = np.asarray(X)
    if X.shape != (len(ids), len(feature_names)):
        raise PopgateError(
            f"matrix shape {X.shape} does not match {len(ids)} ids x {len(feature_names)} names"
        )
    path = Path(path)
    k = len(os.sched_getaffinity(0)) if X.size >= PARALLEL_CELLS else 1
    edges = [len(ids) * b // k for b in range(k + 1)]
    parts = [path.with_name(f"{path.name}.part{b}") for b in range(1, k)]
    try:
        with _csv_writer(path) as (fh, writer), _workers() as workers:
            for part, lo, hi in zip(parts, edges[1:], edges[2:]):
                workers.append(_fork(_write_part, part, ids, X, lo, hi))
            writer.writerow([KEY_COLUMN, *feature_names])
            _write_rows(fh, islice(ids, edges[1]), X[: edges[1]])
            fh.flush()
            for (proc, _), part in zip(workers, parts):
                proc.join()
                if proc.exitcode:
                    raise _worker_failed(path, proc)
                with open(part, "rb") as src:
                    shutil.copyfileobj(src, fh.buffer)
    finally:
        for part in parts:
            part.unlink(missing_ok=True)


def _row_cells(path: Path, r: int) -> list[str]:
    """The cells of data row `r` (0-based), read again from the file."""
    with _csv_rows(path) as (_, reader):
        return next(islice(reader, r, None))


_BOM = b"\xef\xbb\xbf"


def _quotes_open_fields(chunk: bytes, quotes: int, before: int, first: bool, sep: int) -> bool:
    """Whether every quote of `chunk` that the running count `quotes` makes
    an opening one starts a field (follows the delimiter `sep`, a line end
    or the start of the file) or doubles the quote before it inside a quoted
    field. `before` is the byte ahead of the chunk."""
    a = np.frombuffer(chunk, np.uint8)
    q = np.flatnonzero(a == ord('"'))
    opening = q[(quotes + np.arange(q.size)) % 2 == 0]
    prev = np.where(opening > 0, a[opening - 1], before)
    if first and chunk.startswith(_BOM):
        prev[opening == len(_BOM)] = ord("\n")
    return bool(np.isin(prev, (sep, ord("\n"), ord("\r"), ord('"'))).all())


def _scan(path: Path, blocks: int, delimiter: str = ",") -> tuple[int, list[int]]:
    """One pass over a CSV file -> (an upper bound on its data rows, the byte
    offsets that cut it into at most `blocks` blocks of whole records, from
    0 to the file's size).

    The bound counts line ends (`\\n`, `\\r\\n` or `\\r`), plus one for a last
    line without one; a `\\r\\n` split across two chunks counts twice, which
    keeps it a bound. Block b starts just after the first `\\n` from b/blocks
    of the file on with an even count of `"` before it, which puts it
    outside any quoted field. That count is exact only where each opening
    quote starts a field, after `delimiter`, a line end or the start of the
    file; a file with a quote elsewhere (csv.reader keeps
    the `"` of `ab"c` as text), or with no such `\\n` (`\\r` line ends), is
    one block."""
    size = path.stat().st_size
    edges = [0]
    lines, quotes, offset, before, regular = 1, 0, 0, ord("\n"), True
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            lines += chunk.count(b"\n")
            if b"\r" in chunk:
                lines += chunk.count(b"\r") - chunk.count(b"\r\n")
            quoted = b'"' in chunk
            if quoted:
                regular = regular and _quotes_open_fields(chunk, quotes, before, offset == 0,
                                                          ord(delimiter))
            while len(edges) < blocks and regular:
                j = chunk.find(b"\n", max(size * len(edges) // blocks, edges[-1], offset) - offset)
                while j >= 0 and (quotes + chunk.count(b'"', 0, j)) % 2:
                    j = chunk.find(b"\n", j + 1)
                if j < 0 or offset + j + 1 >= size:
                    break
                edges.append(offset + j + 1)
            if quoted:
                quotes += chunk.count(b'"')
            before = chunk[-1]
            offset += len(chunk)
    return lines, [*edges, size] if regular else [0, size]


class _ByteRange(io.RawIOBase):
    """Bytes [start, stop) of a file, as a raw stream."""

    def __init__(self, path: Path, start: int, stop: int):
        self._fh = open(path, "rb", buffering=0)
        self._fh.seek(start)
        self._left = stop - start

    def readable(self) -> bool:
        return True

    def readinto(self, b) -> int:
        n = self._fh.readinto(memoryview(b)[: self._left])
        self._left -= n
        return n

    def close(self) -> None:
        self._fh.close()
        super().close()


def _parse_block(path: Path, start: int, stop: int, header: list[str], data: np.ndarray) -> list[str]:
    """Parse the records in bytes [start, stop) of `path` into `data` from
    row 0 -> their ids. The block at byte 0 skips the header record, a
    byte-order mark included: the header starts with `track_id`, with or
    without quotes, so the mark cannot move the record's end. Raises
    _BadRow at the first ragged or non-numeric row, and `_not_utf8`'s error
    on bytes that are not UTF-8."""
    names, n = header[1:], len(header) - 1
    ids: list[str] = []
    raw = io.BufferedReader(_ByteRange(path, start, stop))
    with io.TextIOWrapper(raw, encoding="utf-8", newline="") as fh, _utf8(path):
        reader = csv.reader(fh)
        if not start:
            next(reader)
        for i, row in enumerate(reader):
            if len(row) != len(header):
                raise _ragged(i, header, row)
            ids.append(row[0])
            try:
                data[i] = np.fromiter(map(float, row[1:]), np.float64, count=n)
            except ValueError:
                for c, cell in enumerate(row[1:]):
                    try:
                        float(cell)
                    except ValueError:
                        raise _BadRow(i, f", column {names[c]!r}: not a number: {cell!r}") from None
                raise
    return ids


def _read_part(out, path: Path, start: int, stop: int, header: list[str], data: np.ndarray) -> None:
    """A worker's block: its ids (or the error it raised) pickled, then its rows' bytes."""
    try:
        ids = _parse_block(path, start, stop, header, data)
    except (_BadRow, PopgateError) as bad:
        pickle.dump((None, bad), out)
        return
    pickle.dump((ids, None), out)
    out.write(data[: len(ids)])


def read_matrix_csv(path: str | Path) -> tuple[list[str], list[str], np.ndarray]:
    """Read a track_id-keyed numeric table -> (ids, feature_names, float64 matrix).
    Every cell must be a finite number. The first ragged or non-numeric row,
    in file order, is reported before any non-finite cell, and a byte that
    is not UTF-8 before either. Rows are parsed
    straight into one matrix sized from a count of the file's lines, then
    shrunk in place to the rows read."""
    path = Path(path)
    with _csv_rows(path) as (header, _):
        pass  # the header alone: every block, the first too, parses its own rows
    if not header or header[0] != KEY_COLUMN:
        raise PopgateError(f"{path}: first column must be {KEY_COLUMN!r}, got {header[:1]}")
    names = header[1:]
    max_rows, edges = _scan(path, len(os.sched_getaffinity(0)))
    if max_rows * len(names) < PARALLEL_CELLS:
        edges = [0, edges[-1]]
    data = np.empty((max_rows, len(names)))
    with _workers() as workers:
        for start, stop in zip(edges[1:], edges[2:]):
            workers.append(_fork(_read_part, path, start, stop, header, data))
        try:
            ids = _parse_block(path, edges[0], edges[1], header, data)
        except _BadRow as bad:
            raise _not_utf8(path) or bad.error(path, 0) from None
        for proc, pipe in workers:
            first = len(ids)
            try:
                block_ids, bad = pickle.load(pipe)
                if bad is None:
                    rows = data[first : first + len(block_ids)]
                    if pipe.readinto(rows) != rows.nbytes:
                        raise EOFError
            except (EOFError, pickle.UnpicklingError):  # the worker died mid-block
                block_ids = bad = None
            proc.join()
            if isinstance(bad, _BadRow):
                raise _not_utf8(path) or bad.error(path, first)
            if bad:
                raise bad
            if proc.exitcode or block_ids is None:
                raise _worker_failed(path, proc)
            ids += block_ids
    # the only reference, so the buffer can shrink where it lies
    data.resize((len(ids), len(names)), refcheck=False)
    bad_cells = np.argwhere(~np.isfinite(data))
    if bad_cells.size:
        r, c = bad_cells[0]
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
