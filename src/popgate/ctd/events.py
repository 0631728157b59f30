"""Listening-event ingestion: delimited logs -> play counts per (track, year, user).

Events are (user_id, track_id, timestamp) rows; timestamps are epoch seconds
or ISO-8601, interpreted in UTC. Only events inside the configured calendar
window count; malformed and out-of-window rows are tallied, never fatal.

Ingestion reads a CSV or TSV log file with a header line, and is columnar.
The log is cut into byte ranges, and every range, whether the log has one
or several, is read by `_feed_range` in blocks of about `BLOCK_CHARS`
characters, each cut at a line end. A block whose lines are plain (three
comma-separated fields, no quote, NUL or whitespace other than the newline)
is split by byte position with numpy; any other block goes through
`csv.reader`, with every cell stripped. A block's text sits in one byte
buffer, from which each field is read as 8-byte words: an id's first word is
its uint64 key, and a timestamp of at most 11 ASCII digits is parsed from its
last two words at once (SWAR) and gets its UTC year from `datetime64[s]`.
Every other timestamp goes through `parse_timestamp_year`. Each block is
reduced to distinct (track, year, user) triples with play counts before it
is merged, so memory is bounded by the block size plus a small multiple of
the distinct triples, not by the number of events.

A log of at least PARALLEL_BYTES is cut into one range per core the process
may run on (`os.sched_getaffinity`, which `taskset` restricts), where
`popgate.tabular` cuts a matrix CSV: just after a `\n` outside quotes. A
smaller log, a log on one core, and a log with a quote that does not open a
field or with `\r` line ends are one range, `[0, size)`. Each range is a job
of `popgate.lanes.run_lanes` that feeds its own accumulator; range 0 (with
the byte-order mark and the header) runs in the calling process, so a log
of one range forks nothing. The caller folds the later ranges'
accumulators into range 0's in order: their ids are re-keyed through its
long-id table and take its codes, their triples are re-composed with those
codes and merged, and their tallies add up. Lanes decode no id; the caller
decodes each once. Counts and tallies do not depend on the range count. A
file that is not UTF-8 raises a PopgateError naming it and its first bad byte.
"""

from __future__ import annotations

import csv
import io
import itertools
import os
import re
from dataclasses import dataclass
from datetime import datetime, timezone
from functools import partial
from pathlib import Path
from typing import Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from ..config import DEFAULT_WINDOW
from ..exceptions import ConfigError, MissingInputError
from ..lanes import run_lanes
from ..tabular import _ByteRange, _scan, _utf8

BLOCK_CHARS = 1 << 20  # characters per file block; peak memory grows with it
# The smallest log read in byte ranges over the cores, set between the largest
# log that two ranges did not speed up in a fresh process (4 MiB of the
# ctd-log workload's rows: 5 of 12 alternating runs won, in two rounds) and
# the smallest that they did (5 MiB: 11 of 12; 6 MiB: 12 of 12);
# BENCH_ctd_lanes.json has the runs.
PARALLEL_BYTES = 5 << 20

_REQUIRED_COLUMNS = ("user_id", "track_id", "timestamp")

# A block containing any of these needs csv.reader and str.strip(): the quote
# char, NUL (rejected by csv on some Pythons), and whitespace other than "\n".
_ASCII_SPECIAL = '"\x00\t\x0b\x0c\r\x1c\x1d\x1e\x1f '
_SPECIAL = re.compile(r'[^\S\n]|["\x00]')

_DIGITS = 11  # longest timestamp read as epoch seconds without a parse
_LONG_TAG = 0xFF  # low key byte of ids kept in the long-id table; never in UTF-8
_PAD = 16  # zero bytes around a batch's text, so that every 8-byte word read lies in it
_LOW_BYTES = np.array([(1 << 8 * k) - 1 for k in range(9)], np.uint64)  # the k low bytes
_EACH_BYTE = np.uint64(0x0101010101010101)  # times a byte value: it in every byte
_HIGH_BITS = 0x80 * _EACH_BYTE  # the top bit of every byte


def parse_timestamp_year(raw: str) -> int:
    """Calendar year (UTC) of an epoch-seconds or ISO-8601 timestamp."""
    raw = raw.strip()
    try:
        epoch = float(raw)
    except ValueError:
        pass
    else:
        return datetime.fromtimestamp(epoch, tz=timezone.utc).year
    text = raw[:-1] + "+00:00" if raw.endswith("Z") else raw
    dt = datetime.fromisoformat(text)  # ValueError propagates to the caller
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return dt.astimezone(timezone.utc).year


@dataclass(eq=False)  # arrays have no single truth value
class IngestResult:
    """Play counts per distinct (track, year, user), plus ingestion tallies.

    `track`, `year`, `user` and `plays` are parallel int64 arrays, one entry
    per distinct triple, sorted by (track, year, user). `track` indexes
    `track_ids` and `user` indexes `user_ids`. Both tables list ids by the
    batch in which the ingest first met them, and the new ids of one batch
    by their uint64 key (`_IdCodes`); for a log read in byte ranges, the ids
    of range 0 come first, then each later range's new ones, so the order of
    the tables (not the ids, counts or tallies) depends on the range count.
    """

    track_ids: list[str]
    user_ids: list[str]
    track: np.ndarray
    year: np.ndarray
    user: np.ndarray
    plays: np.ndarray
    n_events: int = 0
    n_malformed: int = 0
    n_out_of_window: int = 0

    @property
    def counts(self) -> Mapping[tuple[str, int], Mapping[str, int]]:
        """{(track_id, year): {user_id: plays}}, for inspection and tests."""
        return _CountsView(self)


class _CountsView(Mapping):
    """Nested-dict view of an IngestResult; built on first lookup, while its
    length (the number of track-years) comes straight from the arrays."""

    def __init__(self, result: IngestResult):
        self._result = result
        self._dict: dict | None = None

    def __len__(self) -> int:
        t, y = self._result.track, self._result.year
        return int(np.count_nonzero((t[1:] != t[:-1]) | (y[1:] != y[:-1]))) + int(t.size > 0)

    def _built(self) -> dict:
        if self._dict is None:
            r = self._result
            out: dict[tuple[str, int], dict[str, int]] = {}
            for t, y, u, p in zip(r.track.tolist(), r.year.tolist(), r.user.tolist(), r.plays.tolist()):
                out.setdefault((r.track_ids[t], y), {})[r.user_ids[u]] = p
            self._dict = out
        return self._dict

    def __getitem__(self, key):
        return self._built()[key]

    def __iter__(self) -> Iterator:
        return iter(self._built())


class _Field(NamedTuple):
    """One column of a batch: row i is the UTF-8 text buf[start[i]:end[i]].
    `buf` holds _PAD zero bytes before and after the text (`_text_buffer`)."""

    buf: np.ndarray
    start: np.ndarray
    end: np.ndarray

    def take(self, rows: np.ndarray) -> "_Field":
        return _Field(self.buf, self.start[rows], self.end[rows])

    def text(self, i: int) -> str:
        return self.buf[self.start[i]:self.end[i]].tobytes().decode("utf-8", "surrogatepass")


def _text_buffer(raw: bytes) -> np.ndarray:
    """A batch's UTF-8 text as bytes, with _PAD zero bytes on either side."""
    return np.frombuffer(bytes(_PAD) + raw + bytes(_PAD), np.uint8)


def _pack(values: Sequence[str]) -> _Field:
    raw = [v.encode("utf-8", "surrogatepass") for v in values]
    size = np.fromiter(map(len, raw), np.int64, len(raw))
    end = np.cumsum(size) + _PAD
    return _Field(_text_buffer(b"".join(raw)), end - size, end)


def _words(buf: np.ndarray) -> np.ndarray:
    """w[i] is buf[i:i + 8] read as a little-endian uint64, so that bits
    8j..8j+7 of the word are buf[i + j]. A view: nothing is copied."""
    return np.ndarray((buf.size - 7,), "<u8", buf, strides=(1,))


def _digits(word: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(value, whether all eight bytes are ASCII digits) of words of eight
    characters, the first in the low byte: Lemire's SWAR parse ("Quickly
    parsing eight digits", 2022), with his eight-digit test."""
    high = np.uint64(0xF0F0F0F0F0F0F0F0)
    ok = (word & high) | (((word + 6 * _EACH_BYTE) & high) >> np.uint64(4)) == 0x33 * _EACH_BYTE
    v = word - 0x30 * _EACH_BYTE
    v = v * np.uint64(10) + (v >> np.uint64(8))  # each even byte: the value of a digit pair
    pairs = np.uint64(0x000000FF000000FF)
    v = ((v & pairs) * np.uint64(100 + (1000000 << 32))
         + ((v >> np.uint64(16)) & pairs) * np.uint64(1 + (10000 << 32))) >> np.uint64(32)
    return v.astype(np.int64), ok


def _epoch_years(f: _Field) -> tuple[np.ndarray, np.ndarray]:
    """(UTC year, usable) per non-empty field; usable marks 1..11 ASCII
    digits. A field's last 16 bytes are read as two words, with the bytes
    before the field read as "0"."""
    length = f.end - f.start
    words, zeros = _words(f.buf), 0x30 * _EACH_BYTE
    secs, usable = np.zeros(length.size, np.int64), length <= _DIGITS
    for back, scale in ((16, 10**8), (8, 1)):
        before = _LOW_BYTES[8 - np.clip(length - (back - 8), 0, 8)]
        value, digits = _digits((words[f.end - back] & ~before) | (zeros & before))
        secs += value * scale
        usable &= digits
    secs = np.where(usable, secs, 0)
    return secs.astype("datetime64[s]").astype("datetime64[Y]").astype(np.int64) + 1970, usable


def run_starts(key: np.ndarray) -> np.ndarray:
    """Where each run of equal values starts in a sorted array."""
    return np.flatnonzero(np.r_[key.size > 0, key[1:] != key[:-1]])


def _reduce(key: np.ndarray, plays: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sum `plays` over equal keys: sorted distinct keys and their sums.
    `key` is a concatenation of sorted runs, which a stable sort (timsort)
    merges in one pass."""
    order = np.argsort(key, kind="stable")
    key = key[order]
    first = run_starts(key)
    return key[first], np.add.reduceat(plays[order], first)


class _IdCodes:
    """Dense codes for uint64 id keys. Each call numbers the keys it has not
    seen before after all earlier ones, and among themselves in key order,
    not in their order within the call."""

    def __init__(self):
        self.sorted_keys = np.zeros(0, np.uint64)
        self.sorted_codes = np.zeros(0, np.int64)

    def __len__(self) -> int:
        return self.sorted_keys.size

    def __call__(self, keys: np.ndarray) -> np.ndarray:
        distinct, inverse = np.unique(keys, return_inverse=True)
        code = np.empty(distinct.size, np.int64)
        known = np.zeros(distinct.size, bool)
        if len(self):
            pos = np.minimum(np.searchsorted(self.sorted_keys, distinct), len(self) - 1)
            known = self.sorted_keys[pos] == distinct
            code[known] = self.sorted_codes[pos[known]]
        new = distinct[~known]
        code[~known] = np.arange(len(self), len(self) + new.size)
        at = np.searchsorted(self.sorted_keys, new)
        self.sorted_keys = np.insert(self.sorted_keys, at, new)
        self.sorted_codes = np.insert(self.sorted_codes, at, code[~known])
        return code[inverse]

    def keys(self) -> np.ndarray:
        """Key of each code, in code order."""
        out = np.empty_like(self.sorted_keys)
        out[self.sorted_codes] = self.sorted_keys
        return out


class _Accumulator:
    """Reduces batches of raw fields to play counts per (track, year, user)
    and merges them. A triple is one int64 key, (track * years + year) << 32
    | user, over dense id codes. Batches wait in `pending` until they hold as
    many rows as the merged counts, so each row is re-sorted only a
    logarithmic number of times."""

    def __init__(self, window: Sequence[int]):
        self.years = np.unique(np.array([int(y) for y in window], dtype=np.int64))
        self.long_ids: dict[bytes, int] = {}
        self.tracks, self.users = _IdCodes(), _IdCodes()
        self.merged = (np.zeros(0, np.int64), np.zeros(0, np.int64))
        self.pending: list[tuple[np.ndarray, np.ndarray]] = []
        self.n_pending = 0
        self.n_events = self.n_malformed = self.n_out_of_window = 0

    def add(self, users: _Field, tracks: _Field, stamps: _Field) -> None:
        rows = np.flatnonzero(
            (users.end > users.start) & (tracks.end > tracks.start) & (stamps.end > stamps.start)
        )
        stamps = stamps.take(rows)
        year, ok = _epoch_years(stamps)
        for i in np.flatnonzero(~ok).tolist():
            try:
                year[i] = parse_timestamp_year(stamps.text(i))
            except (ValueError, OverflowError, OSError):
                continue
            ok[i] = True
        inside = ok & np.isin(year, self.years)
        self.n_malformed += users.start.size - int(ok.sum())
        self.n_out_of_window += int(ok.sum() - inside.sum())
        self.n_events += int(inside.sum())
        rows = rows[inside]
        track = self.tracks(self._keys(tracks.take(rows)))
        user = self.users(self._keys(users.take(rows)))
        self._check_size()
        key = ((track * self.years.size + np.searchsorted(self.years, year[inside])) << 32) | user
        self._add_pending(np.unique(key, return_counts=True))

    def _check_size(self) -> None:
        if len(self.tracks) * self.years.size >= 1 << 31 or len(self.users) > 1 << 32:
            raise ValueError(
                f"event log too large: {len(self.tracks)} tracks x {self.years.size} years, "
                f"{len(self.users)} users"
            )

    def _add_pending(self, batch: tuple[np.ndarray, np.ndarray]) -> None:
        self.pending.append(batch)
        self.n_pending += batch[0].size
        if self.n_pending >= self.merged[0].size:
            self._merge()

    def _merge(self) -> None:
        if self.pending:  # else `merged` is reduced already
            parts = [self.merged, *self.pending]
            self.pending, self.n_pending = [], 0
            self.merged = _reduce(*(np.concatenate(col) for col in zip(*parts)))

    def fold(self, lane: "_Accumulator") -> None:
        """Add the counts and tallies of `lane`, which ingested a later range
        of the log over the same window and merged its batches. Its long ids
        are re-keyed through this accumulator's `long_ids`, and its ids take
        this accumulator's codes, new ones after the ones it holds."""
        relong = np.array([self.long_ids.setdefault(raw, len(self.long_ids))
                           for raw in lane.long_ids], np.uint64)

        def codes(own: _IdCodes, theirs: _IdCodes) -> np.ndarray:
            """The code in `own` of each of `lane`'s codes in `theirs`."""
            keys = theirs.keys()
            long = (keys & 0xFF) == _LONG_TAG
            keys[long] = (relong[keys[long] >> 8] << 8) | _LONG_TAG
            return own(keys)

        track, user = codes(self.tracks, lane.tracks), codes(self.users, lane.users)
        self._check_size()
        key, plays = lane.merged
        track_year, user_code = key >> 32, key & 0xFFFFFFFF
        lane_track, year = np.divmod(track_year, self.years.size)
        key = ((track[lane_track] * self.years.size + year) << 32) | user[user_code]
        order = np.argsort(key)  # the keys stay distinct under new codes
        self._add_pending((key[order], plays[order]))
        self.n_events += lane.n_events
        self.n_malformed += lane.n_malformed
        self.n_out_of_window += lane.n_out_of_window

    def _keys(self, f: _Field) -> np.ndarray:
        """uint64 key per non-empty id: its UTF-8 bytes, zero-padded, when they
        fit in 8 bytes and hold no NUL; otherwise `_LONG_TAG` plus its index
        in `long_ids`. No UTF-8 text starts with byte 0xFF, so keys are equal
        exactly when ids are."""
        length = f.end - f.start
        inside = _LOW_BYTES[np.minimum(length, 8)]
        keys = _words(f.buf)[f.start] & inside
        # a zero byte inside the id: Mycroft's test on the word with the bytes after it set
        word = keys | ~inside
        nul = ((word - _EACH_BYTE) & ~word & _HIGH_BITS) != 0
        for i in np.flatnonzero((length > 8) | nul).tolist():
            code = self.long_ids.setdefault(f.buf[f.start[i]:f.end[i]].tobytes(), len(self.long_ids))
            keys[i] = (code << 8) | _LONG_TAG
        return keys

    def _decode(self, codes: _IdCodes) -> list[str]:
        keys = codes.keys()
        raw = keys.astype("<u8").view("S8")
        # a key with no byte above 0x7F is an ASCII id: one numpy cast decodes them all
        ascii = (keys & _HIGH_BITS) == 0
        out = np.empty(keys.size, object)
        out[ascii] = raw[ascii].astype("U8")
        long_ids = list(self.long_ids)
        for i in np.flatnonzero(~ascii).tolist():
            k = int(keys[i])
            text = long_ids[k >> 8] if k & 0xFF == _LONG_TAG else raw[i]
            out[i] = text.decode("utf-8", "surrogatepass")
        return out.tolist()

    def result(self) -> IngestResult:
        self._merge()
        key, plays = self.merged
        track, year = np.divmod(key >> 32, self.years.size)
        return IngestResult(
            track_ids=self._decode(self.tracks),
            user_ids=self._decode(self.users),
            track=track,
            year=self.years[year],
            user=key & 0xFFFFFFFF,
            plays=plays,
            n_events=self.n_events,
            n_malformed=self.n_malformed,
            n_out_of_window=self.n_out_of_window,
        )


def _plain_text(block: str) -> bool:
    if block.isascii():
        return not any(c in block for c in _ASCII_SPECIAL)
    return _SPECIAL.search(block) is None


def _add_plain_block(block: str, idx: Sequence[int], acc: _Accumulator) -> bool:
    """Split a block of plain three-field lines by byte position; False, with
    nothing added, when some line is not of that form."""
    if not block.endswith("\n"):
        block += "\n"
    if not _plain_text(block):
        return False
    buf = _text_buffer(block.encode("utf-8"))
    ends = np.flatnonzero(buf == ord("\n"))
    commas = np.flatnonzero(buf == ord(","))
    # exactly two commas per line: the 2k-th and (2k+1)-th lie on line k
    if commas.size != 2 * ends.size or not (
        (commas[1::2] < ends).all() and (commas[2::2] > ends[:-1]).all()
    ):
        return False
    starts = np.r_[_PAD, ends[:-1] + 1]
    bounds = ((starts, commas[0::2]), (commas[0::2] + 1, commas[1::2]), (commas[1::2] + 1, ends))
    acc.add(*(_Field(buf, *bounds[i]) for i in idx))
    return True


def _add_csv_block(block: str, fh, delim: str, idx: Sequence[int], acc: _Accumulator) -> None:
    """Parse a block with csv.reader. A quoted field that runs past the block
    pulls its remaining lines from `fh`, so records end where they would in
    a single pass over the file."""
    lines = io.StringIO(block, newline="").readlines()
    reader = csv.reader(itertools.chain(lines, iter(fh.readline, "")), delimiter=delim)
    cols: tuple[list[str], list[str], list[str]] = ([], [], [])
    for row in reader:
        if row:
            for col, i in zip(cols, idx):
                col.append(row[i].strip() if i < len(row) else "")
        if reader.line_num >= len(lines):
            break
    acc.add(*map(_pack, cols))


def _header(first: str, path: Path) -> tuple[str, list[int], bool]:
    """The delimiter of a log whose first line is `first`, the position of
    each required column, and whether its records may be plain lines."""
    delim = "\t" if "\t" in first else ","
    header = [h.strip() for h in next(csv.reader([first], delimiter=delim), [])]
    missing = [c for c in _REQUIRED_COLUMNS if c not in header]
    if missing:
        raise ConfigError(f"event log {path} lacks columns {missing}; header was {header}")
    idx = [header.index(c) for c in _REQUIRED_COLUMNS]
    return delim, idx, delim == "," and len(header) == len(_REQUIRED_COLUMNS)


def _feed_range(path: Path, start: int, stop: int, form: tuple, window: Sequence[int]
                ) -> _Accumulator:
    """Feed the records in bytes [start, stop) of a log, block by block, to a
    new accumulator -> it, merged. The range at byte 0 skips the byte-order
    mark and the header line."""
    delim, idx, plain = form
    acc = _Accumulator(window)
    raw = io.BufferedReader(_ByteRange(path, start, stop))
    with io.TextIOWrapper(raw, encoding="utf-8" if start else "utf-8-sig", newline="") as fh:
        if not start:
            fh.readline()
        while block := fh.read(BLOCK_CHARS):
            block += fh.readline()
            if not (plain and _add_plain_block(block, idx, acc)):
                _add_csv_block(block, fh, delim, idx, acc)
    acc._merge()
    return acc


def ingest_events(path: str | Path, window: Sequence[int] = DEFAULT_WINDOW) -> IngestResult:
    """Aggregate a CSV/TSV play log with a header into per-(track, year, user)
    play counts.

    Every cell is stripped. A row is malformed if an id is empty (a short
    row's missing cells are empty) or the timestamp does not parse;
    well-formed rows outside the window are counted separately and dropped.
    The log is cut into byte ranges, one per core for a log of at least
    PARALLEL_BYTES and one otherwise, and each range is fed by
    `_feed_range`, a job of `run_lanes` (see the module docstring).
    """
    path = Path(path)
    if not path.exists():
        raise MissingInputError(f"event log not found: {path}")
    with _utf8(path):
        with open(path, newline="", encoding="utf-8-sig") as fh:
            first = fh.readline()
        if not first:
            return _Accumulator(window).result()
        form = _header(first, path)
        size, cores = path.stat().st_size, len(os.sched_getaffinity(0))
        big = size >= PARALLEL_BYTES and cores > 1
        edges = _scan(path, cores, form[0])[1] if big else [0, size]
        jobs = {f"bytes {start}-{stop} of {path}":
                (1.0, partial(_feed_range, path, start, stop, form, window))
                for start, stop in zip(edges, edges[1:])}
        # equal weights: range b runs in lane b, range 0 (the only one of a
        # small log, which forks nothing) in this process
        ranges = list(run_lanes("ctd-extract", jobs).values())
    acc = ranges.pop(0)
    while ranges:  # a range's tables go as soon as they are folded
        acc.fold(ranges.pop(0))
    return acc.result()
