"""Listening-event ingestion: delimited logs -> play counts per (track, year, user).

Events are (user_id, track_id, timestamp) rows; timestamps are epoch seconds
or ISO-8601, interpreted in UTC. Only events inside the configured calendar
window count; malformed and out-of-window rows are tallied, never fatal.

Ingestion is columnar. A log file is read in blocks of about `BLOCK_CHARS`
characters, each cut at a line end; an iterable of triples is taken in
batches of `BATCH_ROWS` rows. A block whose lines are plain (three
comma-separated fields, no quote, NUL or whitespace other than the newline)
is split by byte position with numpy; any other block goes through
`csv.reader`, with every cell stripped. Ids become uint64 keys, timestamps of
at most 11 ASCII digits get their UTC year from `datetime64[s]`, and every
other timestamp goes through `parse_timestamp_year`. Each batch is reduced to
distinct (track, year, user) triples with play counts before it is merged,
so memory is bounded by the block size plus a small multiple of the distinct
triples, not by the number of events.
"""

from __future__ import annotations

import csv
import io
import itertools
import re
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from ..exceptions import ConfigError, MissingInputError

DEFAULT_WINDOW: tuple[int, ...] = (2016, 2017, 2018, 2019, 2020)

BLOCK_CHARS = 1 << 20  # characters per file block; peak memory grows with it
BATCH_ROWS = 1 << 15  # rows per batch when the source is an iterable of triples

_REQUIRED_COLUMNS = ("user_id", "track_id", "timestamp")

# A block containing any of these needs csv.reader and str.strip(): the quote
# char, NUL (rejected by csv on some Pythons), and whitespace other than "\n".
_ASCII_SPECIAL = '"\x00\t\x0b\x0c\r\x1c\x1d\x1e\x1f '
_SPECIAL = re.compile(r'[^\S\n]|["\x00]')

_DIGITS = 11  # longest timestamp read as epoch seconds without a parse
_DIGIT_POS = np.arange(_DIGITS)
_POW10 = 10 ** np.arange(_DIGITS - 1, -1, -1, dtype=np.int64)
_KEY_POS = np.arange(8)
_LONG_TAG = 0xFF  # low key byte of ids kept in the long-id table; never in UTF-8


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
    `track_ids` and `user` indexes `user_ids`; both tables list ids in the
    order the ingest first met them.
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
    """One column of a batch: row i is the UTF-8 text buf[start[i]:end[i]]."""

    buf: np.ndarray
    start: np.ndarray
    end: np.ndarray

    def take(self, rows: np.ndarray) -> "_Field":
        return _Field(self.buf, self.start[rows], self.end[rows])

    def text(self, i: int) -> str:
        return self.buf[self.start[i]:self.end[i]].tobytes().decode("utf-8", "surrogatepass")


def _pack(values: Sequence[str]) -> _Field:
    raw = [v.encode("utf-8", "surrogatepass") for v in values]
    size = np.fromiter(map(len, raw), np.int64, len(raw))
    end = np.cumsum(size)
    return _Field(np.frombuffer(b"".join(raw), np.uint8), end - size, end)


def _epoch_years(f: _Field) -> tuple[np.ndarray, np.ndarray]:
    """(UTC year, usable) per non-empty field; usable marks 1..11 ASCII digits."""
    length = f.end - f.start
    inside = _DIGIT_POS >= _DIGITS - length[:, None]  # right-aligned window
    idx = np.maximum(f.end[:, None] - _DIGITS + _DIGIT_POS, 0)
    digit = f.buf[idx] - np.uint8(48)  # any other byte wraps above 9
    usable = (length <= _DIGITS) & ~((digit > 9) & inside).any(axis=1)
    secs = np.where(inside & usable[:, None], digit, 0).astype(np.int64) @ _POW10
    return secs.astype("datetime64[s]").astype("datetime64[Y]").astype(np.int64) + 1970, usable


def run_starts(key: np.ndarray) -> np.ndarray:
    """Where each run of equal values starts in a sorted array."""
    return np.flatnonzero(np.r_[key.size > 0, key[1:] != key[:-1]])


def _reduce(key: np.ndarray, plays: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sum `plays` over equal keys: sorted distinct keys and their sums."""
    order = np.argsort(key)
    key = key[order]
    first = run_starts(key)
    return key[first], np.add.reduceat(plays[order], first)


class _IdCodes:
    """Dense codes for uint64 id keys, numbered in order of arrival."""

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

    def add_strings(self, users: Sequence[str], tracks: Sequence[str], stamps: Sequence[str]) -> None:
        self.add(_pack(users), _pack(tracks), _pack(stamps))

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
        if len(self.tracks) * self.years.size >= 1 << 31 or len(self.users) > 1 << 32:
            raise ValueError(
                f"event log too large: {len(self.tracks)} tracks x {self.years.size} years, "
                f"{len(self.users)} users"
            )
        key = ((track * self.years.size + np.searchsorted(self.years, year[inside])) << 32) | user
        batch = np.unique(key, return_counts=True)
        self.pending.append(batch)
        self.n_pending += batch[0].size
        if self.n_pending >= self.merged[0].size:
            self._merge()

    def _merge(self) -> None:
        parts = [self.merged, *self.pending]
        self.pending, self.n_pending = [], 0
        self.merged = _reduce(*(np.concatenate(col) for col in zip(*parts)))

    def _keys(self, f: _Field) -> np.ndarray:
        """uint64 key per non-empty id: its UTF-8 bytes, zero-padded, when they
        fit in 8 bytes and hold no NUL; otherwise `_LONG_TAG` plus its index
        in `long_ids`. No UTF-8 text starts with byte 0xFF, so keys are equal
        exactly when ids are."""
        length = f.end - f.start
        inside = _KEY_POS < length[:, None]
        idx = np.minimum(f.start[:, None] + _KEY_POS, f.buf.size - 1)
        raw = np.where(inside, f.buf[idx], np.uint8(0))
        keys = raw.view("<u8").ravel()
        for i in np.flatnonzero((length > 8) | ((raw == 0) & inside).any(axis=1)).tolist():
            code = self.long_ids.setdefault(f.buf[f.start[i]:f.end[i]].tobytes(), len(self.long_ids))
            keys[i] = (code << 8) | _LONG_TAG
        return keys

    def _decode(self, codes: _IdCodes) -> list[str]:
        keys = codes.keys()
        long_ids = list(self.long_ids)
        return [
            (long_ids[k >> 8] if k & 0xFF == _LONG_TAG else raw).decode("utf-8", "surrogatepass")
            for k, raw in zip(keys.tolist(), keys.astype("<u8").view("S8").tolist())
        ]

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
    buf = np.frombuffer(block.encode("utf-8"), np.uint8)
    ends = np.flatnonzero(buf == ord("\n"))
    commas = np.flatnonzero(buf == ord(","))
    # exactly two commas per line: the 2k-th and (2k+1)-th lie on line k
    if commas.size != 2 * ends.size or not (
        (commas[1::2] < ends).all() and (commas[2::2] > ends[:-1]).all()
    ):
        return False
    starts = np.r_[0, ends[:-1] + 1]
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
    acc.add_strings(*cols)


def _ingest_file(path: Path, acc: _Accumulator) -> None:
    """Feed a CSV/TSV log with a header to `acc`. Rows missing a required
    value carry an empty string there, which the accumulator tallies as
    malformed."""
    if not path.exists():
        raise MissingInputError(f"event log not found: {path}")
    with open(path, newline="", encoding="utf-8-sig") as fh:
        first = fh.readline()
        if not first:
            return
        delim = "\t" if "\t" in first else ","
        header = [h.strip() for h in first.rstrip("\r\n").split(delim)]
        missing = [c for c in _REQUIRED_COLUMNS if c not in header]
        if missing:
            raise ConfigError(f"event log {path} lacks columns {missing}; header was {header}")
        idx = [header.index(c) for c in _REQUIRED_COLUMNS]
        plain = delim == "," and len(header) == len(_REQUIRED_COLUMNS)
        while block := fh.read(BLOCK_CHARS):
            block += fh.readline()
            if not (plain and _add_plain_block(block, idx, acc)):
                _add_csv_block(block, fh, delim, idx, acc)


def ingest_events(
    source: str | Path | Iterable[tuple[str, str, str]],
    window: Sequence[int] = DEFAULT_WINDOW,
) -> IngestResult:
    """Aggregate an event stream into per-(track, year, user) play counts.

    `source` is a log file path or an iterable of raw string triples; ids
    read from a file are stripped, ids in triples are taken as given.
    A row is malformed if an id is empty or the timestamp does not parse;
    well-formed rows outside the window are counted separately and dropped.
    """
    acc = _Accumulator(window)
    if isinstance(source, (str, Path)):
        _ingest_file(Path(source), acc)
    else:
        rows = iter(source)
        while batch := list(itertools.islice(rows, BATCH_ROWS)):
            acc.add_strings(*zip(*batch, strict=True))
    return acc.result()
