"""Random listening-log generator with known ground truth, for oracle tests."""

from __future__ import annotations

import csv
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

WINDOW = (2016, 2017, 2018, 2019, 2020)


def render_timestamp(rng: np.random.Generator, year: int, exotic: bool = False) -> str:
    dt = datetime(
        year,
        int(rng.integers(1, 13)),
        int(rng.integers(1, 29)),
        int(rng.integers(0, 24)),
        int(rng.integers(0, 60)),
        int(rng.integers(0, 60)),
        tzinfo=timezone.utc,
    )
    style = int(rng.integers(0, 7 if exotic else 4))
    if style == 0:
        return str(int(dt.timestamp()))  # negative before 1970
    if style == 1:
        return f"{dt.timestamp():.1f}"
    if style == 2:
        return dt.strftime("%Y-%m-%dT%H:%M:%SZ")
    if style == 3:
        return dt.strftime("%Y-%m-%d %H:%M:%S")  # naive, interpreted as UTC
    if style == 4:  # zero-padded to 11, 12 or 13 digits
        return f"{int(dt.timestamp()):0{int(rng.integers(11, 14))}d}"
    if style == 5:
        return f"{dt.timestamp():+.3f}"
    return f" {int(dt.timestamp())} "  # padding that the parser strips


def _exotic_id(prefix: str, n: int) -> str:
    """Ids for the odd cases: over 8 bytes, non-ASCII, or needing csv quotes."""
    kind = n % 6
    if kind == 1:
        return f"{prefix}-{n:012d}"
    if kind == 2:
        return f"{prefix}\u00e9{n}"
    if kind == 3:
        return f"{prefix}{n},x"
    if kind == 4:
        return f'{prefix}"{n}\ny'
    return f"{prefix}{n}"


def random_event_log(
    rng: np.random.Generator,
    n_events: int,
    n_tracks: int = 20,
    n_users: int = 60,
    window=WINDOW,
    out_of_window_frac: float = 0.05,
    malformed_frac: float = 0.03,
    exotic: bool = False,
):
    """Returns (raw rows, truth events, n_malformed, n_out_of_window).

    Raw rows are (user_id, track_id, timestamp-string) triples; truth events
    are (user_id, track_id, year) for the well-formed rows only. With
    `exotic`, ids may be long, non-ASCII or need csv quoting; timestamps
    may be zero-padded past 11 digits, signed, space-padded or before 1970;
    malformed rows may carry nan/inf, millisecond epochs or no timestamp.
    """
    rows: list[tuple[str, str, str]] = []
    truth: list[tuple[str, str, int]] = []
    n_malformed = 0
    n_out = 0
    outside_years = (min(window) - 3, min(window) - 1, max(window) + 1)
    if exotic:
        outside_years += (1969,)
    name = _exotic_id if exotic else (lambda prefix, n: f"{prefix}{n}")
    for _ in range(n_events):
        user = name("u", int(rng.integers(n_users)))
        track = name("t", int(rng.integers(n_tracks)))
        roll = rng.random()
        if roll < malformed_frac:
            bad = [(user, track, "not-a-time"), ("", track, "123456"), (user, "", "123456")]
            if exotic:
                bad += [(user, track, "nan"), (user, track, "-inf"), (user, track, "1514764800000"),
                        (user, track, "")]
            rows.append(bad[int(rng.integers(0, len(bad)))])
            n_malformed += 1
        elif roll < malformed_frac + out_of_window_frac:
            year = int(rng.choice(outside_years))
            rows.append((user, track, render_timestamp(rng, year, exotic)))
            n_out += 1
        else:
            year = int(rng.choice(window))
            rows.append((user, track, render_timestamp(rng, year, exotic)))
            truth.append((user, track, year))
    return rows, truth, n_malformed, n_out


def write_log_file(path: Path, rows, delimiter: str = ",", style: str = "csv") -> Path:
    """Write rows under a plain header line. Styles: "csv" is csv.writer's default
    (CRLF, quotes only where needed); "plain" ends lines with "\n";
    "quoted" also quotes every cell; "messy" pads every cell with spaces,
    adds blank lines, and drops an empty trailing timestamp cell (a ragged
    row). A reader that strips cells sees the same values in each style."""
    quoting = csv.QUOTE_ALL if style == "quoted" else csv.QUOTE_MINIMAL
    terminator = "\n" if style in ("plain", "quoted") else "\r\n"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(delimiter.join(["user_id", "track_id", "timestamp"]) + terminator)
        w = csv.writer(fh, delimiter=delimiter, quoting=quoting, lineterminator=terminator)
        for i, row in enumerate(rows):
            if style == "messy":
                row = [f" {cell}  " for cell in row[:2]] + ([f"  {row[2]}"] if row[2] else [])
                if i % 7 == 3:
                    fh.write(terminator)
            w.writerow(row)
    return path


def random_track_artist(rng: np.random.Generator, n_tracks: int, n_artists: int = 6):
    return {f"t{i}": f"a{rng.integers(n_artists)}" for i in range(n_tracks)}
