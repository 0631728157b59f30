"""Catalog cleaning and lyric text normalization."""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable

from ..config import CleaningConfig


@dataclass(frozen=True)
class TrackRecord:
    track_id: str
    artist_id: str
    release_year: int
    language: str
    lyrics: str
    popularity: int

    def __post_init__(self):
        if not 0 <= self.popularity <= 100:
            raise ValueError(
                f"track {self.track_id!r}: popularity must be in [0,100], got {self.popularity}"
            )


def clean(records: Iterable[TrackRecord], cfg: CleaningConfig) -> tuple[list[TrackRecord], dict[str, int]]:
    """Keep records passing every predicate; tally rejections by first failed
    check, in the fixed order year -> language -> lyric_length.

    The year floor is inclusive: release_year == min_year is kept.
    """
    kept: list[TrackRecord] = []
    tally = {"kept": 0, "year": 0, "language": 0, "lyric_length": 0}
    allow = set(cfg.languages)
    for rec in records:
        if rec.release_year < cfg.min_year:
            tally["year"] += 1
        elif rec.language not in allow:
            tally["language"] += 1
        elif cfg.lyric_bounds is not None and not (
            cfg.lyric_bounds[0] <= len(rec.lyrics) <= cfg.lyric_bounds[1]
        ):
            tally["lyric_length"] += 1
        else:
            kept.append(rec)
            tally["kept"] += 1
    return kept, tally


# ---------------------------------------------------------------------------
# lyric normalization


ANNOTATIONS = ("instrumental", "spoken", "guitar solo")  # lower case: lines are lowered to match

_MARKER_RE = re.compile(r"\s*\[x(\d+)\]$")
_REPEAT_CAP = 16


def normalize_lyrics(text: str) -> str:
    """Canonicalize lyric text; idempotent.

    * CRLF/CR newlines become LF; runs of spaces/tabs collapse to one space;
      lines are trimmed and blank lines dropped.
    * A line ending in "[xN]" (N >= 2) is emitted N times without the marker.
      Stacked markers multiply ("a [x2] [x3]" -> 6 copies); the cumulative
      repeat count is capped at 16 to bound pathological inputs.
    * Lines that are exactly a bracketed annotation from the (case-insensitive)
      `ANNOTATIONS` are removed.
    """
    out: list[str] = []
    for line in text.replace("\r\n", "\n").replace("\r", "\n").split("\n"):
        line = re.sub(r"[ \t]+", " ", line).strip()
        repeats = 1
        while True:
            m = _MARKER_RE.search(line)
            if m is None or int(m.group(1)) < 2:
                break
            repeats = min(repeats * int(m.group(1)), _REPEAT_CAP)
            line = line[: m.start()].rstrip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]") and line[1:-1].strip().lower() in ANNOTATIONS:
            continue
        out.extend([line] * repeats)
    return "\n".join(out)
