"""Song- and artist-level engagement features over a multi-year window.

Everything is computed as array expressions over the (track, year, user)
play counts of an IngestResult. One sort groups the triples into
track-years; a (tracks x years) grid then holds each track's yearly stats:

  total plays, unique listeners, repeat listeners (two or more plays), and
  the interpolated median plays per listener (mean of the two middle values
  for even sizes).

Song features summarize a track's row of the grid. Artist features pool
the rows of an artist's tracks per year and summarize the level, trend and
stability of the pooled series. Every reduction along a track's or an
artist's years runs row by row, in the same order as the one-track-at-a-time
formulas in the docstrings, so results do not depend on how many tracks are
processed together.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from ..config import DEFAULT_WINDOW
from ..exceptions import ConfigError
from .events import IngestResult, run_starts


def _ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num / den, and 0 where den is 0."""
    return np.divide(num, den, out=np.zeros(np.shape(num)), where=den > 0)


def _group_medians(key: np.ndarray, value: np.ndarray):
    """Sort by (key, value) and split into runs of equal key.

    Returns (run keys, run starts, run sizes, sorted values, run medians),
    where a median is the middle value or the mean of the two middle ones.
    """
    order = np.lexsort((value, key))
    key, value = key[order], value[order]
    first = run_starts(key)
    size = np.diff(np.r_[first, key.size])
    median = (value[first + (size - 1) // 2] + value[first + size // 2]) / 2
    return key[first], first, size, value, median


def _ols_slopes(v: np.ndarray) -> np.ndarray:
    """Least-squares slope of each row of v against its column index 0..n-1."""
    n = v.shape[1]
    if n < 2:
        return np.zeros(v.shape[0])
    idx = np.arange(n, dtype=np.float64)
    dx = idx - idx.mean()
    return np.sum(dx * (v - v.mean(axis=1, keepdims=True)), axis=1) / np.sum(dx * dx)


def _active_means(values: np.ndarray, active: np.ndarray) -> np.ndarray:
    """Per row, the mean of the values where `active` holds (0 with none).

    The active values are packed to the front of the row, and rows with k of
    them are averaged as k-wide rows, so each sum runs over exactly the
    values a one-row mean would see, in the same order."""
    packed = np.take_along_axis(values, np.argsort(~active, axis=1, kind="stable"), axis=1)
    n_active = active.sum(axis=1)
    out = np.zeros(values.shape[0])
    for k in np.unique(n_active[n_active > 0]).tolist():
        rows = n_active == k
        out[rows] = np.ascontiguousarray(packed[rows, :k]).mean(axis=1)
    return out


def _artist_features(artist: np.ndarray, unique: np.ndarray, repeat: np.ndarray,
                     median: np.ndarray, n_artists: int) -> np.ndarray:
    """Pool tracks' yearly grids per artist and summarize the pooled series.

    Per year y over an artist's tracks:
      L_y = Σ repeat / Σ unique (0 when no listeners)  — pooled loyalty
      R_y = Σ unique                                    — pooled reach
      E_y = median of per-track median plays-per-listener over tracks with
            listeners that year (0 when none)           — pooled engagement

    Columns: loyalty_rate = mean L_y over years with listeners; growth rates
    = OLS slopes of L_y and log(1+R_y) against year index over the whole
    window; consistencies = 1/(1+population stdev of the series).
    """
    n_years = unique.shape[1]
    pooled_unique = np.zeros((n_artists, n_years), np.int64)
    pooled_repeat = np.zeros((n_artists, n_years), np.int64)
    np.add.at(pooled_unique, artist, unique)
    np.add.at(pooled_repeat, artist, repeat)
    loyalty = _ratio(pooled_repeat, pooled_unique)
    reach = pooled_unique.astype(np.float64)

    rows, cols = np.nonzero(unique)
    cells, _, _, _, medians = _group_medians(artist[rows] * n_years + cols, median[rows, cols])
    engagement = np.zeros(n_artists * n_years)
    engagement[cells] = medians
    engagement = engagement.reshape(n_artists, n_years)

    return np.column_stack([
        _active_means(loyalty, reach > 0),
        _ols_slopes(loyalty),
        _ols_slopes(np.log1p(reach)),
        1.0 / (1.0 + np.std(loyalty, axis=1)),
        1.0 / (1.0 + np.std(engagement, axis=1)),
    ])


# ---------------------------------------------------------------------------
# feature vectors


_AGG_SONG = ("song_total_plays", "song_unique_listeners", "song_repeat_listeners", "song_median_plays")
_AGG_RATIOS = ("song_loyalty_rate", "song_repeat_ratio")
_AGG_ARTIST = (
    "artist_loyalty_rate",
    "artist_loyalty_growth",
    "artist_reach_growth",
    "artist_loyalty_consistency",
    "artist_engagement_consistency",
)
_YEARLY_METRICS = ("total_plays", "unique_listeners", "repeat_listeners", "median_plays")


@dataclass(frozen=True)
class CTDSchema:
    mode: str  # "aggregate" | "temporal"
    years: tuple[int, ...]
    names: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.names)


def default_schema(mode: str, years: Sequence[int] = DEFAULT_WINDOW) -> CTDSchema:
    """11 aggregate features; temporal mode appends 4 yearly metrics per year."""
    if mode not in ("aggregate", "temporal"):
        raise ConfigError(f"CTD mode must be 'aggregate' or 'temporal', got {mode!r}")
    names = list(_AGG_SONG + _AGG_RATIOS + _AGG_ARTIST)
    if mode == "temporal":
        for y in years:
            names.extend(f"y{y}_{m}" for m in _YEARLY_METRICS)
    return CTDSchema(mode=mode, years=tuple(int(y) for y in years), names=tuple(names))


def build_ctd_dataset(
    ingest: IngestResult,
    track_artist: Mapping[str, str],
    mode: str,
    years: Sequence[int] = DEFAULT_WINDOW,
) -> tuple[list[str], np.ndarray, CTDSchema]:
    """Feature matrix for every track that has events and a known artist.

    Years of the window without events are zero-filled. Song features:
    window totals of plays, unique and repeat listeners; the median of the
    yearly medians; loyalty_rate = window repeat / window unique and
    repeat_ratio = (total − unique) / total, both 0 on empty windows.
    Artist features (see `_artist_features`) pool only tracks present in the
    event log. Rows are ordered by track_id for determinism.
    """
    schema = default_schema(mode, years)
    names = ingest.track_ids
    listed = sorted((t for t, name in enumerate(names) if name in track_artist), key=names.__getitem__)
    ids = [names[t] for t in listed]
    if not ids:
        return ids, np.zeros((0, len(schema))), schema
    row_of = np.full(len(names), -1)
    row_of[listed] = np.arange(len(ids))

    # one run per (output row, window year) of the triples: stats and median
    window, column = np.unique(np.asarray(schema.years, np.int64), return_inverse=True)
    row = row_of[ingest.track]
    keep = (row >= 0) & np.isin(ingest.year, window)
    cell = row[keep] * window.size + np.searchsorted(window, ingest.year[keep])
    cells, first, unique, plays, median = _group_medians(cell, ingest.plays[keep])
    total = np.add.reduceat(plays, first)
    repeat = np.add.reduceat((plays >= 2).astype(np.int64), first)

    def grid(values: np.ndarray) -> np.ndarray:
        """(tracks x schema years) grid of per-cell values, 0 where empty."""
        g = np.zeros(len(ids) * window.size, values.dtype)
        g[cells] = values
        return np.ascontiguousarray(g.reshape(len(ids), window.size)[:, column])

    total, unique, repeat, median = grid(total), grid(unique), grid(repeat), grid(median)

    song_total, song_unique, song_repeat = total.sum(axis=1), unique.sum(axis=1), repeat.sum(axis=1)
    artist_of: dict[str, int] = {}
    artist = np.array([artist_of.setdefault(track_artist[t], len(artist_of)) for t in ids])
    columns = [
        song_total,
        song_unique,
        song_repeat,
        np.median(median, axis=1),
        _ratio(song_repeat, song_unique),
        _ratio(song_total - song_unique, song_total),
    ]
    matrix = np.column_stack(columns)
    matrix = np.hstack([matrix, _artist_features(artist, unique, repeat, median, len(artist_of))[artist]])
    if schema.mode == "temporal":
        per_year = np.stack([total, unique, repeat, median], axis=2).astype(np.float64)
        matrix = np.hstack([matrix, per_year.reshape(len(ids), -1)])
    return ids, matrix, schema
