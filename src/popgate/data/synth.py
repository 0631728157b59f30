"""Synthetic multimodal datasets with planted, per-modality signal.

Each modality m has a low-rank latent z_m; observed features are a random
linear readout of the latent plus noise. The popularity target is built from
the latents alone:

    y* = sum_m c_m * (z_m @ w_m) + noise * eps
    popularity = round(100 * minmax(y*))

so c_m = 0 makes modality m pure noise w.r.t. the target, and a nonzero c_m
plants a recoverable signal. A listening-event log is generated alongside,
with per-track intensity tied to the social latent, in the same row formats
real ingestion reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..config import DEFAULT_WINDOW, MODALITIES, SynthSpec
from ..seeding import rng_for

_WORDS = (
    "night", "light", "love", "run", "gold", "river", "home", "fire",
    "echo", "stone", "dance", "rain", "shadow", "call", "wild", "silver",
)
# indexed with `rng.integers(0, len(_WORDS), size=k)`: the words and the
# generator's later state of `rng.choice(_WORDS, size=k)`, without its overhead
_WORD_ARRAY = np.array(_WORDS)


@dataclass
class SynthData:
    track_ids: list[str]
    artist_ids: list[str]
    release_years: np.ndarray
    languages: list[str]
    lyrics: list[str]
    popularity: np.ndarray  # int 0..100
    latents: dict[str, np.ndarray] = field(default_factory=dict)
    features: dict[str, np.ndarray] = field(default_factory=dict)
    events: list[tuple[str, str, str]] = field(default_factory=list)


def _make_lyrics(rng: np.random.Generator) -> str:
    lines = []
    if rng.random() < 0.06:
        lines.append("[Instrumental]")
    for _ in range(int(rng.integers(3, 9))):
        words = _WORD_ARRAY[rng.integers(0, len(_WORDS), size=int(rng.integers(3, 8)))]
        line = " ".join(words)
        if rng.random() < 0.12:
            line += f" [x{int(rng.integers(2, 4))}]"
        lines.append(line)
    return "\n".join(lines)


def synth_generate(spec: SynthSpec, seed: int) -> SynthData:
    """Deterministic full dataset: catalog fields, per-modality feature
    matrices, planted latents, and a raw event log."""
    n, k = spec.n_samples, spec.latent_dim
    latents: dict[str, np.ndarray] = {}
    features: dict[str, np.ndarray] = {}
    signal = np.zeros(n)
    for m, d, c in zip(MODALITIES, spec.dims, spec.coeffs):
        rng = rng_for(seed, f"synth-{m}")
        z = rng.normal(size=(n, k))
        A = rng.normal(scale=1.0 / np.sqrt(k), size=(k, d))
        x = z @ A + spec.feature_noise * rng.normal(size=(n, d))
        w = rng.normal(size=k)
        w /= np.linalg.norm(w)
        latents[m] = z
        features[m] = x
        signal = signal + c * (z @ w)
    rng_y = rng_for(seed, "synth-target")
    y_star = signal + spec.noise * rng_y.normal(size=n)
    span = y_star.max() - y_star.min()
    if span == 0.0:
        popularity = np.full(n, 50, dtype=np.int64)
    else:
        popularity = np.floor(100.0 * (y_star - y_star.min()) / span + 0.5).astype(np.int64)

    rng_cat = rng_for(seed, "synth-catalog")
    track_ids = [f"s{i:05d}" for i in range(n)]
    artist_ids = [f"art{int(rng_cat.integers(spec.n_artists)):03d}" for _ in range(n)]
    years = np.where(
        rng_cat.random(n) < 0.03,
        rng_cat.integers(1950, 1960, size=n),
        rng_cat.integers(1960, 2021, size=n),
    )
    languages = [
        "xx" if rng_cat.random() < 0.02 else ("en", "es", "de", "fr")[int(rng_cat.integers(4))]
        for _ in range(n)
    ]
    lyrics = [_make_lyrics(rng_cat) for _ in range(n)]

    events = _make_events(spec, seed, track_ids, latents["social"])
    return SynthData(
        track_ids=track_ids,
        artist_ids=artist_ids,
        release_years=years.astype(np.int64),
        languages=languages,
        lyrics=lyrics,
        popularity=popularity,
        latents=latents,
        features=features,
        events=events,
    )


def _make_events(
    spec: SynthSpec, seed: int, track_ids: list[str], z_social: np.ndarray
) -> list[tuple[str, str, str]]:
    rng = rng_for(seed, "synth-events")
    events: list[tuple[str, str, str]] = []
    years = DEFAULT_WINDOW
    for i, track in enumerate(track_ids):
        n_listeners = 1 + int(np.floor(3.0 * np.exp(0.6 * z_social[i, 0])))
        n_listeners = min(n_listeners, 15)
        listeners = rng.integers(spec.n_users, size=n_listeners)
        for u in listeners:
            year = int(years[int(rng.integers(len(years)))])
            plays = int(rng.integers(1, 4))
            for _ in range(plays):
                # month, day and hour, drawn in this order
                ts = _unix_seconds(year, int(rng.integers(1, 13)), int(rng.integers(1, 29)),
                                   int(rng.integers(0, 24)))
                events.append((f"u{int(u):04d}", track, str(ts)))
    return events


def _unix_seconds(year: int, month: int, day: int, hour: int) -> int:
    """Seconds from 1970-01-01 00:00 UTC to the start of the given UTC hour,
    as `calendar.timegm` gives them: the days from the proleptic Gregorian
    date (Hinnant's `days_from_civil`), in a year counted from March."""
    y = year - (month <= 2)
    era = y // 400
    yoe = y - era * 400
    doy = (153 * (month + (-3 if month > 2 else 9)) + 2) // 5 + day - 1
    doe = yoe * 365 + yoe // 4 - yoe // 100 + doy
    return (era * 146097 + doe - 719468) * 86400 + hour * 3600
