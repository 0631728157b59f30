"""Feature-group registry: named column slices of the raw audio matrix, each
with its own bottleneck width."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Sequence

from ..codec import canonical_json
from ..exceptions import ConfigError


@dataclass(frozen=True)
class FeatureGroup:
    name: str
    start: int  # first column of this group's slice
    d: int  # input width
    d_enc: int  # bottleneck width

    def __post_init__(self):
        if self.d < 2:
            raise ConfigError(f"group {self.name!r}: input dim must be >= 2, got {self.d}")
        if not 1 <= self.d_enc < self.d:
            raise ConfigError(
                f"group {self.name!r}: bottleneck {self.d_enc} must be in [1, {self.d})"
            )
        if self.start < 0:
            raise ConfigError(f"group {self.name!r}: negative column start {self.start}")

    @property
    def cols(self) -> slice:
        return slice(self.start, self.start + self.d)


# Seven default groups. Input widths follow the published per-group feature
# counts; the two bottlenecks with published compression ratios are
# round(0.292*439) = 128 and round(0.114*4478) = 510, and the remaining five
# are filled proportionally to input width (largest-remainder rounding) so the
# concatenated embedding is exactly 2352 wide.
_DEFAULT = (
    ("small_combined", 439, 128),
    ("bow_emobase_chroma", 1000, 216),
    ("blf", 4478, 510),
    ("essentia", 1034, 223),
    ("compare_spectral", 2800, 605),
    ("compare_mfcc", 1400, 303),
    ("compare_pcm", 1700, 367),
)


def default_registry() -> tuple[FeatureGroup, ...]:
    groups = []
    start = 0
    for name, d, d_enc in _DEFAULT:
        groups.append(FeatureGroup(name, start, d, d_enc))
        start += d
    return tuple(groups)


def validate_registry(groups: Sequence[FeatureGroup]) -> None:
    """Slices must be pairwise disjoint; names unique."""
    names = [g.name for g in groups]
    if len(set(names)) != len(names):
        raise ConfigError(f"duplicate group names in registry: {names}")
    spans = sorted((g.start, g.start + g.d, g.name) for g in groups)
    for (s1, e1, n1), (s2, e2, n2) in zip(spans, spans[1:]):
        if s2 < e1:
            raise ConfigError(f"groups {n1!r} and {n2!r} overlap: [{s1},{e1}) vs [{s2},{e2})")


def registry_hash(groups: Sequence[FeatureGroup]) -> str:
    return hashlib.sha256(canonical_json(tuple(groups)).encode("utf-8")).hexdigest()
