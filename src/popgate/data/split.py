"""Stratified train/test splitting over popularity quantile bins."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..seeding import rng_for


@dataclass(frozen=True)
class SplitAssignment:
    test_mask: np.ndarray  # bool per row
    bin_ids: np.ndarray  # int per row, 0..bins-1

    @property
    def labels(self) -> np.ndarray:
        return np.where(self.test_mask, "test", "train")


def _nearest_rank_edges(values: np.ndarray, bins: int) -> tuple[float, ...]:
    """Bin upper edges at the k/bins quantiles, nearest-rank convention."""
    ordered = np.sort(values)
    n = ordered.size
    edges = []
    for k in range(1, bins):
        rank = int(np.ceil(k / bins * n))  # 1-based nearest rank
        edges.append(float(ordered[rank - 1]))
    return tuple(edges)


def stratified_split(
    popularity: np.ndarray, bins: int = 5, test_fraction: float = 0.2, seed: int = 42
) -> SplitAssignment:
    """Quantile-bin the target, then split each bin with a seeded shuffle.

    Values equal to a bin edge fall in the lower bin. Per-bin test counts are
    round-half-up(test_fraction * bin size), so each bin's realized fraction
    is within one row of the requested one. Pure function of
    (popularity, bins, test_fraction, seed).
    """
    pop = np.asarray(popularity, dtype=np.float64)
    if pop.ndim != 1:
        raise ValueError(f"popularity must be a 1-D vector, got shape {pop.shape}")
    n = pop.size
    if n < bins:
        raise ValueError(f"need at least {bins} rows to form {bins} bins, got {n}")
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test_fraction must be in (0,1), got {test_fraction}")
    edges = _nearest_rank_edges(pop, bins)
    bin_ids = np.zeros(n, dtype=np.int64)
    for e in edges:
        bin_ids += pop > e
    test_mask = np.zeros(n, dtype=bool)
    for b in range(bins):
        members = np.flatnonzero(bin_ids == b)
        if members.size == 0:
            continue
        n_test = int(np.floor(test_fraction * members.size + 0.5))
        shuffled = rng_for(seed, f"split-bin{b}").permutation(members)
        test_mask[shuffled[:n_test]] = True
    return SplitAssignment(test_mask=test_mask, bin_ids=bin_ids)
