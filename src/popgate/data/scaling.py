"""Column scalers fit on the train split only: zscore or minmax."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from ..exceptions import ConfigError, ShapeError

KINDS = ("zscore", "minmax")


@dataclass(frozen=True)
class ScalerParams:
    kind: str
    center: NDArray[np.float64]  # mean (zscore) / min (minmax)
    scale: NDArray[np.float64]  # std / (max-min) — degenerate columns hold 1.0
    degenerate: NDArray[np.bool_]  # mask of zero-spread columns, mapped to 0
    k: float = 1.0  # unused; kept because every saved model.json stores it


def scaler_fit(train: np.ndarray, kind: str) -> ScalerParams:
    """Fit per-column statistics on train rows only.

    Zero-spread columns get scale 1 and a degeneracy flag; their transform
    output is exactly 0 (no NaN leaks).
    """
    X = np.atleast_2d(np.asarray(train, dtype=np.float64))
    if kind == "zscore":
        center = X.mean(axis=0)
        spread = X.std(axis=0)
    elif kind == "minmax":
        center = X.min(axis=0)
        spread = X.max(axis=0) - center
    else:
        raise ConfigError(f"unknown scaler kind {kind!r}; expected one of {KINDS}")
    degenerate = spread == 0.0
    scale = np.where(degenerate, 1.0, spread)
    return ScalerParams(kind, center, scale, degenerate)


def scaler_apply(params: ScalerParams, rows: np.ndarray,
                 out: np.ndarray | None = None) -> np.ndarray:
    """The scaled rows, written to `out` if given (which may be `rows`)."""
    X = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    if X.shape[1] != params.center.size:
        raise ShapeError(f"scaler fit on {params.center.size} columns, got {X.shape[1]}")
    out = np.subtract(X, params.center, out=out)
    out /= params.scale
    out[:, params.degenerate] = 0.0
    return out


def scaler_invert(params: ScalerParams, rows: np.ndarray) -> np.ndarray:
    """Inverse transform; degenerate columns recover the train constant."""
    X = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    return X * params.scale + params.center

