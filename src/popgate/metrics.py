"""Regression metrics: R², MAE, MSE, and relative MSE (unexplained-variance
fraction, SSE/SST = 1 − R²)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import ShapeError


@dataclass(frozen=True)
class MetricsReport:
    r2: float  # nan when target is constant
    mae: float
    mse: float
    relmse: float  # nan when target is constant
    n: int
    constant_target: bool = False


def compute_metrics(y: np.ndarray, y_hat: np.ndarray) -> MetricsReport:
    """R² = 1 − SSE/SST and friends. A constant target makes R²/RelMSE
    undefined; they come back NaN with the flag set rather than raising."""
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    y_hat = np.asarray(y_hat, dtype=np.float64).reshape(-1)
    if y.shape != y_hat.shape:
        raise ShapeError(f"metric vectors differ in length: {y.shape} vs {y_hat.shape}")
    if y.size < 2:
        raise ValueError(f"need at least 2 points for metrics, got {y.size}")
    diff = y - y_hat
    sse = float(np.sum(diff * diff))
    sst = float(np.sum((y - y.mean()) ** 2))
    mae = float(np.mean(np.abs(diff)))
    mse = float(np.mean(diff * diff))
    if sst == 0.0:
        return MetricsReport(float("nan"), mae, mse, float("nan"), y.size, constant_target=True)
    relmse = sse / sst
    return MetricsReport(1.0 - relmse, mae, mse, relmse, y.size)
