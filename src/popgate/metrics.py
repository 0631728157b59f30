"""Regression metrics: R², MAE, MSE, and relative MSE (unexplained-variance
fraction, SSE/SST = 1 − R²), and the summary of the gate's mixture weights."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .config import MODALITIES
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


@dataclass(frozen=True)
class GateReport:
    """Mixture-weight summary over a dataset."""

    n: int  # rows summarized
    means: dict[str, float]  # modality -> mean weight
    groups: dict[str, dict[str, float]] | None  # optional per-group means


def gate_report(alpha: np.ndarray, group_labels: Sequence | None = None) -> GateReport:
    """Dataset means of per-sample mixture weights `alpha` (n, 3), columns in
    MODALITIES order; `group_labels` (one per row, e.g. release decade) adds
    per-group means."""
    alpha = np.asarray(alpha, dtype=np.float64)
    if alpha.ndim != 2 or alpha.shape[1] != len(MODALITIES):
        raise ShapeError(f"alpha must be (n, {len(MODALITIES)}), got {alpha.shape}")
    means = {m: float(alpha[:, i].mean()) for i, m in enumerate(MODALITIES)}
    groups = None
    if group_labels is not None:
        labels = np.array([str(v) for v in group_labels])
        if labels.size != alpha.shape[0]:
            raise ShapeError(f"{labels.size} group labels for {alpha.shape[0]} rows")
        groups = {}
        for key in sorted(set(labels.tolist())):
            mask = labels == key
            groups[key] = {m: float(alpha[mask, i].mean()) for i, m in enumerate(MODALITIES)}
    return GateReport(n=int(alpha.shape[0]), means=means, groups=groups)
