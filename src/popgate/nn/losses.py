"""Losses and the softmax used by the gating head."""

from __future__ import annotations

import math

import numpy as np

from ..exceptions import ShapeError


def mse_loss(pred: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean squared error over all elements and its gradient wrt pred."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ShapeError(f"mse_loss shapes differ: {pred.shape} vs {target.shape}")
    diff = pred - target
    n = diff.size
    # np.add.reduce(...) / n is np.mean without its Python-level wrapper
    return float(np.add.reduce(diff * diff, axis=None) / n), 2.0 * diff / n


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically guarded softmax (max subtraction, shift invariant)."""
    logits = np.asarray(logits, dtype=np.float64)
    # a finite sum means every entry is finite; only a non-finite one scans
    if not math.isfinite(np.add.reduce(logits, axis=None)) and not np.all(np.isfinite(logits)):
        raise ValueError("softmax input contains non-finite entries")
    shifted = logits - np.maximum.reduce(logits, axis=axis, keepdims=True)
    e = np.exp(shifted, out=shifted)
    return e / np.add.reduce(e, axis=axis, keepdims=True)


def softmax_backward(probs: np.ndarray, grad: np.ndarray, axis: int = -1) -> np.ndarray:
    """Gradient wrt logits given softmax outputs and upstream gradient."""
    inner = np.add.reduce(grad * probs, axis=axis, keepdims=True)
    return probs * (grad - inner)
