"""Adam and AdamW with bias correction, plus global gradient clipping.

Update per step t:
    m = b1 m + (1-b1) g;  v = b2 v + (1-b2) g^2
    theta -= lr * (m / (1-b1^t)) / (sqrt(v / (1-b2^t)) + eps)
AdamW applies decoupled decay theta -= lr * wd * theta before the Adam update.

The optimizer owns its parameters' storage. Construction copies every value
and every gradient, in the order given, into one flat float64 buffer each
(the arena) and rebinds `p.value` and `p.grad` to reshaped views of it.
Layers keep reading and accumulating into those views in place; nothing may
rebind them afterwards. A second optimizer built over the same params moves
them into its own arena, and the first one no longer sees them.

With the arena, `zero_grad` is one fill, and `step` walks each contiguous
run of equal decay in chunks of `CHUNK` elements through two chunk-sized
scratch buffers, instead of building full-size temporaries per parameter.
The step performs the same elementwise operations in the same order as the
per-parameter form above, so params and moments are bit-identical to it.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from .layers import Param

ParamGroups = Sequence[tuple[Sequence[Param], float]]

CHUNK = 65536


class Adam:
    """Plain `Param` entries take the class's `weight_decay` (0 for Adam);
    explicit (params, decay) groups set it per group."""

    kind = "adam"
    weight_decay = 0.0

    def __init__(
        self,
        params: Sequence[Param] | ParamGroups,
        lr: float,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        if lr <= 0:
            raise ValueError(f"learning rate must be > 0, got {lr}")
        if not (0.0 < beta1 < 1.0 and 0.0 < beta2 < 1.0):
            raise ValueError(f"betas must be in (0,1), got {beta1}, {beta2}")
        entries = _decay_pairs(params, self.weight_decay)
        if not entries:
            raise ValueError("optimizer needs at least one parameter")
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self._params = [p for p, _ in entries]
        self._values, self._grads = _build_arena(self._params)
        self.m = np.zeros(self._values.size)
        self.v = np.zeros(self._values.size)
        # [lo, hi) spans of the arena with one decay, adjacent equal decays merged
        self._runs: list[tuple[int, int, float]] = []
        lo = 0
        for p, wd in entries:
            hi = lo + p.value.size
            if self._runs and self._runs[-1][2] == wd:
                self._runs[-1] = (self._runs[-1][0], hi, wd)
            else:
                self._runs.append((lo, hi, wd))
            lo = hi
        width = min(CHUNK, self._values.size)
        self._scratch = (np.empty(width), np.empty(width))

    @property
    def params(self) -> list[Param]:
        return list(self._params)

    def zero_grad(self) -> None:
        self._grads.fill(0.0)

    def step(self) -> None:
        self.step_count += 1
        t = self.step_count
        lr, b1, b2, eps = self.lr, self.beta1, self.beta2, self.eps
        bc1 = 1.0 - b1**t
        bc2 = 1.0 - b2**t
        for lo, hi, wd in self._runs:
            for a in range(lo, hi, CHUNK):
                b = min(a + CHUNK, hi)
                x, g, m, v = self._values[a:b], self._grads[a:b], self.m[a:b], self.v[a:b]
                s, u = self._scratch[0][: b - a], self._scratch[1][: b - a]
                if wd != 0.0:
                    np.multiply(x, lr * wd, out=s)
                    x -= s
                m *= b1
                np.multiply(g, 1.0 - b1, out=s)
                m += s
                np.multiply(g, g, out=s)
                s *= 1.0 - b2
                v *= b2
                v += s
                np.divide(m, bc1, out=s)
                s *= lr
                np.divide(v, bc2, out=u)
                np.sqrt(u, out=u)
                u += eps
                s /= u
                x -= s


class AdamW(Adam):
    """Adam with decoupled weight decay. Plain `Param` sequences all share
    `weight_decay`; pass explicit (params, decay) groups to vary it."""

    kind = "adamw"

    def __init__(
        self,
        params: Sequence[Param] | ParamGroups,
        lr: float,
        weight_decay: float = 0.01,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        self.weight_decay = weight_decay
        super().__init__(params, lr, beta1, beta2, eps)


def _decay_pairs(params: Sequence[Param] | ParamGroups, default_decay: float) -> list[tuple[Param, float]]:
    """Flatten params and groups to (param, decay) pairs; a param may appear
    once only, or the step would update it twice."""
    entries: list[tuple[Param, float]] = []
    for item in params:
        if isinstance(item, Param):
            entries.append((item, float(default_decay)))
        else:
            group, decay = item
            entries.extend((p, float(decay)) for p in group)
    seen: set[int] = set()
    for p, _ in entries:
        if id(p) in seen:
            raise ValueError(
                f"parameter {p.name or '(unnamed)'} of shape {p.shape} is listed twice"
            )
        seen.add(id(p))
    return entries


def _build_arena(params: list[Param]) -> tuple[np.ndarray, np.ndarray]:
    """Move every value and grad into one flat buffer each, in order, and
    rebind them as views. Each old array is released as soon as it is copied."""
    total = sum(p.value.size for p in params)
    values = np.empty(total)
    grads = np.empty(total)
    lo = 0
    for p in params:
        hi = lo + p.value.size
        view = values[lo:hi].reshape(p.shape)
        view[...] = p.value
        p.value = view
        view = grads[lo:hi].reshape(p.shape)
        view[...] = p.grad
        p.grad = view
        lo = hi
    return values, grads


def clip_grad_norm(params: Iterable[Param], max_norm: float) -> float:
    """Scale all gradients so their global L2 norm is at most max_norm.

    Returns the applied factor (1.0 when no scaling occurred). The sum of
    squares is taken per param and then added up, so each param's pairwise
    summation order is fixed regardless of where its storage lives.
    """
    if max_norm <= 0:
        raise ValueError(f"max_norm must be > 0, got {max_norm}")
    params = list(params)
    total = 0.0
    for p in params:
        g = p.grad
        total += float(np.add.reduce(g * g, axis=None))
    norm = math.sqrt(total)
    if norm <= max_norm or norm == 0.0:
        return 1.0
    factor = max_norm / norm
    for p in params:
        p.grad *= factor
    return factor
