"""Adam and AdamW with bias correction, plus global gradient clipping.

Update per step t:
    m = b1 m + (1-b1) g;  v = b2 v + (1-b2) g^2
    theta -= lr * (m / (1-b1^t)) / (sqrt(v / (1-b2^t)) + eps)
AdamW applies decoupled decay theta -= lr * wd * theta before the Adam update.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .layers import Param

ParamGroups = Sequence[tuple[Sequence[Param], float]]


class Adam:
    kind = "adam"

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
        self._entries = _normalize_groups(params)
        if not self._entries:
            raise ValueError("optimizer needs at least one parameter")
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self._m = [np.zeros_like(p.value) for p, _ in self._entries]
        self._v = [np.zeros_like(p.value) for p, _ in self._entries]

    @property
    def params(self) -> list[Param]:
        return [p for p, _ in self._entries]

    def zero_grad(self) -> None:
        for p, _ in self._entries:
            p.zero_grad()

    def step(self) -> None:
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1**t
        bc2 = 1.0 - self.beta2**t
        for i, (p, wd) in enumerate(self._entries):
            if wd != 0.0:
                p.value -= self.lr * wd * p.value
            g = p.grad
            self._m[i] = self.beta1 * self._m[i] + (1.0 - self.beta1) * g
            self._v[i] = self.beta2 * self._v[i] + (1.0 - self.beta2) * (g * g)
            m_hat = self._m[i] / bc1
            v_hat = self._v[i] / bc2
            p.value -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


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
        entries = _normalize_groups(params, default_decay=weight_decay)
        super().__init__([([p], wd) for p, wd in entries], lr, beta1, beta2, eps)
        self.weight_decay = weight_decay


def _normalize_groups(
    params: Sequence[Param] | ParamGroups, default_decay: float = 0.0
) -> list[tuple[Param, float]]:
    entries: list[tuple[Param, float]] = []
    for item in params:
        if isinstance(item, Param):
            entries.append((item, default_decay))
        else:
            group, decay = item
            for p in group:
                entries.append((p, float(decay)))
    return entries


def clip_grad_norm(params: Iterable[Param], max_norm: float) -> float:
    """Scale all gradients so their global L2 norm is at most max_norm.

    Returns the applied factor (1.0 when no scaling occurred).
    """
    if max_norm <= 0:
        raise ValueError(f"max_norm must be > 0, got {max_norm}")
    params = list(params)
    total = 0.0
    for p in params:
        total += float(np.sum(p.grad * p.grad))
    norm = float(np.sqrt(total))
    if norm <= max_norm or norm == 0.0:
        return 1.0
    factor = max_norm / norm
    for p in params:
        p.grad *= factor
    return factor
