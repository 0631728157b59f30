"""Gating network: learnable standardization + a small MLP + softmax.

Each branch representation is rescaled by per-feature learnable shift and
scale before concatenation, so modalities with wildly different activation
magnitudes enter the gate on comparable footing. The gate's final linear
layer starts at zero, which makes the initial mixture exactly uniform.
"""

from __future__ import annotations

import numpy as np

from ..config import MODALITIES, GateConfig, LeakyRelu
from ..exceptions import ShapeError
from ..nn.layers import MLP, Module, Param, dense_stack
from ..nn.losses import softmax, softmax_backward


class LearnableStandardize(Module):
    """x_tilde = (h - shift) / (|scale| + eps), both vectors learnable.

    |scale| keeps the denominator positive for any parameter value; the
    gradient through it uses sign(scale), with subgradient 0 at exactly 0.
    """

    def __init__(self, dim: int, eps: float = 1e-6, name: str = "std"):
        if eps <= 0:
            raise ValueError(f"standardization eps must be > 0, got {eps}")
        self.shift = Param(np.zeros(dim), name=f"{name}.shift")
        self.scale = Param(np.ones(dim), name=f"{name}.scale")
        self.eps = eps
        self._cache = None

    @property
    def dim(self) -> int:
        return self.shift.value.shape[0]

    def forward(self, h: np.ndarray) -> np.ndarray:
        h = np.asarray(h, dtype=np.float64)
        if h.ndim != 2 or h.shape[1] != self.dim:
            raise ShapeError(f"standardize expects (batch, {self.dim}), got {h.shape}")
        denom = np.abs(self.scale.value) + self.eps
        centered = h - self.shift.value
        self._cache = (centered, denom)
        return centered / denom

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("standardize backward called before forward")
        centered, denom = self._cache
        self.shift.grad += -np.add.reduce(grad, axis=0) / denom
        self.scale.grad += (
            -np.add.reduce(grad * centered, axis=0) / (denom * denom) * np.sign(self.scale.value)
        )
        return grad / denom

    def parts(self) -> list:
        return [("shift", self.shift), ("scale", self.scale)]


class GatingNetwork(Module):
    """Maps the three branch representations to mixture weights alpha.

    Pipeline: standardize each h_i, concatenate, run the gate MLP to three
    logits, softmax. Rows of alpha sum to 1 and are strictly positive.
    """

    def __init__(self, config: GateConfig, rng: np.random.Generator | None):
        self.config = config
        self.standardizers = {
            m: LearnableStandardize(config.repr_dim, eps=config.eps, name=f"gate.std.{m}")
            for m in MODALITIES
        }
        specs = dense_stack([len(MODALITIES) * config.repr_dim, *config.hidden],
                            LeakyRelu(config.slope), config.dropout_p, out_dim=len(MODALITIES))
        self.mlp = MLP(specs, rng, name="gate.mlp")
        # zero logits at init -> alpha starts at exactly (1/3, 1/3, 1/3)
        final = self.mlp.layers[-1]
        final.W.value[...] = 0.0
        final.b.value[...] = 0.0
        self._probs = None

    @property
    def repr_dim(self) -> int:
        return self.config.repr_dim

    def forward(
        self,
        hs: dict[str, np.ndarray],
        train: bool = False,
        rng: np.random.Generator | None = None,
    ) -> np.ndarray:
        batches = {m: np.asarray(hs[m]).shape[0] for m in MODALITIES}
        if len(set(batches.values())) != 1:
            raise ShapeError(f"gate inputs disagree on batch size: {batches}")
        z = np.concatenate([self.standardizers[m].forward(hs[m]) for m in MODALITIES], axis=1)
        logits = self.mlp.forward(z, train=train, rng=rng)
        self._probs = softmax(logits, axis=1)
        return self._probs

    def backward(self, d_alpha: np.ndarray) -> dict[str, np.ndarray]:
        """Returns gradient wrt each branch representation."""
        if self._probs is None:
            raise RuntimeError("gate backward called before forward")
        d_logits = softmax_backward(self._probs, d_alpha, axis=1)
        d_z = self.mlp.backward(d_logits)
        out = {}
        r = self.config.repr_dim
        for i, m in enumerate(MODALITIES):
            out[m] = self.standardizers[m].backward(d_z[:, i * r : (i + 1) * r])
        return out

    def parts(self) -> list:
        return [(f"std.{m}", self.standardizers[m]) for m in MODALITIES] + [("mlp", self.mlp)]
