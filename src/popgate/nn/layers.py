"""Dense layers with hand-derived backward passes.

All math is float64. A layer block composes linear -> batchnorm -> activation
-> dropout; batchnorm and dropout switch to inference behavior in eval mode.
Dropout is inverted (scaled at train time), so eval applies no rescale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Mapping, Sequence

import numpy as np

from ..exceptions import ShapeError
from .checkpoint import check_arrays


class Param:
    """A trainable tensor paired with its gradient accumulator.

    The grad starts as `np.zeros`, whose pages stay unmapped until first
    written, so a model that only runs inference never pays for it. An
    optimizer moves both arrays into its arena (see `popgate.nn.optim`).
    """

    __slots__ = ("name", "value", "grad")

    def __init__(self, value: np.ndarray, name: str = ""):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = np.zeros(self.value.shape)
        self.name = name

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    def zero_grad(self) -> None:
        self.grad[...] = 0.0

    def __repr__(self) -> str:  # pragma: no cover
        return f"Param({self.name or 'unnamed'}, shape={self.value.shape})"


class Module:
    """A model part whose state is declared once, by `parts()`.

    `parts()` lists `(name, part)` pairs in checkpoint order. A part is a
    `Param`, a plain array (state that is saved but not trained, such as
    batchnorm running statistics), a child `Module`, or None (an absent
    optional part, skipped). A state key is the dot-joined path of names
    from the root, e.g. `trunk.layer0.bn.running_var`, `std.audio.shift` or
    `enc.layer1.W`; a name may itself contain dots. `params`, `state_arrays`
    and `load_state` all derive from this one list.
    """

    def parts(self) -> list[tuple[str, "Param | np.ndarray | Module | None"]]:
        raise NotImplementedError

    def _state_parts(self, prefix: str = "") -> Iterator[tuple[str, "Param | np.ndarray"]]:
        """(key, Param or plain array) for every state entry, in checkpoint order."""
        for name, part in self.parts():
            if isinstance(part, Module):
                yield from part._state_parts(f"{prefix}{name}.")
            elif part is not None:
                yield prefix + name, part

    def params(self) -> list[Param]:
        return [part for _, part in self._state_parts() if isinstance(part, Param)]

    def state_arrays(self, prefix: str = "") -> dict[str, np.ndarray]:
        """The live (uncopied) state arrays, keyed by `prefix` + dotted path."""
        return {
            key: part.value if isinstance(part, Param) else part
            for key, part in self._state_parts(prefix)
        }

    def load_state(
        self,
        arrays: Mapping[str, np.ndarray],
        source: str | Path = "snapshot",
        prefix: str = "",
        copy: bool = True,
    ) -> None:
        """Copy saved arrays, keyed by `prefix` + dotted path, into the live
        state in place. Every key must be present with the live array's exact
        shape, else nothing is loaded; errors name `source` (the checkpoint
        path) and the key. Keys the model lacks are ignored.

        With `copy=False` each `Param` takes the saved array itself instead
        (plain arrays are still copied): for models that only run inference,
        whose params are in no optimizer's arena."""
        live = dict(self._state_parts(prefix))
        check_arrays(arrays, {key: part.shape for key, part in live.items()}, source)
        for key, part in live.items():
            if not isinstance(part, Param):
                part[...] = arrays[key]
            elif copy:
                part.value[...] = arrays[key]
            else:
                part.value = np.asarray(arrays[key], dtype=np.float64)


# ---------------------------------------------------------------------------
# activations


@dataclass(frozen=True)
class Elu:
    alpha: float = 0.1

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError(f"ELU alpha must be > 0, got {self.alpha}")


@dataclass(frozen=True)
class LeakyRelu:
    slope: float = 0.05

    def __post_init__(self):
        if not 0.0 < self.slope < 1.0:
            raise ValueError(f"LeakyReLU slope must be in (0,1), got {self.slope}")


@dataclass(frozen=True)
class Sigmoid:
    pass


@dataclass(frozen=True)
class Identity:
    pass


# in JSON an activation is tagged with its class name in snake case, as in
# {"kind": "leaky_relu", "slope": 0.05} (see `popgate.codec`): renaming a
# class changes the checkpoints it writes and breaks reading old ones
Activation = Elu | LeakyRelu | Sigmoid | Identity


# open-interval clamp for sigmoid outputs: float64 saturates to exactly
# 0 or 1 past |x| ~ 37, but downstream code relies on 0 < sigma(x) < 1
_SIG_LO = float(np.finfo(np.float64).tiny)
_SIG_HI = float(np.nextafter(1.0, 0.0))


def activation_forward(x: np.ndarray, act: Activation, layer: str | None = None) -> np.ndarray:
    """Elementwise activation. Rejects non-finite input with a diagnostic
    that names `layer` when given."""
    x = np.asarray(x, dtype=np.float64)
    # the sum is finite only when every entry is, so the elementwise scan
    # runs only for an input whose sum is not (or overflows)
    if not math.isfinite(np.add.reduce(x, axis=None)):
        bad = int(x.size - np.count_nonzero(np.isfinite(x)))
        if bad:
            where = f"layer {layer!r}: " if layer else ""
            raise ValueError(f"{where}activation input contains {bad} non-finite entries")
    if isinstance(act, Elu):
        # min(0.0, x) keeps -0.0, and expm1 never sees the positive side,
        # where it would overflow
        out = np.minimum(0.0, x)
        np.expm1(out, out=out)
        out *= act.alpha
        np.copyto(out, x, where=x > 0)
        return out
    if isinstance(act, LeakyRelu):
        return np.where(x > 0, x, act.slope * x)
    if isinstance(act, Sigmoid):
        # e^-|x| <= 1 never overflows; x >= 0 takes 1/(1+e^-x), else e^x/(1+e^x)
        e = np.exp(-np.abs(x))
        d = 1.0 + e
        out = np.where(x >= 0, 1.0 / d, e / d)
        np.maximum(out, _SIG_LO, out=out)
        return np.minimum(out, _SIG_HI, out=out)
    if isinstance(act, Identity):
        return x.copy()
    raise TypeError(f"unknown activation {act!r}")


def activation_backward(grad: np.ndarray, pre: np.ndarray, out: np.ndarray, act: Activation) -> np.ndarray:
    """Gradient wrt the pre-activation, given upstream grad and cached values."""
    if isinstance(act, Elu):
        # d/dx = 1 for x > 0, alpha * e^x = out + alpha otherwise
        return grad * np.where(pre > 0, 1.0, out + act.alpha)
    if isinstance(act, LeakyRelu):
        return grad * np.where(pre > 0, 1.0, act.slope)
    if isinstance(act, Sigmoid):
        return grad * out * (1.0 - out)
    if isinstance(act, Identity):
        return grad
    raise TypeError(f"unknown activation {act!r}")


# ---------------------------------------------------------------------------
# layer spec


@dataclass(frozen=True)
class DenseLayerSpec:
    """One dense block: linear, then optional batchnorm, activation, dropout."""

    in_dim: int
    out_dim: int
    activation: Activation = Identity()
    batchnorm: bool = False
    dropout_p: float = 0.0

    def __post_init__(self):
        if self.in_dim < 1 or self.out_dim < 1:
            raise ValueError(f"layer dims must be >= 1, got {self.in_dim}x{self.out_dim}")
        if not 0.0 <= self.dropout_p < 1.0:
            raise ValueError(f"dropout_p must be in [0,1), got {self.dropout_p}")


class BatchNorm(Module):
    """Per-feature batch normalization over axis 0."""

    def __init__(self, dim: int, momentum: float = 0.1, eps: float = 1e-5, name: str = ""):
        self.gamma = Param(np.ones(dim), name=f"{name}.gamma")
        self.beta = Param(np.zeros(dim), name=f"{name}.beta")
        self.running_mean = np.zeros(dim)
        self.running_var = np.ones(dim)
        self.momentum = momentum
        self.eps = eps
        self._cache = None

    def forward(self, x: np.ndarray, train: bool) -> np.ndarray:
        # direct ufunc calls that repeat, operation for operation, what
        # `x.mean(axis=0)` and numpy's two-pass `x.var(axis=0)` compute
        if train:
            n = x.shape[0]
            mean = np.add.reduce(x, axis=0)
            mean /= n
            centered = x - mean
            var = np.add.reduce(np.square(centered), axis=0)
            var /= n  # population variance
            self.running_mean *= 1.0 - self.momentum
            self.running_mean += self.momentum * mean
            self.running_var *= 1.0 - self.momentum
            self.running_var += self.momentum * var
            inv_std = np.sqrt(var + self.eps)
            np.divide(1.0, inv_std, out=inv_std)
            xhat = centered * inv_std
            self._cache = ("train", xhat, centered, inv_std)
        else:
            xhat = (x - self.running_mean) / np.sqrt(self.running_var + self.eps)
            self._cache = ("eval", xhat)
        out = xhat * self.gamma.value
        out += self.beta.value
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("batchnorm backward called before forward")
        add = np.add.reduce
        xhat = self._cache[1]
        self.beta.grad += add(grad, axis=0)
        self.gamma.grad += add(grad * xhat, axis=0)
        if self._cache[0] == "eval":
            return grad * self.gamma.value / np.sqrt(self.running_var + self.eps)
        _, _, centered, inv_std = self._cache
        n = centered.shape[0]
        dxhat = grad * self.gamma.value
        dvar = add(dxhat * centered, axis=0) * (-0.5) * inv_std**3
        dmean = -add(dxhat, axis=0) * inv_std + dvar * (add(-2.0 * centered, axis=0) / n)
        # dxhat * inv_std + dvar * 2.0 * centered / n + dmean / n, left to right
        dxhat *= inv_std
        t = (dvar * 2.0) * centered
        t /= n
        dxhat += t
        dxhat += dmean / n
        return dxhat

    def parts(self) -> list:
        return [("gamma", self.gamma), ("beta", self.beta),
                ("running_mean", self.running_mean), ("running_var", self.running_var)]


class Dense(Module):
    """Dense block: y = dropout(activation(batchnorm(x W + b))).

    `rng` draws the initial weights; None leaves them zero (unmapped pages),
    for a layer whose state is loaded next."""

    def __init__(self, spec: DenseLayerSpec, rng: np.random.Generator | None, name: str = "dense"):
        self.spec = spec
        self.name = name
        shape = (spec.in_dim, spec.out_dim)
        W = np.zeros(shape) if rng is None else rng.normal(0.0, _init_scale(spec), size=shape)
        self.W = Param(W, name=f"{name}.W")
        self.b = Param(np.zeros(spec.out_dim), name=f"{name}.b")
        self.bn = BatchNorm(spec.out_dim, name=f"{name}.bn") if spec.batchnorm else None
        self._cache = None

    def forward(self, x: np.ndarray, train: bool = False, rng: np.random.Generator | None = None) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.spec.in_dim:
            raise ShapeError(
                f"layer {self.name!r} expects input (batch, {self.spec.in_dim}), got {x.shape}"
            )
        z = x @ self.W.value
        z += self.b.value
        h = self.bn.forward(z, train) if self.bn is not None else z
        a = activation_forward(h, self.spec.activation, self.name)
        kept = None
        if train and self.spec.dropout_p > 0.0:
            if rng is None:
                raise ValueError(f"layer {self.name!r}: train-mode dropout needs an rng")
            # the cache keeps the boolean draw, an eighth of the float mask
            kept = rng.random(a.shape) >= self.spec.dropout_p
            out = a * self._dropout_mask(kept)
        else:
            out = a
        self._cache = (x, h, a, kept)
        return out

    def _dropout_mask(self, kept: np.ndarray) -> np.ndarray:
        """Inverted-dropout scale: 1/(1-p) where a unit is kept, else 0."""
        return np.where(kept, 1.0 / (1.0 - self.spec.dropout_p), 0.0)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        """Propagate grad to the input; accumulate parameter gradients."""
        if self._cache is None:
            raise RuntimeError(f"layer {self.name!r}: backward called before forward")
        x, pre_act, act_out, kept = self._cache
        if kept is not None:
            grad = grad * self._dropout_mask(kept)
        grad = activation_backward(grad, pre_act, act_out, self.spec.activation)
        if self.bn is not None:
            grad = self.bn.backward(grad)
        self.W.grad += x.T @ grad
        self.b.grad += np.add.reduce(grad, axis=0)
        return grad @ self.W.value.T

    def parts(self) -> list:
        return [("W", self.W), ("b", self.b), ("bn", self.bn)]


def _init_scale(spec: DenseLayerSpec) -> float:
    # He-style for rectifiers, Glorot-style otherwise
    if isinstance(spec.activation, (Elu, LeakyRelu)):
        return float(np.sqrt(2.0 / spec.in_dim))
    return float(np.sqrt(1.0 / spec.in_dim))


class MLP(Module):
    """A stack of dense blocks executed in order."""

    def __init__(
        self, specs: Sequence[DenseLayerSpec], rng: np.random.Generator | None, name: str = "mlp"
    ):
        for a, b in zip(specs, specs[1:]):
            if a.out_dim != b.in_dim:
                raise ShapeError(f"{name}: layer dims {a.out_dim} -> {b.in_dim} do not chain")
        self.name = name
        self.layers = [Dense(s, rng, name=f"{name}.{i}") for i, s in enumerate(specs)]

    @property
    def in_dim(self) -> int:
        return self.layers[0].spec.in_dim

    @property
    def out_dim(self) -> int:
        return self.layers[-1].spec.out_dim

    def forward(self, x: np.ndarray, train: bool = False, rng: np.random.Generator | None = None) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x, train=train, rng=rng)
        return x

    def backward(self, grad: np.ndarray) -> np.ndarray:
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    def parts(self) -> list:
        return [(f"layer{i}", layer) for i, layer in enumerate(self.layers)]


def snapshot_state(
    arrays: Mapping[str, np.ndarray], into: dict[str, np.ndarray] | None = None
) -> dict[str, np.ndarray]:
    """Deep-copy a state mapping (used to retain best-epoch weights).

    `into`, an earlier snapshot of the same state, is overwritten in place
    and returned, so keeping the best epoch holds one copy, not two.
    """
    if into is None:
        return {k: v.copy() for k, v in arrays.items()}
    for k, v in arrays.items():
        np.copyto(into[k], v)
    return into
