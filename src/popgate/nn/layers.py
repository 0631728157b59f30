"""Dense layers with hand-derived backward passes.

All math is float64. A layer block composes linear -> batchnorm -> activation
-> dropout; batchnorm and dropout switch to inference behavior in eval mode.
Dropout is inverted (scaled at train time), so eval applies no rescale.

A train-mode forward keeps what its backward reads, and the backward
consumes it: it drops the cache as it unpacks it, and each array of it once
read for the last time, so no batch-sized array outlives the step that read
it last. An eval-mode forward keeps nothing, so inference holds no
batch-sized array once it returns. A backward therefore needs a train-mode
forward of its own before it, and raises a `RuntimeError` naming the layer
otherwise, a second backward after one forward included.

Initial weights are drawn one `CHUNK` of the flat C-order weight at a time
(`Dense.draw`), each chunk written where the weight's values live before
the next is drawn; the chunks take the same values from the stream as one
whole draw, and a draw holds no weight-sized array of its own.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from ..config import Activation, Elu, Identity, LeakyRelu, Sigmoid
from ..exceptions import ShapeError
from .checkpoint import check_arrays


class Param:
    """A trainable tensor paired with its gradient accumulator.

    The grad starts as `np.zeros`, whose pages stay unmapped until first
    written, so a model that only runs inference never pays for it: so long
    as malloc maps the array on its own, as glibc does from its mmap
    threshold, which every CLI process pins at 512 KiB (`popgate.cli`).
    Below it, or in a process where glibc has raised it, calloc may zero
    the array by writing it on reused heap. An
    optimizer moves both arrays into its arena (see `popgate.nn.optim`),
    except those of a wide `Weight`. Layers and state walkers read the
    values through `read()` and write them through `write()`; clipping and
    the optimizer read the gradient through `gradient()` and scale it
    through `scale_grad`.
    """

    __slots__ = ("name", "value", "grad")

    def __init__(self, value: np.ndarray, name: str = ""):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = np.zeros(self.value.shape)
        self.name = name

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    def read(self) -> np.ndarray:
        """The values."""
        return self.value

    def write(self, values: np.ndarray) -> None:
        """Copy `values`, of the param's shape, into the values."""
        self.value[...] = values

    def gradient(self) -> np.ndarray:
        """The accumulated gradient."""
        return self.grad

    def scale_grad(self, factor: float) -> None:
        self.grad *= factor

    def release_grad(self) -> None:
        """Give the param its own zeroed gradient, apart from any optimizer."""
        self.grad = np.zeros(self.value.shape)


class Weight(Param):
    """A dense layer's weight: its gradient is only ever added to as a
    product `a @ b`, by `add_product`.

    An optimizer may therefore hold no gradient for it (see
    `popgate.nn.optim`): after `defer()` its `grad` is None, `products`
    keeps each (a, b) pair added since, uncopied, and `factors` each scale
    applied since. `gradient()` rebuilds the gradient from them by the
    operations that the stored gradient would have seen, so bit for bit;
    the caller must not write a recorded array before then.

    An optimizer may also keep a wide weight's values in its scratch file
    for as long as the weight lives: `store` is then that file and `at` the
    weight's first element in it, and `value` is a read-only placeholder of
    the weight's shape that holds no memory (every entry NaN), so `shape`
    and `value.size` cost no I/O and a write into `value` raises. `read()`
    returns the values in the file's slot, read-only and valid only until
    the slot is next read into or lent; `write()` and `write_part()` write
    through to the file; `gradient()` rebuilds a deferred gradient in the
    slot.
    """

    __slots__ = ("products", "factors", "store", "at")

    def __init__(self, value: np.ndarray, name: str = ""):
        super().__init__(value, name)
        self.products: list[tuple[np.ndarray, np.ndarray]] | None = None
        self.factors: list[float] | None = None
        self.store = None
        self.at = 0

    def read(self) -> np.ndarray:
        return self.value if self.store is None else self.store.read_values(self)

    def write(self, values: np.ndarray) -> None:
        if self.store is None:
            super().write(values)
        else:
            self.store.write_values(self, values)

    def write_part(self, start: int, values: np.ndarray) -> None:
        """Write the flat `values` as the weight's elements from `start`, in
        C order. `start` is a multiple of `CHUNK`, and the part ends at the
        weight's end or at another multiple of `CHUNK`."""
        if self.store is None:
            # `flat` indexes any layout; a view of contiguous values is faster
            flat = self.value.reshape(-1) if self.value.flags.c_contiguous else self.value.flat
            flat[start : start + values.size] = values
        else:
            self.store.write_values(self, values, start)

    def defer(self) -> None:
        """Drop the stored gradient: from now on it is zero plus the
        products recorded."""
        self.grad = None
        self.products, self.factors = [], []

    def add_product(self, a: np.ndarray, b: np.ndarray) -> None:
        """`grad += a @ b`."""
        if self.grad is None:
            self.products.append((a, b))
        else:
            self.grad += a @ b

    def gradient(self) -> np.ndarray:
        """The stored gradient, or else the one rebuilt in the slot of the
        file that holds the values, or in fresh storage if none does."""
        if self.grad is not None:
            return self.grad
        n = self.value.size
        g = (np.empty(n) if self.store is None else self.store.lend()[:n]).reshape(self.value.shape)
        if not self.products:
            g.fill(0.0)
        else:
            # the first product into zeroed storage: adding 0.0 turns each
            # -0.0 into 0.0, as `+=` into +0.0 zeros does
            (a, b), *rest = self.products
            np.matmul(a, b, out=g)
            g += 0.0
            for a, b in rest:
                g += a @ b
        for factor in self.factors:
            g *= factor
        return g

    def scale_grad(self, factor: float) -> None:
        if self.grad is None:
            self.factors.append(factor)
        else:
            super().scale_grad(factor)

    def release_grad(self) -> None:
        super().release_grad()
        self.products = self.factors = None


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

    def state_arrays(self, prefix: str = "") -> "StateArrays":
        """The live (uncopied) state arrays, keyed by `prefix` + dotted path,
        each read when looked up (see `StateArrays`)."""
        return StateArrays(self._state_parts(prefix))

    def load_state(
        self,
        arrays: Mapping[str, np.ndarray],
        source: str | Path = "snapshot",
        prefix: str = "",
        copy: bool = True,
    ) -> None:
        """Copy saved arrays, keyed by `prefix` + dotted path, into the live
        state in place, looking each up once, in state order, and writing it
        before the next (so `arrays` may read them one at a time, as an open
        checkpoint does). Every key must be present with the live array's
        exact shape, else nothing is loaded; errors name `source` (the
        checkpoint path) and the key. Keys the model lacks are ignored.

        With `copy=False` each `Param` takes the saved array itself instead
        (plain arrays are still copied): for models that only run inference,
        whose params are in no optimizer's arena."""
        live = dict(self._state_parts(prefix))
        check_arrays(arrays, {key: part.shape for key, part in live.items()}, source)
        for key, part in live.items():
            if not isinstance(part, Param):
                part[...] = arrays[key]
            elif copy:
                part.write(arrays[key])
            else:
                part.value = np.asarray(arrays[key], dtype=np.float64)


class StateArrays(Mapping):
    """A model's state arrays by key, in checkpoint order. Looking up a
    param's key reads its values (`Param.read`), so a file-resident
    weight's array is valid only until its file's slot is next read: take
    one at a time, as `save_checkpoint` does. A key set here, as
    `_save_group` sets the scaler's, holds the plain array given."""

    def __init__(self, parts: Iterable[tuple[str, "Param | np.ndarray"]]):
        self._parts = dict(parts)

    def __getitem__(self, key: str) -> np.ndarray:
        part = self._parts[key]
        return part.read() if isinstance(part, Param) else part

    def __setitem__(self, key: str, value: np.ndarray) -> None:
        self._parts[key] = value

    def __contains__(self, key: object) -> bool:
        return key in self._parts

    def __iter__(self) -> Iterator[str]:
        return iter(self._parts)

    def __len__(self) -> int:
        return len(self._parts)


# ---------------------------------------------------------------------------
# activations


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


def activation_backward(grad: np.ndarray, out: np.ndarray, act: Activation) -> np.ndarray:
    """Gradient wrt the pre-activation, given upstream grad and the forward
    output. ELU and LeakyReLU map x > 0 to out > 0 and x <= 0 to out <= 0
    (-0.0 or an underflow included), so `out > 0` is the mask `x > 0`."""
    if isinstance(act, Elu):
        # d/dx = 1 for x > 0, alpha * e^x = out + alpha otherwise
        return grad * np.where(out > 0, 1.0, out + act.alpha)
    if isinstance(act, LeakyRelu):
        return grad * np.where(out > 0, 1.0, act.slope)
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

    @property
    def n_params(self) -> int:
        """The block's trainable values: W, b, and batchnorm's gamma and beta."""
        return (self.in_dim + 1 + 2 * self.batchnorm) * self.out_dim


def dense_stack(widths: Sequence[int], activation: Activation, dropout: float | Sequence[float],
                batchnorm: bool = True, out_dim: int | None = None) -> list[DenseLayerSpec]:
    """The specs of hidden blocks along `widths`, the input width first:
    each with `activation`, `batchnorm` and a dropout rate (`dropout` gives
    one per block, or one for all). Given `out_dim`, a plain linear layer
    to it follows."""
    rates = dropout if isinstance(dropout, Sequence) else [dropout] * (len(widths) - 1)
    specs = [DenseLayerSpec(a, b, activation, batchnorm, p)
             for a, b, p in zip(widths[:-1], widths[1:], rates, strict=True)]
    if out_dim is not None:
        specs.append(DenseLayerSpec(widths[-1], out_dim, Identity()))
    return specs


def needs_train_forward(name: str) -> RuntimeError:
    """The error of a backward that no train-mode forward kept a cache for."""
    return RuntimeError(f"{name}: backward needs a train-mode forward before it")


class BatchNorm(Module):
    """Per-feature batch normalization over axis 0. Train mode normalizes
    with the batch's statistics and updates the running ones; eval mode
    normalizes with the running statistics and keeps nothing."""

    momentum = 0.1
    eps = 1e-5

    def __init__(self, dim: int, name: str = ""):
        self.name = name
        self.gamma = Param(np.ones(dim), name=f"{name}.gamma")
        self.beta = Param(np.zeros(dim), name=f"{name}.beta")
        self.running_mean = np.zeros(dim)
        self.running_var = np.ones(dim)
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
            # xhat = centered * inv_std is not kept: the backward recomputes
            # it with the same product, bit for bit
            self._cache = (centered, inv_std)
            out = centered * inv_std
        else:
            self._cache = None
            out = (x - self.running_mean) / np.sqrt(self.running_var + self.eps)
        out *= self.gamma.value
        out += self.beta.value
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise needs_train_forward(f"batchnorm {self.name!r}")
        add = np.add.reduce
        centered, inv_std = self._cache
        self._cache = None
        self.beta.grad += add(grad, axis=0)
        gx = centered * inv_std  # the forward's xhat
        gx *= grad
        self.gamma.grad += add(gx, axis=0)
        del gx
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

    `forward(x, train=True)` keeps the input, the activation output and the
    dropout draw for `backward`; `forward(x, train=False)` keeps nothing.

    `rng` draws the initial weights (`draw`); None leaves them zero
    (unmapped pages, for a W of at least malloc's mmap threshold; see
    `Param`), for a layer whose state is loaded or drawn next."""

    def __init__(self, spec: DenseLayerSpec, rng: np.random.Generator | None, name: str = "dense"):
        self.spec = spec
        self.name = name
        self.W = Weight(np.zeros((spec.in_dim, spec.out_dim)), name=f"{name}.W")
        self.b = Param(np.zeros(spec.out_dim), name=f"{name}.b")
        self.bn = BatchNorm(spec.out_dim, name=f"{name}.bn") if spec.batchnorm else None
        self._cache = None
        if rng is not None:
            self.draw(rng)

    def draw(self, rng: np.random.Generator) -> None:
        """Draw W from `rng`, normal with the layer's init scale, one `CHUNK`
        of the flat C-order weight at a time, and write each chunk wherever
        the weight's values live before drawing the next. numpy draws a
        normal array element by element, so the chunks hold the bytes of
        one `rng.normal(0, scale, size=W.shape)` and leave `rng` as it
        would: only a chunk is ever held."""
        scale = _init_scale(self.spec)
        size = self.W.value.size
        for a in range(0, size, CHUNK):
            self.W.write_part(a, rng.normal(0.0, scale, size=min(CHUNK, size - a)))

    def forward(self, x: np.ndarray, train: bool = False, rng: np.random.Generator | None = None) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.spec.in_dim:
            raise ShapeError(
                f"layer {self.name!r} expects input (batch, {self.spec.in_dim}), got {x.shape}"
            )
        z = x @ self.W.read()
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
        # the pre-activation h is not kept: the backward needs only `a`
        self._cache = (x, a, kept) if train else None
        return out

    def _dropout_mask(self, kept: np.ndarray) -> np.ndarray:
        """Inverted-dropout scale: 1/(1-p) where a unit is kept, else 0."""
        return np.where(kept, 1.0 / (1.0 - self.spec.dropout_p), 0.0)

    def backward(self, grad: np.ndarray, input_grad: bool = True) -> np.ndarray | None:
        """Accumulate parameter gradients and return the gradient wrt the
        input, or None without `input_grad` (a first layer's caller has no
        use for it, and it costs a GEMM the size of the forward's)."""
        if self._cache is None:
            raise needs_train_forward(f"layer {self.name!r}")
        x, act_out, kept = self._cache
        self._cache = None
        if kept is not None:
            grad = grad * self._dropout_mask(kept)
        del kept
        grad = activation_backward(grad, act_out, self.spec.activation)
        del act_out
        if self.bn is not None:
            grad = self.bn.backward(grad)
        self.W.add_product(x.T, grad)
        del x
        self.b.grad += np.add.reduce(grad, axis=0)
        return grad @ self.W.read().T if input_grad else None

    def parts(self) -> list:
        return [("W", self.W), ("b", self.b), ("bn", self.bn)]


# the elements from which an optimizer holds a weight wide: its gradient
# deferred as products, its values and moments in the scratch file (see
# `popgate.nn.optim`)
SMALL_PRODUCT = 65536

# the elements that a weight's draw, and an optimizer's step and scratch-file
# reads and writes, take at a time
CHUNK = 65536


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

    def forward(self, x: np.ndarray, train: bool = False, rng: np.random.Generator | None = None) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x, train=train, rng=rng)
        return x

    def backward(self, grad: np.ndarray, input_grad: bool = True) -> np.ndarray | None:
        """Backprop through every layer; see `Dense.backward` for `input_grad`."""
        for layer in reversed(self.layers[1:]):
            grad = layer.backward(grad)
        return self.layers[0].backward(grad, input_grad)

    def parts(self) -> list:
        return [(f"layer{i}", layer) for i, layer in enumerate(self.layers)]


class Snapshot:
    """A copy of a module's state, taken by `snapshot_state` to keep a
    training run's best epoch; `restore` writes it back in place.

    A file-resident weight's values are copied to the best region of its
    scratch file (see `popgate.nn.optim`), so they take no RAM, and a file
    holds one snapshot of its weights. Every other entry, a stored param or
    a plain array such as batchnorm's running statistics, is copied into an
    array of its own, allocated once and overwritten by each later take."""

    def __init__(self, module: Module):
        self._parts = [part for _, part in module._state_parts()]
        self._copies = [None if isinstance(part, Weight) and part.store is not None
                        else np.empty(part.shape) for part in self._parts]

    def take(self) -> None:
        for part, copy in zip(self._parts, self._copies):
            if copy is None:
                part.store.copy_best(part, keep=True)
            else:
                np.copyto(copy, part.read() if isinstance(part, Param) else part)

    def restore(self) -> None:
        for part, copy in zip(self._parts, self._copies):
            if copy is None:
                part.store.copy_best(part, keep=False)
            elif isinstance(part, Param):
                part.write(copy)
            else:
                part[...] = copy


def snapshot_state(module: Module, into: Snapshot | None = None) -> Snapshot:
    """Take a `Snapshot` of `module`'s state, one array at a time. `into`,
    an earlier snapshot of the same module, is taken again in place and
    returned, so keeping the best epoch holds one copy, not two."""
    snapshot = Snapshot(module) if into is None else into
    snapshot.take()
    return snapshot
