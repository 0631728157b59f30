"""Adam and AdamW with bias correction, plus global gradient clipping.

Update per step t:
    m = b1 m + (1-b1) g;  v = b2 v + (1-b2) g^2
    theta -= lr * (m / (1-b1^t)) / (sqrt(v / (1-b2^t)) + eps)
AdamW applies decoupled decay theta -= lr * wd * theta before the Adam update.

The optimizer owns its parameters' storage. A wide weight is a `Weight` of
at least `SMALL_PRODUCT` elements; every other param is stored. Construction
copies each stored param's value, in the order given, into one flat float64
buffer (the arena) and rebinds `p.value` to a reshaped view of it, and its
gradient into a second arena the same way. Layers keep reading and
accumulating into those views in place; nothing may rebind them afterwards.
`m` and `v`, the stored params' moments, line up with the arena. With the
arena, `zero_grad` is one fill, and `step` walks each contiguous run of
equal decay in chunks of `CHUNK` elements through two chunk-sized scratch
buffers, instead of building full-size temporaries per parameter.

Where the values live. A wide weight's values, and its moments, live in the
optimizer's scratch file for as long as the weight lives, not in RAM: the
weight holds the file (`Weight.store`), so the file outlives the optimizer,
and its `value` becomes a read-only placeholder that holds no memory.
Construction writes every wide weight's values there before any weight
gives up its own array, skipping all-zero chunks (the file starts as
zeros), so a model built with zero weights on unmapped pages, and then
drawn one chunk of one weight at a time (`Dense.draw`, through
`Weight.write_part`), never holds even one weight's values outside the
slot.

The slot. RAM holds one array the size of the largest wide weight, the
slot, and in turn it holds:
- the values of the weight that a `Dense.forward` or `Dense.backward`
  multiplies by, read in by `Weight.read` when the slot does not already
  hold them, and read-only: a checkpoint of the state reads each weight
  the same way, one at a time;
- each deferred gradient that `clip_grad_norm` and `step` rebuild
  (`Weight.gradient`).
A wide weight's gradient is held nowhere between backward and step:
`zero_grad` defers it (`Weight.defer`), so backward records the products it
is the sum of. `clip_grad_norm` rebuilds each such gradient in turn in the
slot for its sum of squares and records its factor, and `step` rebuilds it
again, scaled, for the update. That costs one more product per wide weight
and step; the rebuilt gradient is bit for bit the one a stored gradient
would hold. The step then reads each chunk of the weight's values with its
moments into three chunk-sized buffers, updates them, and writes them back.
It performs the same elementwise operations in the same order as the
per-parameter form above, so params and moments are bit-identical to it.

The file. One unlinked temporary file (`tempfile.TemporaryFile`, under
`TMPDIR`), sized once with `ftruncate` to 32 bytes per wide element, in
two regions. In the first, each wide weight, in the order given, is cut
into chunks of `CHUNK` elements from its start (the last one shorter), and
each chunk of n elements takes 24 n bytes: its `m`, its `v`, then its
values. So one `preadv` reads a chunk's moments and values, one `pwritev`
writes them back, and a weight's values are read into the slot one chunk
per `preadv`. The second, the best region, holds 8 bytes per element, the
weights in the same order: the values of the state that a trainer keeps
as its best epoch (`popgate.nn.layers.snapshot_state`). `copy_best`
copies a weight's values there or back, each chunk through a chunk
buffer, so the best epoch takes no RAM; a file holds one best epoch of its
weights. The file is read and written, never mapped, because the file
pages a process maps count in its resident set. Step 1 reads no moments:
they start at zero. An optimizer without a wide weight opens no file and
allocates no slot or buffer.

Errors. The file is closed when the last of its optimizer and weights goes,
on any failed or short read or write, and on any error in a step; its
weights' values are then gone, and using one raises. A call from a process
other than the one that opened the file is refused, so each forked process
builds its own optimizer. A failing read or write, or any use of a closed
file, ends the call with a `PopgateError` that names the operation, the
byte offset and the file's directory. A construction that fails leaves
every weight its own values.
"""

from __future__ import annotations

import math
import os
import tempfile
import weakref
from typing import Iterable, Sequence

import numpy as np

from ..exceptions import PopgateError
from .layers import CHUNK, SMALL_PRODUCT, Param, Weight

ParamGroups = Sequence[tuple[Sequence[Param], float]]


class Adam:
    """Plain `Param` entries take the class's `weight_decay` (0 for Adam);
    explicit (params, decay) groups set it per group."""

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8
    weight_decay = 0.0

    def __init__(self, params: Sequence[Param] | ParamGroups, lr: float):
        if lr <= 0:
            raise ValueError(f"learning rate must be > 0, got {lr}")
        entries = _decay_pairs(params, self.weight_decay)
        if not entries:
            raise ValueError("optimizer needs at least one parameter")
        self.lr = lr
        self.step_count = 0
        self._params = [p for p, _ in entries]
        stored = [(p, wd) for p, wd in entries if not _is_wide(p)]
        wide = [(p, wd) for p, wd in entries if _is_wide(p)]
        # each wide weight's offset in the scratch file, and its decay
        self._wide: list[tuple[Weight, int, float]] = []
        self._file = None
        if wide:
            self._file = _ScratchFile(sum(p.value.size for p, _ in wide),
                                      max(p.value.size for p, _ in wide))
            at = 0
            for p, wd in wide:
                self._wide.append((p, at, wd))
                at += p.value.size
            self._file.adopt([(p, at) for p, at, _ in self._wide])
        self._values = _build_arena([p for p, _ in stored], "value")
        self._grads = _build_arena([p for p, _ in stored], "grad")
        self.m = np.zeros(self._grads.size)
        self.v = np.zeros(self._grads.size)
        # [lo, hi) spans of the stored params with one decay, adjacent equal
        # decays merged
        self._runs: list[tuple[int, int, float]] = []
        lo = 0
        for p, wd in stored:
            hi = lo + p.value.size
            if self._runs and self._runs[-1][2] == wd:
                self._runs[-1] = (self._runs[-1][0], hi, wd)
            else:
                self._runs.append((lo, hi, wd))
            lo = hi
        width = min(CHUNK, sum(p.value.size for p in self._params))
        self._scratch = (np.empty(width), np.empty(width))

    @property
    def params(self) -> list[Param]:
        return list(self._params)

    def zero_grad(self) -> None:
        self._grads.fill(0.0)
        for p, _, _ in self._wide:
            p.defer()

    def step(self) -> None:
        self.step_count += 1
        for lo, hi, wd in self._runs:
            for a in range(lo, hi, CHUNK):
                b = min(a + CHUNK, hi)
                self._update(self._values[a:b], self._grads[a:b], self.m[a:b], self.v[a:b], wd)
        if self._file is None:
            return
        file = self._file
        file.check_owner()
        try:
            for p, at, wd in self._wide:
                grad = p.gradient().reshape(-1)  # in the slot
                for a in range(0, grad.size, CHUNK):
                    b = min(a + CHUNK, grad.size)
                    x, m, v = file.read_chunk(at + a, b - a, fresh=self.step_count == 1)
                    self._update(x, grad[a:b], m, v, wd)
                    file.write_chunk(at + a, b - a)
        except BaseException:
            file.close()
            raise

    def _update(self, x: np.ndarray, g: np.ndarray, m: np.ndarray, v: np.ndarray,
                wd: float) -> None:
        """Step the values `x` of one chunk with decay `wd`, given their
        gradient `g` and moments `m` and `v`, all of one length."""
        t = self.step_count
        lr, b1, b2, eps = self.lr, self.beta1, self.beta2, self.eps
        bc1 = 1.0 - b1**t
        bc2 = 1.0 - b2**t
        s, u = self._scratch[0][: x.size], self._scratch[1][: x.size]
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


class _ScratchFile:
    """The values, moments and best values of `size` wide elements in an
    unlinked temporary file, and the slot of `largest` elements: see the
    module docstring for the layout. Its weights hold it, each at its
    element offset `Weight.at`; `holds` is the offset of the weight whose
    values the slot holds, -1 for none; `best` is the byte offset of the
    best region."""

    def __init__(self, size: int, largest: int):
        self.pid = os.getpid()
        try:
            file = tempfile.TemporaryFile(buffering=0)
        except OSError as e:
            raise _scratch_failed(f"cannot create it: {e}") from e
        self.fileno = file.fileno
        self.close = weakref.finalize(self, file.close)
        try:
            os.ftruncate(file.fileno(), 32 * size)
        except OSError as e:
            self.close()
            raise _scratch_failed(f"cannot size it to {32 * size} bytes: {e}") from e
        self.best = 24 * size
        self.slot = np.empty(largest)
        self.holds = -1
        self.m, self.v, self.x = np.empty(CHUNK), np.empty(CHUNK), np.empty(CHUNK)

    def check_owner(self) -> None:
        if os.getpid() != self.pid:
            raise PopgateError(
                f"the optimizer's scratch file belongs to process {self.pid}, not {os.getpid()}:"
                " a forked process must build its own optimizer")

    def adopt(self, weights: list[tuple[Weight, int]]) -> None:
        """Write each weight's values at its offset, then make the file
        their home; until every write is done, each keeps its own array."""
        for w, at in weights:
            values = w.read().reshape(-1)
            for a, n in _chunks(values.size):
                if values[a : a + n].any():  # the file holds zeros until written
                    self._move("pwritev", [values[a : a + n]], 24 * (at + a) + 16 * n)
        for w, at in weights:
            w.value = np.broadcast_to(np.float64(np.nan), w.value.shape)
            w.store, w.at = self, at

    def read_values(self, w: Weight) -> np.ndarray:
        """`w`'s values in the slot, read in unless it holds them already."""
        self.check_owner()
        flat = self.slot[: w.value.size]
        if self.holds != w.at or not self.close.alive:
            self.holds = -1
            for a, n in _chunks(flat.size):
                self._move("preadv", [flat[a : a + n]], 24 * (w.at + a) + 16 * n)
            self.holds = w.at
        view = flat.reshape(w.value.shape)
        view.flags.writeable = False
        return view

    def write_values(self, w: Weight, values: np.ndarray, start: int = 0) -> None:
        """Write `values`, in C order, as `w`'s elements from `start`: all of
        them by default, or else whole chunks (`Weight.write_part`)."""
        self.check_owner()
        if self.holds == w.at:
            self.holds = -1
        flat = np.ascontiguousarray(values, dtype=np.float64).reshape(-1)
        for a in range(0, flat.size, CHUNK):
            n = min(CHUNK, w.value.size - start - a)
            self._move("pwritev", [flat[a : a + n]], 24 * (w.at + start + a) + 16 * n)

    def copy_best(self, w: Weight, keep: bool) -> None:
        """Copy `w`'s values into the best region if `keep`, else back."""
        self.check_owner()
        if not keep and self.holds == w.at:
            self.holds = -1
        for a, n in _chunks(w.value.size):
            spots = [24 * (w.at + a) + 16 * n, self.best + 8 * (w.at + a)]
            src, dst = spots if keep else spots[::-1]
            self._move("preadv", [self.x[:n]], src)
            self._move("pwritev", [self.x[:n]], dst)

    def lend(self) -> np.ndarray:
        """The slot, flat, as storage for a rebuilt gradient."""
        self.check_owner()
        self.holds = -1
        return self.slot

    def read_chunk(self, at: int, n: int, fresh: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The values, `m` and `v` of the chunk of elements [at, at + n), in
        three chunk-sized buffers; the moments are zeros if `fresh`."""
        x, m, v = self.x[:n], self.m[:n], self.v[:n]
        if fresh:
            m.fill(0.0)
            v.fill(0.0)
            self._move("preadv", [x], 24 * at + 16 * n)
        else:
            self._move("preadv", [m, v, x], 24 * at)
        return x, m, v

    def write_chunk(self, at: int, n: int) -> None:
        """Write back the chunk that `read_chunk` read."""
        self._move("pwritev", [self.m[:n], self.v[:n], self.x[:n]], 24 * at)

    def _move(self, op: str, bufs: list[np.ndarray], offset: int) -> None:
        """`os.preadv` or `os.pwritev` of `bufs` at byte `offset`; anything
        short of all their bytes closes the file and fails, and so does a
        file already closed."""
        want = sum(b.nbytes for b in bufs)
        try:
            moved = getattr(os, op)(self.fileno(), bufs, offset)
        except (OSError, ValueError) as e:  # ValueError: the file is closed
            self.close()
            raise _scratch_failed(f"{op} at byte {offset}: {e}") from e
        if moved != want:
            self.close()
            raise _scratch_failed(f"{op} moved {moved} of {want} bytes at byte {offset}")


def _chunks(size: int) -> Iterable[tuple[int, int]]:
    """(start, length) of each chunk of an array of `size` elements."""
    return ((a, min(CHUNK, size - a)) for a in range(0, size, CHUNK))


def _scratch_failed(what: str) -> PopgateError:
    return PopgateError(
        f"optimizer scratch file (wide weights' values and Adam's moments, unlinked, in"
        f" {tempfile.gettempdir()}; TMPDIR sets the directory): {what}")


class AdamW(Adam):
    """Adam with decoupled weight decay. Plain `Param` sequences all share
    `weight_decay`; pass explicit (params, decay) groups to vary it."""

    weight_decay = 0.01


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


def _is_wide(p: Param) -> bool:
    """Whether `p` is a weight whose gradient the optimizer does not store."""
    return isinstance(p, Weight) and p.value.size >= SMALL_PRODUCT


def _build_arena(params: list[Param], attr: str) -> np.ndarray:
    """Move each param's `attr` array ("value" or "grad") into one flat
    buffer, in order, and rebind it as a view. Each old array is released
    as soon as it is copied."""
    arena = np.empty(sum(p.value.size for p in params))
    lo = 0
    for p in params:
        hi = lo + p.value.size
        view = arena[lo:hi].reshape(p.shape)
        view[...] = getattr(p, attr)
        setattr(p, attr, view)
        lo = hi
    return arena


def clip_grad_norm(params: Iterable[Param], max_norm: float) -> float:
    """Scale all gradients so their global L2 norm is at most max_norm.

    Returns the applied factor (1.0 when no scaling occurred). The sum of
    squares is taken per param and then added up, so each param's pairwise
    summation order is fixed regardless of where its storage lives. A
    stored gradient is scaled in place, so no step allocates more than
    `CHUNK` elements for it; a deferred one (see `Weight`) is rebuilt for
    its sum of squares, in its scratch file's slot, and records the factor.
    """
    if max_norm <= 0:
        raise ValueError(f"max_norm must be > 0, got {max_norm}")
    params = list(params)
    total = 0.0
    for p in params:
        total += float(_sum_squares(p.gradient()))
    norm = math.sqrt(total)
    if norm <= max_norm or norm == 0.0:
        return 1.0
    factor = max_norm / norm
    for p in params:
        p.scale_grad(factor)
    return factor


def _sum_squares(g: np.ndarray) -> np.float64:
    """`np.add.reduce(g * g, axis=None)`, bit for bit, without a `g * g`
    longer than `CHUNK`. numpy sums pairwise, in memory order: an array
    longer than 128 elements is split at n//2 rounded down to a multiple of
    8, and each half summed the same way. A longer `g` is split here the
    same way, down to halves short enough to hand to numpy whole."""
    n = g.size
    if n <= CHUNK:
        return np.add.reduce(g * g, axis=None)
    g = g.ravel(order="K")
    half = n // 2
    half -= half % 8
    return _sum_squares(g[:half]) + _sum_squares(g[half:])
