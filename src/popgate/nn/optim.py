"""Adam and AdamW with bias correction, plus global gradient clipping.

Update per step t:
    m = b1 m + (1-b1) g;  v = b2 v + (1-b2) g^2
    theta -= lr * (m / (1-b1^t)) / (sqrt(v / (1-b2^t)) + eps)
AdamW applies decoupled decay theta -= lr * wd * theta before the Adam update.

The optimizer owns its parameters' storage. Construction copies every value,
in the order given, into one flat float64 buffer (the arena) and rebinds
`p.value` to a reshaped view of it. The gradients go into a second arena
the same way, except a wide weight's: a `Weight` of at least
`SMALL_PRODUCT` elements. So the grad arena holds only the gradients of
params below that size, and those params come first in the value arena,
the wide weights after them. Layers keep reading and accumulating into
those views in place; nothing may rebind them afterwards. A second
optimizer built over the same params moves them into its own arenas, and
the first one is not to be used again.

A wide weight's gradient is held nowhere between backward and step:
`zero_grad` defers it (`Weight.defer`), so backward records the products
it is the sum of. `clip_grad_norm` rebuilds each such gradient in turn for
its sum of squares and records its factor, and `step` rebuilds it again,
scaled, for the update. Each call rebuilds them one after another in the
arena slice of the largest wide weight (L), whose values wait in the
optimizer's scratch file for the length of the call, so no weight-sized
array is allocated: `clip_grad_norm` parks L's values there and reads them
back before it returns; `step` parks them, steps every other wide weight,
then steps L last, reading each chunk of its values from the file and
writing the updated chunk over the chunk of L's gradient just consumed, so
that L is whole again when it returns. Between calls every value is in the
arena. Construction moves L the same way: its drawn values go to the file
and are dropped before the other params are copied in, and are read into
L's slice last, so the arena never sits beside a second copy of L. That
costs one more product per wide weight and step, and two passes over L's
values per call through the file; the rebuilt gradient is bit for bit the
one a stored gradient would hold.

With the arena, `zero_grad` is one fill, and `step` walks each contiguous
run of equal decay, and each wide weight, in chunks of `CHUNK` elements
through two chunk-sized scratch buffers, instead of building full-size
temporaries per parameter. The step performs the same elementwise
operations in the same order as the per-parameter form above, so params
and moments are bit-identical to it.

The moments of the params with a stored gradient live in RAM, in `m` and
`v`, which line up with the front of the value arena. A wide weight's
moments live in one unlinked temporary file (`tempfile.TemporaryFile`,
under `TMPDIR`), sized once with `ftruncate`: each chunk's `m` and then
its `v`, side by side, in arena order, and after them the region where L's
values are parked. Per chunk, one `preadv` reads both moments into two
chunk-sized buffers, and after the update one `pwritev` writes them back.
The file is read and written, never mapped, because the file pages a
process maps count in its resident set. Step 1 reads no moments: they
start at zero. An optimizer without a wide weight opens no file and
allocates no buffer for it. The file is closed when its optimizer goes,
on any failed or short read or write, and on any error in a step; a clip
that fails otherwise still reads L back. A call from a process other than
the one that opened the file is refused, so each forked process builds its
own optimizer. A failing read or write ends the call with a `PopgateError`
that names the file's directory.
"""

from __future__ import annotations

import contextlib
import math
import os
import tempfile
import weakref
from typing import Iterable, Sequence

import numpy as np

from ..exceptions import PopgateError
from .layers import SMALL_PRODUCT, Param, Weight

ParamGroups = Sequence[tuple[Sequence[Param], float]]

CHUNK = 65536


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
        # the largest wide weight, L: its slice is the storage each wide
        # gradient is rebuilt in, while its values wait in the moments file
        self._largest = max((p for p, _ in wide), key=lambda p: p.value.size, default=None)
        self._moments = None
        if wide:
            self._moments = _MomentFile(sum(p.value.size for p, _ in wide),
                                        self._largest.value.size)
            self._moments.park(self._largest.value)
        self._values = _build_arena([p for p, _ in stored + wide], "value", self._largest)
        if wide:
            self._moments.unpark(self._largest.value)
        self._grads = _build_arena([p for p, _ in stored], "grad")
        self.m = np.zeros(self._grads.size)
        self.v = np.zeros(self._grads.size)
        # [lo, hi) spans of the stored params with one decay, adjacent equal
        # decays merged, then each wide weight's offset and decay, L last: its
        # slice holds each other wide weight's gradient in turn
        self._runs: list[tuple[int, int, float]] = []
        lo = 0
        for p, wd in stored:
            hi = lo + p.value.size
            if self._runs and self._runs[-1][2] == wd:
                self._runs[-1] = (self._runs[-1][0], hi, wd)
            else:
                self._runs.append((lo, hi, wd))
            lo = hi
        self._wide: list[tuple[Weight, int, float]] = []
        for p, wd in wide:
            self._wide.append((p, lo, wd))
            p.lender = weakref.ref(self)
            lo += p.value.size
        self._wide.sort(key=lambda w: w[0] is self._largest)
        width = min(CHUNK, self._values.size)
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
        if self._moments is None:
            return
        moments = self._moments
        moments.check_owner()
        try:
            buf = self._largest.value.reshape(-1)
            moments.park(buf)
            for p, lo, wd in self._wide:
                grad = p.gradient(buf).reshape(-1)
                for a in range(0, grad.size, CHUNK):
                    b = min(a + CHUNK, grad.size)
                    # the file's elements follow those of `m` in arena order
                    at = lo + a - self.m.size
                    m, v = moments.read(at, b - a, fresh=self.step_count == 1)
                    if p is self._largest:
                        x = moments.read_parked(a, b - a)
                        self._update(x, grad[a:b], m, v, wd)
                        buf[a:b] = x  # over the gradient chunk just used
                    else:
                        self._update(self._values[lo + a : lo + b], grad[a:b], m, v, wd)
                    moments.write(at, b - a)
        except BaseException:
            moments.close()
            raise

    @contextlib.contextmanager
    def _lend(self):
        """L's arena slice, flat, as storage for the block; L's values wait
        in the moments file meanwhile and are back when the block ends."""
        self._moments.check_owner()
        buf = self._largest.value.reshape(-1)
        self._moments.park(buf)
        try:
            yield buf
        finally:
            self._moments.unpark(buf)

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


class _MomentFile:
    """`m` and `v` of `size` elements, in an unlinked temporary file that
    holds each chunk's `m` and then its `v`, followed by a region of
    `parked` elements for the values of the largest wide weight. `read`
    moves a chunk's pair into the two chunk-sized buffers `m` and `v`,
    `write` moves it back; `park` and `unpark` move the values."""

    def __init__(self, size: int, parked: int):
        self.pid = os.getpid()
        try:
            file = tempfile.TemporaryFile(buffering=0)
        except OSError as e:
            raise _moments_failed(f"cannot create it: {e}") from e
        self.fileno = file.fileno
        self.close = weakref.finalize(self, file.close)
        self.base = 16 * size
        try:
            os.ftruncate(file.fileno(), self.base + 8 * parked)
        except OSError as e:
            self.close()
            raise _moments_failed(f"cannot size it to {self.base + 8 * parked} bytes: {e}") from e
        self.m, self.v, self.x = np.empty(CHUNK), np.empty(CHUNK), np.empty(CHUNK)

    def check_owner(self) -> None:
        if os.getpid() != self.pid:
            raise PopgateError(
                f"the optimizer's moments file belongs to process {self.pid}, not {os.getpid()}:"
                " a forked process must build its own optimizer")

    def read(self, at: int, n: int, fresh: bool) -> tuple[np.ndarray, np.ndarray]:
        """The moments of elements [at, at + n), zeros if `fresh`."""
        m, v = self.m[:n], self.v[:n]
        if fresh:
            m.fill(0.0)
            v.fill(0.0)
        else:
            self._move("preadv", [m, v], 16 * at)
        return m, v

    def write(self, at: int, n: int) -> None:
        self._move("pwritev", [self.m[:n], self.v[:n]], 16 * at)

    def park(self, values: np.ndarray) -> None:
        """Write `values`, a contiguous float64 array, to the parked region."""
        flat = values.reshape(-1)
        for a in range(0, flat.size, CHUNK):
            self._move("pwritev", [flat[a : a + CHUNK]], self.base + 8 * a)

    def unpark(self, values: np.ndarray) -> None:
        """Read the parked region into `values`, a contiguous float64 array."""
        flat = values.reshape(-1)
        for a in range(0, flat.size, CHUNK):
            self._move("preadv", [flat[a : a + CHUNK]], self.base + 8 * a)

    def read_parked(self, a: int, n: int) -> np.ndarray:
        """Parked elements [a, a + n), in the chunk-sized buffer `x`."""
        x = self.x[:n]
        self._move("preadv", [x], self.base + 8 * a)
        return x

    def _move(self, op: str, bufs: list[np.ndarray], offset: int) -> None:
        """`os.preadv` or `os.pwritev` of `bufs` at byte `offset`; anything
        short of all their bytes closes the file and fails."""
        want = sum(b.nbytes for b in bufs)
        try:
            moved = getattr(os, op)(self.fileno(), bufs, offset)
        except OSError as e:
            self.close()
            raise _moments_failed(f"{op} at byte {offset}: {e}") from e
        if moved != want:
            self.close()
            raise _moments_failed(f"{op} moved {moved} of {want} bytes at byte {offset}")


def _moments_failed(what: str) -> PopgateError:
    return PopgateError(
        f"optimizer scratch file (Adam's moments and parked values, unlinked, in {tempfile.gettempdir()};"
        f" TMPDIR sets the directory): {what}")


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


def _build_arena(params: list[Param], attr: str, parked: Param | None = None) -> np.ndarray:
    """Move each param's `attr` array ("value" or "grad") into one flat
    buffer, in order, and rebind it as a view. Each old array is released
    as soon as it is copied. `parked`, whose values the caller has put
    elsewhere, is rebound first and its slice left unwritten, so its old
    array is gone before any other is copied."""
    arena = np.empty(sum(p.value.size for p in params))
    bounds = np.cumsum([0] + [p.value.size for p in params]).tolist()
    views = [arena[lo:hi].reshape(p.shape) for p, lo, hi in zip(params, bounds, bounds[1:])]
    if parked is not None:
        setattr(parked, attr, views[params.index(parked)])
    for p, view in zip(params, views):
        if p is not parked:
            view[...] = getattr(p, attr)
            setattr(p, attr, view)
    return arena


def clip_grad_norm(params: Iterable[Param], max_norm: float) -> float:
    """Scale all gradients so their global L2 norm is at most max_norm.

    Returns the applied factor (1.0 when no scaling occurred). The sum of
    squares is taken per param and then added up, so each param's pairwise
    summation order is fixed regardless of where its storage lives. A
    stored gradient is scaled in place, so no step allocates more than
    `CHUNK` elements for it; a deferred one (see `Weight`) is rebuilt for
    its sum of squares, and records the factor. The rebuilds borrow the
    largest wide weight's storage from the optimizer that the first
    deferred weight names (see the module docstring); a deferred weight
    whose optimizer is gone is rebuilt in fresh storage.
    """
    if max_norm <= 0:
        raise ValueError(f"max_norm must be > 0, got {max_norm}")
    params = list(params)
    lender = next((o for p in params if p.grad is None and (o := p.lender and p.lender())), None)
    total = 0.0
    with (lender._lend() if lender is not None else contextlib.nullcontext()) as buf:
        for p in params:
            total += float(_sum_squares(p.gradient(buf)))
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
