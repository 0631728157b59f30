"""The training step's weight-sized work allocates no weight-sized array,
building an optimizer holds no second copy of a wide weight, and
BatchNorm's forward keeps no batch-sized array its backward recomputes.

numpy reports each array buffer it allocates to `tracemalloc`, so these peaks
are deterministic; BLAS's own work buffers are not counted. The layer is
2000 x 1000 (16 MB of weights), and a bound of a quarter of that leaves room
for the batch-sized arrays only.
"""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np

import popgate
from popgate.config import Elu, Identity
from popgate.nn.layers import MLP, BatchNorm, Dense, DenseLayerSpec, Param
from popgate.nn.optim import Adam, clip_grad_norm

D_IN, D_OUT, BATCH = 2000, 1000, 64


def _peak(fn) -> int:
    """Bytes of the largest numpy allocation total while `fn` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _held(fn) -> int:
    """Bytes of numpy allocations that `fn` leaves alive, its result included."""
    tracemalloc.start()
    try:
        kept = fn()  # noqa: F841  (alive while measured)
        return tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def _layer_after_forward() -> tuple[Dense, np.ndarray]:
    rng = np.random.default_rng(0)
    layer = Dense(DenseLayerSpec(D_IN, D_OUT, Elu()), rng)
    layer.forward(rng.normal(size=(BATCH, D_IN)), train=True)
    return layer, rng.normal(size=(BATCH, D_OUT))


def test_dense_backward_into_zeroed_grads_allocates_no_weight_sized_array():
    layer, grad = _layer_after_forward()
    assert _peak(lambda: layer.backward(grad)) < layer.W.value.nbytes / 4
    assert layer.W.grad.any()


def test_dense_backward_into_held_grads_still_measures_the_product():
    """The same measurement sees the product-sized temporary that `+=` into
    a gradient already held needs, so the bound above is not vacuous."""
    layer, grad = _layer_after_forward()
    layer.W.grad[0, 0] = 1.0
    assert _peak(lambda: layer.backward(grad)) >= layer.W.value.nbytes


def test_clip_allocates_no_weight_sized_array():
    p = Param(np.zeros((D_IN, D_OUT)))
    p.grad[...] = np.random.default_rng(1).normal(size=p.shape)
    factors = []
    assert _peak(lambda: factors.append(clip_grad_norm([p], 1.0))) < p.value.nbytes / 4
    assert factors[0] < 1.0


def test_batchnorm_train_forward_keeps_only_centered_beside_its_output():
    # its cache is `centered` and two vectors: the backward recomputes
    # xhat = centered * inv_std, and the oracle tests pin the gradients' bits
    bn = BatchNorm(D_OUT)
    x = np.random.default_rng(2).normal(size=(BATCH, D_OUT))
    held = _held(lambda: bn.forward(x, train=True))
    assert 2 * x.nbytes <= held < 2.5 * x.nbytes


def _wide_mlp() -> tuple[MLP, np.ndarray]:
    """Two 16 MB weights, and a batch."""
    rng = np.random.default_rng(3)
    mlp = MLP([DenseLayerSpec(D_IN, D_OUT, Elu(), batchnorm=True, dropout_p=0.1),
               DenseLayerSpec(D_OUT, D_IN, Identity())], rng)
    return mlp, rng.normal(size=(16, D_IN))


def _optimizer_after_backward(mlp: MLP, x: np.ndarray) -> Adam:
    opt = Adam(mlp.params(), lr=1e-3)
    opt.zero_grad()
    mlp.backward(mlp.forward(x, train=True, rng=np.random.default_rng(4)) - x, input_grad=False)
    return opt


def test_an_optimizer_holds_no_gradient_of_a_wide_weight_between_backward_and_step():
    # the values, m and v arenas are three copies of the params, and the
    # batch-sized caches, recorded products and step scratch ~2 MB; a grad
    # arena would be a fourth copy, one wide weight's gradient 16 MB
    mlp, x = _wide_mlp()
    held = _held(lambda: _optimizer_after_backward(mlp, x))
    P = sum(p.value.nbytes for p in mlp.params())
    assert held < 3 * P + mlp.layers[0].W.value.nbytes / 4
    assert all(layer.W.grad is None and layer.W.products for layer in mlp.layers)


def test_clip_and_step_rebuild_wide_gradients_in_the_largest_weights_storage():
    # each wide gradient is rebuilt in the slice of the largest weight, whose
    # values wait in the optimizer's scratch file, so neither call allocates
    # one; the rest is CHUNK-sized
    mlp, x = _wide_mlp()
    opt = _optimizer_after_backward(mlp, x)
    W = mlp.layers[0].W.value.nbytes
    assert all(layer.W.value.nbytes == W for layer in mlp.layers)
    factors = []
    assert _peak(lambda: factors.append(clip_grad_norm(opt.params, 1e-3))) < W / 4
    assert factors[0] < 1.0
    assert _peak(opt.step) < W / 4


def test_building_an_optimizer_holds_no_second_copy_of_a_wide_weight():
    # resident bytes, not traced ones: the arena is allocated whole, and what
    # counts is how many of its pages are written while the drawn arrays are
    # still alive. The largest weight goes through the scratch file, so the
    # other weight is copied in while the largest's drawn array is gone and
    # its slice unwritten. A fresh process, so the high-water mark is this
    # build's; at a second copy of one 16 MB weight it would read 16 MB more
    code = f"""
import numpy as np
from popgate.config import Elu, Identity
from popgate.nn.layers import MLP, DenseLayerSpec
from popgate.nn.optim import Adam

def status(key):
    with open("/proc/self/status") as f:
        return next(int(line.split()[1]) * 1024 for line in f if line.startswith(key + ":"))

mlp = MLP([DenseLayerSpec({D_IN}, {D_OUT}, Elu(), batchnorm=True, dropout_p=0.1),
           DenseLayerSpec({D_OUT}, {D_IN}, Identity())], np.random.default_rng(3))
before = status("VmRSS")
opt = Adam(mlp.params(), lr=1e-3)
print(before, status("VmHWM"), opt._largest is mlp.layers[0].W)
"""
    src = str(Path(popgate.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True).stdout.split()
    before, peak = int(out[0]), int(out[1])
    assert out[2] == "True"
    assert peak - before < D_IN * D_OUT * 8 / 4, (before, peak)
