"""The layer kernels round exactly as the plain numpy forms in `_oracles`.

Every comparison is bitwise (`-0.0` differs from `0.0`), on the shapes of a
tiny batch, a README-width mini-batch and a paper-width autoencoder batch,
with signed zeros, values where `exp` overflows, a subnormal-adjacent
1e-300 and a negative input whose rectified output underflows planted among
normal draws.
"""

import numpy as np
import pytest
from _oracles import (
    ref_activation_backward,
    ref_activation_forward,
    ref_batchnorm_backward,
    ref_batchnorm_forward,
    ref_clip_factor,
    ref_dropout_mask,
    ref_mse_loss,
    ref_softmax,
    ref_weight_grad,
)

from popgate.config import Elu, Identity, LeakyRelu, Sigmoid
from popgate.nn.layers import (
    SMALL_PRODUCT,
    BatchNorm,
    Dense,
    DenseLayerSpec,
    Param,
    activation_backward,
    activation_forward,
)
from popgate.nn.losses import mse_loss, softmax
from popgate.nn.optim import CHUNK, clip_grad_norm

SHAPES = [(1, 5), (64, 32), (256, 2239)]
# a batch of 37 rows: dividing by a power of two is exact, so the shapes above
# cannot tell `/ n` from `* (1 / n)`
ODD = (37, 11)
# -5e-324 is a negative input whose ELU and LeakyReLU outputs underflow to -0.0
SPECIAL = [0.0, -0.0, 800.0, -800.0, 1e-300, -1e-300, -5e-324]
ACTIVATIONS = [(Elu(0.1), "elu", 0.1), (LeakyRelu(0.05), "leaky_relu", 0.05),
               (Sigmoid(), "sigmoid", 0.0), (Identity(), "identity", 0.0)]


def same(a, b) -> bool:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def _inputs(shape, seed: int = 0) -> np.ndarray:
    """Normal draws with each special value planted at scattered positions;
    a (1, 5) input holds the first five special values and nothing else."""
    rng = np.random.default_rng(seed)
    x = rng.normal(0.0, 3.0, size=shape)
    flat = x.reshape(-1)
    where = rng.choice(flat.size, size=min(flat.size, 8 * len(SPECIAL)), replace=False)
    where[: min(flat.size, len(SPECIAL))].sort()
    for i, pos in enumerate(where):
        flat[pos] = SPECIAL[i % len(SPECIAL)]
    return x


def test_inputs_hold_the_special_values():
    assert same(_inputs((1, 5)), [SPECIAL[:5]])
    x = _inputs((64, 32))
    assert np.count_nonzero(np.signbit(x) & (x == 0.0)) == 8
    assert np.count_nonzero(x == 800.0) == 8 and np.count_nonzero(x == 1e-300) == 8


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("act,kind,param", ACTIVATIONS, ids=[k for _, k, _ in ACTIVATIONS])
def test_activation_matches_reference_bitwise(shape, act, kind, param):
    x = _inputs(shape)
    out = activation_forward(x, act)
    assert same(out, ref_activation_forward(x, kind, param))
    grad = _inputs(shape, seed=1)
    assert same(activation_backward(grad, out, act),
                ref_activation_backward(grad, x, out, kind, param))


@pytest.mark.parametrize("act,kind,param", ACTIVATIONS, ids=[k for _, k, _ in ACTIVATIONS])
def test_activation_keeps_signed_zero_and_saturates(act, kind, param):
    """The backward reads only the output, so for ELU and LeakyReLU
    `out > 0` must select exactly the inputs `x > 0`: signed zeros and the
    underflow to -0.0 included."""
    x = np.array([SPECIAL])
    out = activation_forward(x, act)
    assert same(out, ref_activation_forward(x, kind, param))
    if kind in ("elu", "leaky_relu", "identity"):
        assert np.signbit(out[0, 1]) and not np.signbit(out[0, 0])
    if kind in ("elu", "leaky_relu"):
        assert same(out[0, 6], -0.0)
    grad = np.arange(1.0, x.size + 1.0).reshape(x.shape)
    assert same(activation_backward(grad, out, act),
                ref_activation_backward(grad, x, out, kind, param))


@pytest.mark.parametrize("shape", SHAPES + [(1, 7), ODD], ids=lambda s: f"{s[0]}x{s[1]}")
@pytest.mark.parametrize("train", [True, False], ids=["train", "eval"])
def test_batchnorm_matches_reference_bitwise(shape, train):
    d = shape[1]
    rng = np.random.default_rng(2)
    x = _inputs(shape, seed=3)
    bn = BatchNorm(d)
    bn.gamma.value[...] = rng.normal(1.0, 0.5, d)
    bn.beta.value[...] = rng.normal(0.0, 0.5, d)
    bn.running_mean[...] = rng.normal(0.0, 1.0, d)
    bn.running_var[...] = rng.uniform(0.1, 3.0, d)
    g0_gamma, g0_beta = rng.normal(size=d), rng.normal(size=d)
    bn.gamma.grad[...] = g0_gamma
    bn.beta.grad[...] = g0_beta
    ref_out, ref_rm, ref_rv, cache = ref_batchnorm_forward(
        x, bn.gamma.value.copy(), bn.beta.value.copy(), bn.running_mean.copy(),
        bn.running_var.copy(), bn.momentum, bn.eps, train)
    assert same(bn.forward(x, train=train), ref_out)
    assert same(bn.running_mean, ref_rm) and same(bn.running_var, ref_rv)

    grad = _inputs(shape, seed=4)
    ref_dx, ref_dgamma, ref_dbeta = ref_batchnorm_backward(
        grad, bn.gamma.value, bn.running_var, bn.eps, cache)
    assert same(bn.backward(grad), ref_dx)
    assert same(bn.gamma.grad, g0_gamma + ref_dgamma)
    assert same(bn.beta.grad, g0_beta + ref_dbeta)


@pytest.mark.parametrize("shape", SHAPES + [ODD])
@pytest.mark.parametrize("act,kind,param", ACTIVATIONS[:2], ids=["elu", "leaky_relu"])
def test_dense_block_matches_reference_bitwise(shape, act, kind, param):
    """Linear, batchnorm, activation and dropout in train mode, forward and
    backward, against the reference kernels composed by hand."""
    n, d_in = shape
    d_out = 7
    layer = Dense(DenseLayerSpec(d_in, d_out, act, batchnorm=True, dropout_p=0.2),
                  np.random.default_rng(5), name="blk")
    W, b = layer.W.value.copy(), layer.b.value.copy()
    bn = layer.bn
    x = _inputs(shape, seed=6) / 100.0
    got = layer.forward(x, train=True, rng=np.random.default_rng(7))

    z = x @ W + b
    h, _, _, cache = ref_batchnorm_forward(z, bn.gamma.value, bn.beta.value, np.zeros(d_out),
                                           np.ones(d_out), bn.momentum, bn.eps, True)
    a = ref_activation_forward(h, kind, param)
    mask = ref_dropout_mask(np.random.default_rng(7), a.shape, 0.2)
    assert np.array_equal(layer._cache[-1], mask != 0.0)
    assert same(got, a * mask)

    grad = _inputs((n, d_out), seed=8)
    g = ref_activation_backward(grad * mask, h, a, kind, param)
    g, dgamma, dbeta = ref_batchnorm_backward(g, bn.gamma.value, bn.running_var, bn.eps, cache)
    assert same(layer.backward(grad), g @ W.T)
    assert same(layer.W.grad, x.T @ g) and same(layer.b.grad, g.sum(axis=0))
    assert same(bn.gamma.grad, dgamma) and same(bn.beta.grad, dbeta)


@pytest.mark.parametrize("shape", SHAPES + [(64, 1), ODD], ids=lambda s: f"{s[0]}x{s[1]}")
def test_mse_loss_matches_reference_bitwise(shape):
    pred, target = _inputs(shape, seed=9), _inputs(shape, seed=10)
    loss, grad = mse_loss(pred, target)
    ref_loss, ref_grad = ref_mse_loss(pred, target)
    assert type(loss) is float and same(loss, ref_loss)
    assert same(grad, ref_grad)


@pytest.mark.parametrize("shape", SHAPES + [(64, 3)], ids=lambda s: f"{s[0]}x{s[1]}")
@pytest.mark.parametrize("axis", [1, 0, -1])
def test_softmax_matches_reference_bitwise(shape, axis):
    logits = _inputs(shape, seed=11)
    assert same(softmax(logits, axis=axis), ref_softmax(logits, axis=axis))


@pytest.mark.parametrize("max_norm", [1e-3, 1.0, 1e9])
def test_clip_factor_matches_reference_bitwise(max_norm):
    grads = [_inputs(s, seed=12 + i) / 1000.0 for i, s in enumerate(SHAPES)] + [np.zeros(4)]
    params = [Param(np.zeros(g.shape)) for g in grads]
    for p, g in zip(params, grads):
        p.grad[...] = g
    factor = clip_grad_norm(params, max_norm)
    ref = ref_clip_factor(grads, max_norm)
    assert same(factor, ref)
    for p, g in zip(params, grads):
        assert same(p.grad, g * ref if ref != 1.0 else g)
    assert (factor == 1.0) == (max_norm == 1e9)


# --- weight-sized work without weight-sized temporaries ---------------------

# around the clip's largest leaf (CHUNK), and odd sizes whose pairwise split
# n//2 must round down to a multiple of 8 once or at several depths
CLIP_SIZES = [CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 13, 2 * CHUNK + 21, 4 * CHUNK + 7,
              1_000_003]


@pytest.mark.parametrize("n", CLIP_SIZES)
@pytest.mark.parametrize("max_norm", [1e-3, 1.0])
def test_clip_matches_reference_at_split_points(n, max_norm):
    rng = np.random.default_rng(n)
    # squares of one order of magnitude: a sum taken in another order rounds
    # differently (over many decades the largest terms would hide the order)
    big = rng.normal(size=n)
    grads = [big, _inputs((64, 32), seed=13) / 1000.0]
    params = [Param(np.zeros(g.shape)) for g in grads]
    for p, g in zip(params, grads):
        p.grad[...] = g
    factor = clip_grad_norm(params, max_norm)
    ref = ref_clip_factor(grads, max_norm)
    assert same(factor, ref) and factor < 1.0
    for p, g in zip(params, grads):
        assert same(p.grad, g * ref)


@pytest.mark.parametrize("d_in,d_out", [(300, 400), (64, SMALL_PRODUCT // 64),
                                        (63, SMALL_PRODUCT // 64)],
                         ids=["wide", "at-threshold", "below-threshold"])
@pytest.mark.parametrize("held", [False, True], ids=["zeroed", "holding"])
def test_weight_grad_matches_reference_bitwise(d_in, d_out, held):
    """Into zeroed storage and into storage that already holds a gradient,
    with products that are -0.0."""
    layer = Dense(DenseLayerSpec(d_in, d_out, Identity()), np.random.default_rng(14))
    x = _inputs((5, d_in), seed=15)
    grad = _inputs((5, d_out), seed=16)
    # opposite-signed tiny values: their products underflow, summing to -0.0
    x[:, :50] = -1e-300
    grad[:, :40] = 1e-300
    product = x.T @ grad
    assert np.count_nonzero(np.signbit(product) & (product == 0.0)) >= 50 * 40
    if held:
        layer.W.grad[...] = _inputs((d_in, d_out), seed=17)
    acc = layer.W.grad.copy()
    layer.forward(x, train=True)
    layer.backward(grad)
    assert same(layer.W.grad, ref_weight_grad(acc, x, grad))


# --- non-finite inputs -------------------------------------------------------
# (numpy warns of the overflowing or invalid sums on the way to the error)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("act,kind,param", ACTIVATIONS, ids=[k for _, k, _ in ACTIVATIONS])
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_every_nonfinite_input_still_raises(bad, act, kind, param):
    x = _inputs((64, 32))
    x[5, 7] = bad
    x[60, 0] = bad
    with pytest.raises(ValueError, match="contains 2 non-finite entries"):
        ref_activation_forward(x, kind, param)
    with pytest.raises(ValueError, match="^activation input contains 2 non-finite entries$"):
        activation_forward(x, act)
    with pytest.raises(ValueError, match="non-finite"):
        softmax(x, axis=1)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_opposite_infinities_raise():
    x = np.array([[np.inf, -np.inf, 1.0]])  # the sum is nan
    with pytest.raises(ValueError, match="contains 2 non-finite"):
        activation_forward(x, Elu())
    with pytest.raises(ValueError, match="non-finite"):
        softmax(x)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_finite_input_whose_sum_overflows_passes():
    x = np.array([[1e308, 1e308, -1.0]])
    assert same(activation_forward(x, Identity()), x)
    assert same(activation_forward(x, Sigmoid()), ref_activation_forward(x, "sigmoid"))
    assert same(softmax(x), ref_softmax(x))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("act", [Elu(0.1), Sigmoid()], ids=["elu", "sigmoid"])
@pytest.mark.parametrize("bad", [np.inf, -np.inf], ids=["inf", "-inf"])
def test_nonfinite_error_names_the_layer(act, bad):
    layer = Dense(DenseLayerSpec(2, 3, act), np.random.default_rng(0), name="audio.trunk.1")
    x = np.array([[0.5, -0.25], [bad, 1.0]])
    msg = "layer 'audio.trunk.1': activation input contains 3 non-finite entries"
    with pytest.raises(ValueError, match=f"^{msg}$"):
        layer.forward(x)
    with pytest.raises(ValueError, match=f"^{msg}$"):
        layer.forward(x, train=True)
