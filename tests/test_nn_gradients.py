"""Analytic gradients vs. central finite differences for every layer feature.

Each check re-seeds the dropout generator per evaluation so the stochastic
mask is identical across the +h / -h probes.
"""

import numpy as np
import pytest

from popgate.config import Elu, Identity, LeakyRelu, Sigmoid
from popgate.nn.layers import MLP, Dense, DenseLayerSpec, Param
from popgate.nn.losses import mse_loss, softmax, softmax_backward

from _gradcheck import check_gradients, max_relative_error, numerical_gradient, zero_grads

TOL = 1e-4


def _grad_check_mlp(specs, seed=0, batch=8):
    rng = np.random.default_rng(seed)
    mlp = MLP(specs, rng)
    x = rng.normal(size=(batch, specs[0].in_dim))
    y = rng.normal(size=(batch, specs[-1].out_dim))
    drop_seed = seed + 1000

    def loss_only():
        out = mlp.forward(x, train=True, rng=np.random.default_rng(drop_seed))
        return mse_loss(out, y)[0]

    def loss_and_backward():
        zero_grads(mlp.params())
        out = mlp.forward(x, train=True, rng=np.random.default_rng(drop_seed))
        loss, grad = mse_loss(out, y)
        mlp.backward(grad)
        return loss

    errors = check_gradients(loss_and_backward, mlp.params(), loss_only)
    worst = max(errors.values())
    assert worst < TOL, f"gradient mismatch: {errors}"


def test_grad_plain_linear():
    _grad_check_mlp([DenseLayerSpec(3, 2, Identity())])


def test_grad_elu_stack():
    _grad_check_mlp(
        [DenseLayerSpec(4, 6, Elu(alpha=0.1)), DenseLayerSpec(6, 1, Identity())],
        seed=2,
    )


def test_grad_leaky_relu_with_batchnorm():
    _grad_check_mlp(
        [
            DenseLayerSpec(4, 5, LeakyRelu(slope=0.05), batchnorm=True),
            DenseLayerSpec(5, 2, Identity()),
        ],
        seed=3,
    )


def test_grad_sigmoid_head():
    _grad_check_mlp(
        [DenseLayerSpec(3, 4, Elu()), DenseLayerSpec(4, 2, Sigmoid())], seed=4
    )


def test_grad_full_block_bn_dropout():
    _grad_check_mlp(
        [
            DenseLayerSpec(5, 8, Elu(alpha=0.1), batchnorm=True, dropout_p=0.3),
            DenseLayerSpec(8, 6, LeakyRelu(), batchnorm=True, dropout_p=0.2),
            DenseLayerSpec(6, 1, Identity()),
        ],
        seed=5,
    )


def test_grad_wrt_input():
    specs = [DenseLayerSpec(4, 6, Elu(), batchnorm=True), DenseLayerSpec(6, 2, Identity())]
    rng = np.random.default_rng(7)
    mlp = MLP(specs, rng)
    x_param = Param(rng.normal(size=(6, 4)), name="x")
    y = rng.normal(size=(6, 2))

    def loss_only():
        return mse_loss(mlp.forward(x_param.value, train=True), y)[0]

    loss, grad = mse_loss(mlp.forward(x_param.value, train=True), y)
    dx = mlp.backward(grad)
    numeric = numerical_gradient(loss_only, x_param)
    assert max_relative_error(dx, numeric) < TOL


# --- losses -----------------------------------------------------------------


def test_mse_loss_oracle():
    pred = np.array([[1.0, 2.0], [3.0, 4.0]])
    target = np.array([[1.0, 0.0], [0.0, 4.0]])
    loss, grad = mse_loss(pred, target)
    assert np.isclose(loss, (0 + 4 + 9 + 0) / 4)
    assert np.allclose(grad, 2.0 * (pred - target) / 4)


def test_mse_loss_shape_mismatch():
    from popgate.exceptions import ShapeError

    with pytest.raises(ShapeError):
        mse_loss(np.zeros((2, 1)), np.zeros((2, 2)))


def test_softmax_properties():
    rng = np.random.default_rng(8)
    logits = rng.normal(size=(10, 3)) * 5
    p = softmax(logits, axis=1)
    assert np.allclose(p.sum(axis=1), 1.0)
    assert np.all(p > 0)
    # shift invariance
    assert np.allclose(softmax(logits + 123.4, axis=1), p)
    # big logits stay finite
    assert np.all(np.isfinite(softmax(np.array([[1e4, 0.0, -1e4]]))))
    with pytest.raises(ValueError):
        softmax(np.array([np.inf, 0.0]))


def test_softmax_uniform_at_zero():
    assert np.allclose(softmax(np.zeros((2, 3))), 1.0 / 3.0)


def test_softmax_backward_matches_fd():
    rng = np.random.default_rng(9)
    logits = Param(rng.normal(size=(4, 3)), name="logits")
    w = rng.normal(size=(4, 3))  # arbitrary downstream weighting

    def loss_only():
        return float(np.sum(softmax(logits.value, axis=1) * w))

    p = softmax(logits.value, axis=1)
    analytic = softmax_backward(p, w, axis=1)
    numeric = numerical_gradient(loss_only, logits)
    assert max_relative_error(analytic, numeric) < TOL
