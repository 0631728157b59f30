"""Adam/AdamW update math and global gradient clipping."""

import numpy as np
import pytest

from popgate.nn import Adam, AdamW, Param, clip_grad_norm


def _param(vals, name="p"):
    return Param(np.array(vals, dtype=np.float64), name=name)


def test_adam_first_step_magnitude():
    # with g=1 everywhere, the bias-corrected first step is lr/(1+eps) ~ lr
    p = _param([0.0])
    opt = Adam([p], lr=1e-4)
    p.grad[:] = 1.0
    opt.step()
    expected = -1e-4 * 1.0 / (1.0 + 1e-8)
    assert np.isclose(p.value[0], expected, rtol=0, atol=1e-18)
    assert opt.step_count == 1


def test_adam_hand_rolled_two_steps():
    b1, b2, eps, lr = 0.9, 0.999, 1e-8, 0.01
    p = _param([1.0])
    opt = Adam([p], lr=lr, beta1=b1, beta2=b2, eps=eps)
    theta, m, v = 1.0, 0.0, 0.0
    for t in (1, 2):
        g = 2.0 * theta  # gradient of theta^2
        p.zero_grad()
        p.grad[:] = 2.0 * p.value
        opt.step()
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        theta -= lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
        assert np.isclose(p.value[0], theta, rtol=0, atol=1e-15)


def test_adam_minimizes_quadratic():
    p = _param([5.0, -3.0])
    opt = Adam([p], lr=0.05)
    target = np.array([1.0, 2.0])
    for _ in range(2000):
        p.zero_grad()
        p.grad[:] = 2.0 * (p.value - target)
        opt.step()
    assert np.allclose(p.value, target, atol=1e-4)


def test_adamw_decay_is_decoupled():
    # zero gradient: the only movement is the decay shrink, exactly lr*wd*theta
    p = _param([2.0])
    opt = AdamW([p], lr=0.1, weight_decay=0.01)
    opt.step()
    assert np.isclose(p.value[0], 2.0 - 0.1 * 0.01 * 2.0, rtol=0, atol=1e-15)


def test_adamw_decay_applies_before_adam_delta():
    # theta' = theta(1 - lr*wd) - lr * mhat/(sqrt(vhat)+eps), with g=1 on step 1
    lr, wd = 0.01, 0.1
    p = _param([3.0])
    opt = AdamW([p], lr=lr, weight_decay=wd)
    p.grad[:] = 1.0
    opt.step()
    decayed = 3.0 - lr * wd * 3.0
    expected = decayed - lr * 1.0 / (1.0 + 1e-8)
    assert np.isclose(p.value[0], expected, rtol=0, atol=1e-15)


def test_adamw_param_groups_vary_decay():
    a = _param([1.0], "a")
    b = _param([1.0], "b")
    opt = AdamW([([a], 0.0), ([b], 0.5)], lr=0.1)
    opt.step()  # grads are zero
    assert a.value[0] == 1.0
    assert np.isclose(b.value[0], 1.0 - 0.1 * 0.5)


def test_optimizer_rejects_empty_and_bad_hparams():
    with pytest.raises(ValueError):
        Adam([], lr=0.1)
    with pytest.raises(ValueError):
        Adam([_param([1.0])], lr=0.0)
    with pytest.raises(ValueError):
        Adam([_param([1.0])], lr=0.1, beta1=1.0)


def test_clip_grad_norm_scales_to_ball():
    p = _param([0.0, 0.0])
    p.grad[:] = [3.0, 4.0]  # norm 5
    factor = clip_grad_norm([p], max_norm=1.0)
    assert np.isclose(factor, 0.2)
    assert np.allclose(p.grad, [0.6, 0.8])
    assert np.isclose(np.linalg.norm(p.grad), 1.0)


def test_clip_grad_norm_global_across_params():
    a = _param([0.0])
    b = _param([0.0, 0.0])
    a.grad[:] = 2.0
    b.grad[:] = [1.0, 2.0]  # global norm = 3
    factor = clip_grad_norm([a, b], max_norm=1.5)
    assert np.isclose(factor, 0.5)
    assert np.isclose(a.grad[0], 1.0)


def test_clip_grad_norm_noop_below_threshold():
    p = _param([0.0])
    p.grad[:] = 0.5
    assert clip_grad_norm([p], max_norm=1.0) == 1.0
    assert p.grad[0] == 0.5


def test_clip_grad_norm_rejects_nonpositive():
    with pytest.raises(ValueError):
        clip_grad_norm([_param([1.0])], max_norm=0.0)
