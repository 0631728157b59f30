"""Adam/AdamW update math and global gradient clipping."""

import numpy as np
import pytest

from _oracles import per_param_adam_step
from popgate.nn.layers import Param
from popgate.nn.optim import Adam, AdamW, clip_grad_norm
from popgate.nn.optim import CHUNK


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
    opt = Adam([p], lr=lr)
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
    opt = AdamW([p], lr=0.1)
    opt.step()
    assert np.isclose(p.value[0], 2.0 - 0.1 * 0.01 * 2.0, rtol=0, atol=1e-15)


def test_adamw_decay_applies_before_adam_delta():
    # theta' = theta(1 - lr*wd) - lr * mhat/(sqrt(vhat)+eps), with g=1 on step 1
    lr, wd = 0.01, 0.1
    p = _param([3.0])
    opt = AdamW([([p], wd)], lr=lr)
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


def test_arena_step_is_bit_identical_to_per_param_update():
    # shapes below, at and above one chunk, a chunk multiple and a
    # non-multiple; decays [0, wd, 0] so equal decays are not adjacent
    rng = np.random.default_rng(21)
    shapes = [(1000,), (CHUNK,), (300, 257), (2, CHUNK), (3, 5)]
    decays = [0.0, 0.0, 0.05, 0.05, 0.0]
    init = [rng.normal(size=s) for s in shapes]
    params = [Param(v.copy(), name=f"p{i}") for i, v in enumerate(init)]
    opt = AdamW([(params[:2], 0.0), (params[2:4], 0.05), (params[4:], 0.0)], lr=0.01)
    ref = [Param(v.copy(), name=f"r{i}") for i, v in enumerate(init)]
    ms = [np.zeros(s) for s in shapes]
    vs = [np.zeros(s) for s in shapes]
    for t in range(1, 5):
        opt.zero_grad()
        for p, r in zip(params, ref):
            g = rng.normal(scale=3.0, size=p.shape)
            p.grad += g
            r.grad[...] = g
        factor = clip_grad_norm(opt.params, 1.0)
        assert factor < 1.0
        assert factor == clip_grad_norm(ref, 1.0)
        opt.step()
        per_param_adam_step([r.value for r in ref], [r.grad for r in ref], ms, vs, decays, t, lr=0.01)
    for p, r in zip(params, ref):
        assert np.array_equal(p.value, r.value)
    assert np.array_equal(opt.m, np.concatenate([m.ravel() for m in ms]))
    assert np.array_equal(opt.v, np.concatenate([v.ravel() for v in vs]))


def test_arena_views_share_storage_and_zero_grad_clears_all():
    a = _param([[1.0, 2.0], [3.0, 4.0]], "a")
    b = _param([5.0], "b")
    opt = Adam([a, b], lr=0.1)
    assert a.value.tolist() == [[1.0, 2.0], [3.0, 4.0]] and b.value.tolist() == [5.0]
    assert a.value.base is not None and a.value.base is b.value.base
    assert a.grad.base is not None and a.grad.base is b.grad.base
    a.grad += 1.0
    b.grad += 2.0
    opt.zero_grad()
    assert not a.grad.any() and not b.grad.any()


def test_optimizer_rejects_a_param_listed_twice():
    a = _param([1.0], "enc.W")
    b = _param([1.0], "enc.b")
    with pytest.raises(ValueError, match="enc.W"):
        Adam([a, b, a], lr=0.1)
    with pytest.raises(ValueError, match="enc.b"):
        AdamW([([a, b], 0.0), ([b], 0.1)], lr=0.1)
