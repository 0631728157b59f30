"""Adam/AdamW update math and global gradient clipping."""

import os
import tempfile
import tracemalloc

import numpy as np
import pytest

from _oracles import per_param_adam_step
from popgate.exceptions import PopgateError
from popgate.nn.layers import SMALL_PRODUCT, Param, Weight, _add_product
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


def _staged_moments(opt) -> tuple[np.ndarray, np.ndarray]:
    """The wide weights' m and v, in arena order, read back from the
    optimizer's moments file, where each chunk's m is followed by its v."""
    n = opt._values.size - opt.m.size
    raw = np.frombuffer(os.pread(opt._moments.fileno(), 16 * n, 0), dtype=np.float64)
    m, v = [], []
    for p, lo, _ in sorted(opt._wide, key=lambda w: w[1]):
        for a in range(0, p.value.size, CHUNK):
            k = min(CHUNK, p.value.size - a)
            at = lo + a - opt.m.size
            m.append(raw[2 * at : 2 * at + k])
            v.append(raw[2 * at + k : 2 * at + 2 * k])
    return np.concatenate(m), np.concatenate(v)


def _clipped_steps_match_per_param(shapes, wide, n_front, decay, steps, seed):
    """`steps` clipped AdamW steps over params of `shapes`, the first
    `n_front` at decay 0 and the rest at `decay`, where the `wide` ones get
    their gradient as deferred products: values, RAM moments and the moments
    in the file equal `per_param_adam_step` bit for bit. Returns the optimizer."""
    rng = np.random.default_rng(seed)
    decays = [0.0] * n_front + [decay] * (len(shapes) - n_front)
    init = [rng.normal(size=s) for s in shapes]
    # the 2-d ones are weights; those below SMALL_PRODUCT keep a stored gradient
    params = [(Weight if v.ndim == 2 else Param)(v.copy(), name=f"p{i}")
              for i, v in enumerate(init)]
    opt = AdamW([(params[:n_front], 0.0), (params[n_front:], decay)], lr=0.01)
    ref = [Param(v.copy(), name=f"r{i}") for i, v in enumerate(init)]
    ms = [np.zeros(s) for s in shapes]
    vs = [np.zeros(s) for s in shapes]
    for t in range(1, steps + 1):
        opt.zero_grad()
        for p, r, w in zip(params, ref, wide):
            if w:
                a = rng.normal(size=(p.shape[0], 7))
                b = rng.normal(scale=3.0, size=(7, p.shape[1]))
                p.add_product(a, b)
                _add_product(r.grad, a, b)
            else:
                g = rng.normal(scale=3.0, size=p.shape)
                p.grad += g
                r.grad += g
        assert all(p.grad is None for p, w in zip(params, wide) if w)
        factor = clip_grad_norm(opt.params, 1.0)
        assert factor < 1.0
        assert factor == clip_grad_norm(ref, 1.0)
        opt.step()
        per_param_adam_step([r.value for r in ref], [r.grad for r in ref], ms, vs, decays, t, lr=0.01)
        for r in ref:
            r.zero_grad()
    for p, r in zip(params, ref):
        assert p.value.tobytes() == r.value.tobytes(), p.name
    stored = [i for i, w in enumerate(wide) if not w]
    assert opt.m.tobytes() == np.concatenate([ms[i].ravel() for i in stored]).tobytes()
    assert opt.v.tobytes() == np.concatenate([vs[i].ravel() for i in stored]).tobytes()
    m, v = _staged_moments(opt)
    assert m.tobytes() == np.concatenate([ms[i].ravel() for i, w in enumerate(wide) if w]).tobytes()
    assert v.tobytes() == np.concatenate([vs[i].ravel() for i, w in enumerate(wide) if w]).tobytes()
    return opt


def test_staged_moments_step_bit_identical_to_per_param_update():
    # stored params (one a weight below SMALL_PRODUCT) and wide weights at
    # SMALL_PRODUCT (a chunk multiple) and above it (not one), in two decay
    # groups; the wide weights' gradients are deferred products
    assert SMALL_PRODUCT == CHUNK
    shapes = [(1000,), (256, 256), (CHUNK + 5,), (30, 20), (300, 257)]
    opt = _clipped_steps_match_per_param(
        shapes, [False, True, False, False, True], 2, 0.05, steps=5, seed=27)
    assert opt._moments is not None and opt.m.size == 1000 + CHUNK + 5 + 600


def test_two_equal_largest_wide_weights_step_bit_identical_to_per_param_update():
    # blf's case: two wide weights of one size, the largest, in the two
    # decay groups; the first is L, whose storage holds every rebuilt
    # gradient, and the second's gradient is rebuilt in it too
    shapes = [(1000,), (300, 257), (256, 256), (30, 20), (257, 300), (CHUNK + 5,)]
    opt = _clipped_steps_match_per_param(
        shapes, [False, True, True, False, True, False], 3, 0.05, steps=4, seed=28)
    assert opt._largest.name == "p1" and opt._wide[-1][0] is opt._largest


def _deferred(shapes, seed) -> tuple[list[Weight], list[Param]]:
    """Wide weights, each with two recorded products, and stored-gradient
    copies of them."""
    rng = np.random.default_rng(seed)
    ws = [Weight(rng.normal(size=s), name=f"w{i}") for i, s in enumerate(shapes)]
    refs = [Param(w.value.copy(), name=f"r{i}") for i, w in enumerate(ws)]
    return ws, refs


def _record(ws, refs, seed) -> None:
    rng = np.random.default_rng(seed)
    for w, r in zip(ws, refs):
        for _ in range(2):
            a, b = rng.normal(size=(w.shape[0], 3)), rng.normal(size=(3, w.shape[1]))
            w.add_product(a, b)
            _add_product(r.grad, a, b)


def test_clip_leaves_the_largest_weights_values_as_they_were():
    ws, refs = _deferred([(300, 257), (256, 256)], 30)
    opt = Adam(ws, lr=0.01)
    assert opt._largest is ws[0] and ws[0].value.base is opt._values
    before = [w.value.tobytes() for w in ws]
    opt.zero_grad()
    _record(ws, refs, 31)
    assert clip_grad_norm(ws, 1e-3) == clip_grad_norm(refs, 1e-3) < 1.0
    assert [w.value.tobytes() for w in ws] == before
    assert ws[0].value.base is opt._values


def test_a_deferred_weight_whose_optimizer_is_gone_is_rebuilt_in_fresh_storage():
    ws, refs = _deferred([(300, 257), (256, 256)], 32)
    opt = Adam(ws, lr=0.01)
    opt.zero_grad()
    _record(ws, refs, 33)
    del opt
    assert all(w.lender() is None for w in ws)
    before = [w.value.tobytes() for w in ws]
    assert clip_grad_norm(ws, 1e-3) == clip_grad_norm(refs, 1e-3) < 1.0
    assert [w.value.tobytes() for w in ws] == before
    for w, r in zip(ws, refs):
        assert w.gradient().tobytes() == r.grad.tobytes()


def test_optimizer_without_a_wide_weight_opens_no_file_nor_staging_buffer(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("opened a moments file")

    monkeypatch.setattr(tempfile, "TemporaryFile", refuse)
    # a weight below SMALL_PRODUCT keeps a stored gradient, as a plain param does
    params = [Weight(np.ones((30, 20)), name="w"), _param(np.ones(50), "b")]
    tracemalloc.start()
    try:
        opt = AdamW(params, lr=0.01)
        for _ in range(3):
            opt.zero_grad()
            params[0].grad += 1.0
            opt.step()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert opt._moments is None
    # arenas, moments and scratch of 650 elements each: ~31 kB, where two
    # chunk-sized staging buffers would take 1 MB
    assert peak < 128 * 1024, peak


def test_a_wide_weight_stepped_by_another_process_is_refused(monkeypatch):
    w = Weight(np.zeros((256, 256)), name="w")
    opt = Adam([w], lr=0.01)
    opt.zero_grad()
    monkeypatch.setattr(os, "getpid", lambda: opt._moments.pid + 1)
    with pytest.raises(PopgateError, match="a forked process must build its own optimizer"):
        opt.step()
    assert opt.step_count == 1 and not w.value.any()


def test_clip_over_two_optimizers_rebuilds_what_the_lent_storage_cannot_hold():
    # the first deferred weight names the lender, whose largest weight is
    # the smaller one here: the larger gradient is rebuilt in fresh storage
    ws, refs = _deferred([(256, 256), (300, 257)], 34)
    opts = [Adam([w], lr=0.01) for w in ws]
    for opt in opts:
        opt.zero_grad()
    _record(ws, refs, 35)
    before = [w.value.tobytes() for w in ws]
    assert clip_grad_norm(ws, 1e-3) == clip_grad_norm(refs, 1e-3) < 1.0
    assert [w.value.tobytes() for w in ws] == before


def _failing(monkeypatch, op: str) -> None:
    """`os.preadv` or `os.pwritev` moving 8 bytes short from now on."""
    real = getattr(os, op)
    monkeypatch.setattr(os, op, lambda fd, bufs, offset: real(fd, bufs, offset) - 8)


def _assert_closed_and_named(info, opt, expected: str) -> None:
    message = str(info.value)
    assert "optimizer scratch file" in message and tempfile.gettempdir() in message
    assert expected in message
    assert not opt._moments.close.alive
    with pytest.raises(ValueError, match="closed file"):
        opt._moments.fileno()


# w's 77100 elements: its moments take the file's first 16 * 77100 bytes, and
# its values, as the largest wide weight, are parked after them
PARKED_AT = 16 * 300 * 257


@pytest.mark.parametrize("op", ["pwritev", "preadv"])
def test_a_short_moments_transfer_closes_the_file_and_names_it(monkeypatch, op):
    # a step's first write parks w's values; its first read is w's moments
    w = Weight(np.zeros((300, 257)), name="w")
    opt = Adam([w], lr=0.01)
    opt.zero_grad()
    w.add_product(np.ones((300, 1)), np.ones((1, 257)))
    opt.step()
    _failing(monkeypatch, op)
    with pytest.raises(PopgateError) as info:
        opt.step()
    expected = {"pwritev": f"pwritev moved {8 * CHUNK - 8} of {8 * CHUNK} bytes at byte {PARKED_AT}",
                "preadv": f"preadv moved {16 * CHUNK - 8} of {16 * CHUNK} bytes at byte 0"}[op]
    _assert_closed_and_named(info, opt, expected)


def test_a_short_unpark_in_clip_closes_the_file_and_names_it(monkeypatch):
    # clipping parks w's values and reads them back before it returns; the
    # read is its first
    w = Weight(np.zeros((300, 257)), name="w")
    opt = Adam([w], lr=0.01)
    opt.zero_grad()
    w.add_product(np.ones((300, 1)), np.ones((1, 257)))
    _failing(monkeypatch, "preadv")
    with pytest.raises(PopgateError) as info:
        clip_grad_norm([w], 1.0)
    _assert_closed_and_named(
        info, opt, f"preadv moved {8 * CHUNK - 8} of {8 * CHUNK} bytes at byte {PARKED_AT}")


def test_a_short_park_while_building_closes_the_file_and_keeps_the_values(monkeypatch):
    w = Weight(np.arange(300 * 257, dtype=np.float64).reshape(300, 257), name="w")
    drawn = w.value
    fds = sorted(os.listdir("/proc/self/fd"))
    _failing(monkeypatch, "pwritev")
    with pytest.raises(PopgateError, match=f"pwritev moved {8 * CHUNK - 8} of {8 * CHUNK} "
                                           f"bytes at byte {PARKED_AT}"):
        Adam([w], lr=0.01)
    assert sorted(os.listdir("/proc/self/fd")) == fds
    assert w.value is drawn
