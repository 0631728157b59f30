"""Adam/AdamW update math and global gradient clipping."""

import os
import tempfile
import tracemalloc

import numpy as np
import pytest

from _oracles import per_param_adam_step
from popgate.config import Elu
from popgate.exceptions import PopgateError
from popgate.nn.layers import SMALL_PRODUCT, Dense, DenseLayerSpec, Param, Weight, snapshot_state
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


def _staged(opt) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The wide weights' m, v and values, in the order given, read back from
    the optimizer's scratch file, where each chunk of n elements holds its
    m, its v, then its values."""
    n = sum(p.value.size for p, _, _ in opt._wide)
    raw = np.frombuffer(os.pread(opt._file.fileno(), 24 * n, 0), dtype=np.float64)
    m, v, x = [], [], []
    for p, at, _ in opt._wide:
        for a in range(0, p.value.size, CHUNK):
            k = min(CHUNK, p.value.size - a)
            chunk = raw[3 * (at + a) : 3 * (at + a + k)]
            m.append(chunk[:k])
            v.append(chunk[k : 2 * k])
            x.append(chunk[2 * k :])
    return np.concatenate(m), np.concatenate(v), np.concatenate(x)


def _clipped_steps_match_per_param(shapes, wide, n_front, decay, steps, seed):
    """`steps` clipped AdamW steps over params of `shapes`, the first
    `n_front` at decay 0 and the rest at `decay`, where the `wide` ones get
    their gradient as deferred products: values (read through `read()` and
    straight from the file), RAM moments and the moments in the file equal
    `per_param_adam_step` bit for bit. Returns the optimizer."""
    rng = np.random.default_rng(seed)
    decays = [0.0] * n_front + [decay] * (len(shapes) - n_front)
    init = [rng.normal(size=s) for s in shapes]
    # the 2-d ones are weights; those below SMALL_PRODUCT keep a stored gradient
    params = [(Weight if v.ndim == 2 else Param)(v.copy(), name=f"p{i}")
              for i, v in enumerate(init)]
    opt = AdamW([(params[:n_front], 0.0), (params[n_front:], decay)], lr=0.01)
    assert [p.store is opt._file for p, w in zip(params, wide) if w] == [True] * sum(wide)
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
                r.grad += a @ b
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
        assert p.read().tobytes() == r.value.tobytes(), p.name
    stored = [i for i, w in enumerate(wide) if not w]
    assert opt.m.tobytes() == np.concatenate([ms[i].ravel() for i in stored]).tobytes()
    assert opt.v.tobytes() == np.concatenate([vs[i].ravel() for i in stored]).tobytes()
    m, v, x = _staged(opt)
    wides = [i for i, w in enumerate(wide) if w]
    assert m.tobytes() == np.concatenate([ms[i].ravel() for i in wides]).tobytes()
    assert v.tobytes() == np.concatenate([vs[i].ravel() for i in wides]).tobytes()
    assert x.tobytes() == np.concatenate([ref[i].value.ravel() for i in wides]).tobytes()
    return opt


def test_staged_moments_step_bit_identical_to_per_param_update():
    # stored params (one a weight below SMALL_PRODUCT) and wide weights at
    # SMALL_PRODUCT (a chunk multiple) and above it (not one), in two decay
    # groups; the wide weights' gradients are deferred products
    assert SMALL_PRODUCT == CHUNK
    shapes = [(1000,), (256, 256), (CHUNK + 5,), (30, 20), (300, 257)]
    opt = _clipped_steps_match_per_param(
        shapes, [False, True, False, False, True], 2, 0.05, steps=5, seed=27)
    assert opt._file is not None and opt.m.size == 1000 + CHUNK + 5 + 600


def test_two_equal_largest_wide_weights_step_bit_identical_to_per_param_update():
    # blf's case: two wide weights of one size, the largest, in the two
    # decay groups, beside one of SMALL_PRODUCT elements; every wide
    # weight's values and rebuilt gradient pass through the one slot, the
    # size of the largest
    shapes = [(1000,), (300, 257), (256, 256), (30, 20), (257, 300), (CHUNK + 5,)]
    opt = _clipped_steps_match_per_param(
        shapes, [False, True, True, False, True, False], 3, 0.05, steps=4, seed=28)
    assert opt._file.slot.size == 300 * 257
    assert [p.name for p, _, _ in opt._wide] == ["p1", "p2", "p4"]


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
            r.grad += a @ b


def test_clip_leaves_the_wide_weights_values_as_they_were():
    ws, refs = _deferred([(300, 257), (256, 256)], 30)
    opt = Adam(ws, lr=0.01)
    assert all(w.store is opt._file for w in ws)
    opt.zero_grad()
    _record(ws, refs, 31)
    assert clip_grad_norm(ws, 1e-3) == clip_grad_norm(refs, 1e-3) < 1.0
    assert [w.read().tobytes() for w in ws] == [r.value.tobytes() for r in refs]


def test_a_wide_weight_keeps_its_file_when_its_optimizer_is_gone():
    # the weights hold the file: their values stay there, and a deferred
    # gradient is still rebuilt in its slot
    ws, refs = _deferred([(300, 257), (256, 256)], 32)
    opt = Adam(ws, lr=0.01)
    opt.zero_grad()
    _record(ws, refs, 33)
    file, close = opt._file, opt._file.close
    del opt
    assert close.alive and all(w.store is file for w in ws)
    assert clip_grad_norm(ws, 1e-3) == clip_grad_norm(refs, 1e-3) < 1.0
    assert [w.read().tobytes() for w in ws] == [r.value.tobytes() for r in refs]
    for w, r in zip(ws, refs):
        g = w.gradient()
        assert g.base is file.slot and g.tobytes() == r.grad.tobytes()
    # the last of them takes it along
    del ws, w, g, file
    assert not close.alive


def test_a_deferred_weight_in_no_file_is_rebuilt_in_fresh_storage():
    ws, refs = _deferred([(300, 257)], 36)
    ws[0].defer()
    _record(ws, refs, 37)
    assert clip_grad_norm(ws, 1e-3) == clip_grad_norm(refs, 1e-3) < 1.0
    assert ws[0].gradient().tobytes() == refs[0].grad.tobytes()
    assert ws[0].value.tobytes() == refs[0].value.tobytes()


def test_optimizer_without_a_wide_weight_opens_no_file_nor_staging_buffer(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("opened a scratch file")

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
    assert opt._file is None and params[0].store is None
    # arenas, moments and scratch of 650 elements each: ~31 kB, where two
    # chunk-sized staging buffers would take 1 MB
    assert peak < 128 * 1024, peak


def test_a_wide_weight_stepped_by_another_process_is_refused(monkeypatch):
    w = Weight(np.zeros((256, 256)), name="w")
    opt = Adam([w], lr=0.01)
    opt.zero_grad()
    monkeypatch.setattr(os, "getpid", lambda: opt._file.pid + 1)
    with pytest.raises(PopgateError, match="a forked process must build its own optimizer"):
        opt.step()
    with pytest.raises(PopgateError, match="a forked process must build its own optimizer"):
        w.read()
    monkeypatch.undo()
    assert opt.step_count == 1 and not w.read().any()


def test_clip_over_two_optimizers_rebuilds_each_gradient_in_its_own_slot():
    ws, refs = _deferred([(256, 256), (300, 257)], 34)
    opts = [Adam([w], lr=0.01) for w in ws]
    for opt in opts:
        opt.zero_grad()
    _record(ws, refs, 35)
    assert clip_grad_norm(ws, 1e-3) == clip_grad_norm(refs, 1e-3) < 1.0
    assert [w.read().tobytes() for w in ws] == [r.value.tobytes() for r in refs]
    for w, r, opt in zip(ws, refs, opts):
        g = w.gradient()
        assert g.base is opt._file.slot and g.tobytes() == r.grad.tobytes()


def test_writing_into_a_file_resident_weights_value_raises():
    # the placeholder holds no memory; `read()` is the one way to the values,
    # and its array is read-only too, as it is the slot's
    w = Weight(np.ones((300, 257)), name="w")
    Adam([w], lr=0.01)
    assert w.value.shape == (300, 257) and w.value.size == 300 * 257
    assert w.value.strides == (0, 0) and np.isnan(w.value).all()
    with pytest.raises(ValueError, match="read-only"):
        w.value[0, 0] = 2.0
    with pytest.raises(ValueError, match="read-only"):
        w.read()[0, 0] = 2.0
    w.write(np.full((300, 257), 3.0))
    assert (w.read() == 3.0).all()


def _failing(monkeypatch, op: str) -> None:
    """`os.preadv` or `os.pwritev` moving 8 bytes short from now on."""
    real = getattr(os, op)
    monkeypatch.setattr(os, op, lambda fd, bufs, offset: real(fd, bufs, offset) - 8)


def _assert_closed_and_named(info, file, expected: str) -> None:
    message = str(info.value)
    assert message == (
        "optimizer scratch file (wide weights' values and Adam's moments, unlinked, in"
        f" {tempfile.gettempdir()}; TMPDIR sets the directory): {expected}")
    assert not file.close.alive
    with pytest.raises(ValueError, match="closed file"):
        file.fileno()


# a chunk of 65536 elements takes 24 * 65536 bytes: its m, its v, then its
# values, which start 16 * 65536 bytes in
VALUES_AT = 16 * CHUNK


@pytest.mark.parametrize("op", ["pwritev", "preadv"])
def test_a_short_moments_transfer_closes_the_file_and_names_it(monkeypatch, op):
    # a step's first read is w's first chunk of moments and values, its
    # first write the same chunk back
    w = Weight(np.zeros((300, 257)), name="w")
    opt = Adam([w], lr=0.01)
    opt.zero_grad()
    w.add_product(np.ones((300, 1)), np.ones((1, 257)))
    opt.step()
    _failing(monkeypatch, op)
    with pytest.raises(PopgateError) as info:
        opt.step()
    _assert_closed_and_named(info, opt._file,
                             f"{op} moved {24 * CHUNK - 8} of {24 * CHUNK} bytes at byte 0")


def test_a_short_read_in_a_forward_closes_the_file_and_names_it(monkeypatch):
    layer = Dense(DenseLayerSpec(300, 257), np.random.default_rng(38))
    opt = Adam(layer.params(), lr=0.01)
    _failing(monkeypatch, "preadv")
    with pytest.raises(PopgateError) as info:
        layer.forward(np.ones((4, 300)))
    _assert_closed_and_named(
        info, opt._file, f"preadv moved {8 * CHUNK - 8} of {8 * CHUNK} bytes at byte {VALUES_AT}")


def test_a_short_write_in_load_state_closes_the_file_and_names_it(monkeypatch):
    layer = Dense(DenseLayerSpec(300, 257), np.random.default_rng(39))
    opt = Adam(layer.params(), lr=0.01)
    state = {k: np.ones_like(v) for k, v in layer.state_arrays().items()}
    _failing(monkeypatch, "pwritev")
    with pytest.raises(PopgateError) as info:
        layer.load_state(state)
    _assert_closed_and_named(
        info, opt._file, f"pwritev moved {8 * CHUNK - 8} of {8 * CHUNK} bytes at byte {VALUES_AT}")


@pytest.mark.parametrize("op", ["preadv", "pwritev"])
@pytest.mark.parametrize("call", ["snapshot", "restore"])
def test_a_short_transfer_in_a_snapshot_or_restore_closes_the_file_and_names_it(
        monkeypatch, call, op):
    # each chunk of values is read into a chunk buffer and written to the best
    # region, 24 bytes per element in, or the other way round
    layer = Dense(DenseLayerSpec(300, 257), np.random.default_rng(41))
    opt = Adam(layer.params(), lr=0.01)
    snapshot = snapshot_state(layer)
    best_at = 24 * 300 * 257
    src, dst = (VALUES_AT, best_at) if call == "snapshot" else (best_at, VALUES_AT)
    _failing(monkeypatch, op)
    with pytest.raises(PopgateError) as info:
        snapshot_state(layer, into=snapshot) if call == "snapshot" else snapshot.restore()
    _assert_closed_and_named(
        info, opt._file,
        f"{op} moved {8 * CHUNK - 8} of {8 * CHUNK} bytes at byte {src if op == 'preadv' else dst}")


def test_a_weight_whose_file_is_closed_raises_the_same_error():
    # also when the slot still holds its values: they are no longer the file's
    layer = Dense(DenseLayerSpec(300, 257), np.random.default_rng(40))
    opt = Adam(layer.params(), lr=0.01)
    layer.forward(np.ones((4, 300)))
    opt._file.close()
    with pytest.raises(PopgateError) as info:
        layer.forward(np.ones((4, 300)))
    _assert_closed_and_named(
        info, opt._file, f"preadv at byte {VALUES_AT}: I/O operation on closed file")
    with pytest.raises(PopgateError, match=f"preadv at byte {VALUES_AT}: I/O operation on closed"):
        opt.step()


def test_a_short_write_while_building_closes_the_file_and_keeps_the_values(monkeypatch):
    ws = [Weight(np.arange(300 * 257, dtype=np.float64).reshape(300, 257) + k, name=f"w{k}")
          for k in range(2)]
    drawn = [w.value for w in ws]
    fds = sorted(os.listdir("/proc/self/fd"))
    real = os.pwritev
    # the first weight's two chunks go through; the second's first fails
    calls = []
    monkeypatch.setattr(os, "pwritev", lambda fd, bufs, offset:
                        real(fd, bufs, offset) - 8 * (calls.append(offset) or len(calls) > 2))
    with pytest.raises(PopgateError, match=f"pwritev moved {8 * CHUNK - 8} of {8 * CHUNK} "
                                           f"bytes at byte {24 * 300 * 257 + VALUES_AT}"):
        Adam(ws, lr=0.01)
    assert sorted(os.listdir("/proc/self/fd")) == fds
    assert [w.value for w in ws] == drawn and all(w.store is None for w in ws)


# 700 x 390 is 4.17 chunks: the last one is short
DRAWN = DenseLayerSpec(700, 390, Elu())


def test_a_file_resident_draw_holds_one_whole_normal_draw_a_chunk_at_a_time():
    layer = Dense(DRAWN, None)
    opt = Adam(layer.params(), lr=0.01)
    assert layer.W.store is opt._file and layer.W.value.size % CHUNK
    rng = np.random.default_rng(40)
    tracemalloc.start()
    try:
        layer.draw(rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    ref = np.random.default_rng(40)
    whole = ref.normal(0.0, np.sqrt(2.0 / 700), size=(700, 390))
    assert layer.W.read().tobytes() == whole.tobytes()
    # the stream is left where the whole draw leaves it
    assert rng.random() == ref.random()
    # one chunk's draw at a time, not the weight
    assert peak < 2 * 8 * CHUNK < layer.W.value.nbytes / 2, peak
    # a layer built with the stream draws the same bytes into its own array
    assert Dense(DRAWN, np.random.default_rng(40)).W.value.tobytes() == whole.tobytes()


def test_a_short_write_in_a_draw_closes_the_file_names_it_and_draws_no_further(monkeypatch):
    layer = Dense(DRAWN, None)
    opt = Adam(layer.params(), lr=0.01)
    real = os.pwritev
    # the first chunk goes through; the second's write is short
    calls = []
    monkeypatch.setattr(os, "pwritev", lambda fd, bufs, offset:
                        real(fd, bufs, offset) - 8 * (calls.append(offset) or len(calls) > 1))
    rng = np.random.default_rng(41)
    with pytest.raises(PopgateError) as info:
        layer.draw(rng)
    _assert_closed_and_named(info, opt._file, f"pwritev moved {8 * CHUNK - 8} of {8 * CHUNK}"
                                              f" bytes at byte {24 * CHUNK + VALUES_AT}")
    # the draw stopped at the chunk whose write failed
    ref = np.random.default_rng(41)
    ref.normal(size=2 * CHUNK)
    assert rng.random() == ref.random()
