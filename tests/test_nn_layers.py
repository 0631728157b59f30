"""Forward-pass behavior of activations, batchnorm, dense blocks, and MLPs."""

import re

import numpy as np
import pytest

from popgate.codec import from_json, to_json
from popgate.config import Activation, Elu, Identity, LeakyRelu, Sigmoid
from popgate.exceptions import ConfigError, ShapeError
from popgate.nn.layers import (
    MLP,
    BatchNorm,
    Dense,
    DenseLayerSpec,
    activation_backward,
    activation_forward,
    snapshot_state,
)
from popgate.nn.optim import clip_grad_norm
from popgate.nn.optim import Adam

from _gradcheck import zero_grads


# --- activations ------------------------------------------------------------


def test_elu_values():
    x = np.array([[2.0, 0.0, -1.0]])
    out = activation_forward(x, Elu(alpha=0.1))
    assert out[0, 0] == 2.0
    assert out[0, 1] == 0.0
    assert np.isclose(out[0, 2], 0.1 * (np.exp(-1.0) - 1.0))


def test_elu_negative_saturation():
    out = activation_forward(np.array([[-50.0]]), Elu(alpha=0.1))
    assert np.isclose(out[0, 0], -0.1, atol=1e-12)


def test_leaky_relu_values():
    x = np.array([[3.0, -2.0]])
    out = activation_forward(x, LeakyRelu(slope=0.05))
    assert out[0, 0] == 3.0
    assert out[0, 1] == -0.1


def test_sigmoid_matches_definition_and_is_stable():
    x = np.array([[0.0, 2.0, -3.0, 800.0, -800.0]])
    out = activation_forward(x, Sigmoid())
    ref = 1.0 / (1.0 + np.exp(-np.clip(x, -500, 500)))
    assert np.allclose(out, ref, atol=1e-12)
    assert np.all(np.isfinite(out))
    # saturation clamps to the open interval: never exactly 0 or 1
    assert 0.0 < out[0, 4] and out[0, 3] < 1.0
    assert out[0, 3] == np.nextafter(1.0, 0.0)
    assert out[0, 4] == np.finfo(np.float64).tiny


def test_identity_copies():
    x = np.array([[1.0, -1.0]])
    out = activation_forward(x, Identity())
    assert np.array_equal(out, x)
    out[0, 0] = 99.0
    assert x[0, 0] == 1.0


def test_activation_rejects_nonfinite():
    with pytest.raises(ValueError, match="non-finite"):
        activation_forward(np.array([[np.nan]]), Elu())


def test_activation_param_validation():
    with pytest.raises(ValueError):
        Elu(alpha=0.0)
    with pytest.raises(ValueError):
        LeakyRelu(slope=1.0)


def test_activation_json_round_trip():
    for act in [Elu(alpha=0.3), LeakyRelu(slope=0.02), Sigmoid(), Identity()]:
        assert from_json(Activation, to_json(act, tagged=True)) == act
    with pytest.raises(ConfigError, match="kind is one of"):
        from_json(Activation, {"kind": "tanh"})


def test_elu_backward_uses_cached_output():
    # derivative for x < 0 is alpha*e^x == out + alpha
    pre = np.array([[-1.5, 0.5]])
    out = activation_forward(pre, Elu(alpha=0.1))
    got = activation_backward(np.ones_like(pre), out, Elu(alpha=0.1))
    assert np.isclose(got[0, 0], 0.1 * np.exp(-1.5))
    assert got[0, 1] == 1.0


# --- batchnorm --------------------------------------------------------------


def test_batchnorm_standardizes_training_batch():
    rng = np.random.default_rng(0)
    # large spread so eps is negligible relative to the variance
    x = rng.normal(50.0, 30.0, size=(512, 4))
    bn = BatchNorm(4)
    out = bn.forward(x, train=True)
    assert np.max(np.abs(out.mean(axis=0))) < 1e-6
    assert np.max(np.abs(out.var(axis=0) - 1.0)) < 1e-6


def test_batchnorm_running_stats_update():
    x = np.array([[1.0], [3.0]])  # mean 2, population var 1
    bn = BatchNorm(1)
    bn.forward(x, train=True)
    assert np.isclose(bn.running_mean[0], 0.9 * 0.0 + 0.1 * 2.0)
    assert np.isclose(bn.running_var[0], 0.9 * 1.0 + 0.1 * 1.0)


def test_batchnorm_eval_uses_running_stats():
    bn = BatchNorm(1)
    bn.running_mean[:] = 4.0
    bn.running_var[:] = 9.0
    out = bn.forward(np.array([[7.0]]), train=False)
    assert np.isclose(out[0, 0], 3.0 / np.sqrt(9.0 + bn.eps))


def test_batchnorm_affine_params_apply():
    bn = BatchNorm(2)
    bn.gamma.value[:] = [2.0, 0.5]
    bn.beta.value[:] = [1.0, -1.0]
    x = np.random.default_rng(1).normal(size=(64, 2)) * 10
    out = bn.forward(x, train=True)
    assert np.allclose(out.mean(axis=0), [1.0, -1.0], atol=1e-9)
    assert np.allclose(out.std(axis=0), [2.0, 0.5], atol=1e-4)


# --- dense blocks -----------------------------------------------------------


def _spec(**kw):
    base = dict(in_dim=3, out_dim=2, activation=Identity())
    base.update(kw)
    return DenseLayerSpec(**base)


def test_dense_linear_matches_matmul():
    rng = np.random.default_rng(3)
    layer = Dense(_spec(), rng)
    x = rng.normal(size=(5, 3))
    out = layer.forward(x)
    assert np.allclose(out, x @ layer.W.value + layer.b.value)


def test_dense_init_draws_what_normal_draws():
    # the weights are rng.normal(0, scale, shape) bit for bit, He-scaled for
    # rectifiers and Glorot-scaled otherwise, and the stream is left where
    # normal leaves it, so the next draw is the same too: the checkpoint
    # bytes of every trained model rest on both
    specs = [DenseLayerSpec(3, 5, Elu()), DenseLayerSpec(7, 1, Identity()),
             DenseLayerSpec(64, 33, LeakyRelu(), batchnorm=True), DenseLayerSpec(1, 128, Sigmoid())]
    for seed in range(30):
        for spec in specs:
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            gain = 2.0 if isinstance(spec.activation, (Elu, LeakyRelu)) else 1.0
            W = Dense(spec, rng).W.value
            expected = ref.normal(0.0, np.sqrt(gain / spec.in_dim), size=(spec.in_dim, spec.out_dim))
            assert W.view(np.uint64).tobytes() == expected.view(np.uint64).tobytes(), (seed, spec)
            assert rng.normal(size=3).tobytes() == ref.normal(size=3).tobytes(), (seed, spec)


def test_dense_rejects_wrong_width():
    layer = Dense(_spec(), np.random.default_rng(0), name="enc.0")
    with pytest.raises(ShapeError, match=r"enc\.0.*\(batch, 3\)"):
        layer.forward(np.zeros((4, 7)))


def test_dense_dropout_requires_rng_in_train_mode():
    layer = Dense(_spec(dropout_p=0.5), np.random.default_rng(0))
    with pytest.raises(ValueError, match="needs an rng"):
        layer.forward(np.zeros((2, 3)), train=True)


def test_dropout_is_inverted_and_seed_deterministic():
    spec = _spec(in_dim=1, out_dim=1000, dropout_p=0.4)
    rng = np.random.default_rng(7)
    layer = Dense(spec, rng)
    layer.W.value[:] = 0.0
    layer.b.value[:] = 1.0  # activations all exactly 1 pre-dropout
    out1 = layer.forward(np.zeros((1, 1)), train=True, rng=np.random.default_rng(11))
    out2 = layer.forward(np.zeros((1, 1)), train=True, rng=np.random.default_rng(11))
    assert np.array_equal(out1, out2)
    kept = out1[out1 != 0]
    assert np.allclose(kept, 1.0 / 0.6)  # inverted scaling
    # kept fraction near 1 - p
    assert abs(kept.size / 1000 - 0.6) < 0.05
    # eval mode: no masking, no rescale
    assert np.allclose(layer.forward(np.zeros((1, 1))), 1.0)


def test_dense_backward_before_forward_raises():
    layer = Dense(_spec(), np.random.default_rng(0))
    with pytest.raises(RuntimeError, match="layer 'dense': backward needs a train-mode forward"):
        layer.backward(np.zeros((1, 2)))


def test_a_backward_consumes_its_forwards_cache_and_a_second_raises():
    # each Dense and BatchNorm drops what its train forward kept as its
    # backward reads it, so a finished backward leaves no batch-sized array
    # in the model, and a second backward has nothing to read
    mlp = MLP([DenseLayerSpec(5, 4, Elu(), batchnorm=True, dropout_p=0.3),
               DenseLayerSpec(4, 3, Identity())], np.random.default_rng(7))
    out = mlp.forward(np.random.default_rng(8).normal(size=(6, 5)), train=True,
                      rng=np.random.default_rng(9))
    cached = {"layer 'mlp.0'": mlp.layers[0], "batchnorm 'mlp.0.bn'": mlp.layers[0].bn,
              "layer 'mlp.1'": mlp.layers[1]}
    assert all(module._cache is not None for module in cached.values())
    mlp.backward(out)
    for name, module in cached.items():
        assert module._cache is None, name
        with pytest.raises(RuntimeError,
                           match=re.escape(f"{name}: backward needs a train-mode forward")):
            module.backward(np.ones((6, 4)))


def test_param_grads_accumulate_across_backwards():
    layer = Dense(_spec(), np.random.default_rng(2))
    x = np.ones((2, 3))
    g = np.ones((2, 2))
    layer.forward(x, train=True)
    layer.backward(g)
    first = layer.W.grad.copy()
    layer.forward(x, train=True)
    layer.backward(g)
    assert np.allclose(layer.W.grad, 2.0 * first)
    zero_grads([layer.W])
    assert np.all(layer.W.grad == 0.0)


# --- MLP --------------------------------------------------------------------


def test_mlp_rejects_nonchaining_dims():
    specs = [_spec(in_dim=3, out_dim=4), _spec(in_dim=5, out_dim=2)]
    with pytest.raises(ShapeError, match="do not chain"):
        MLP(specs, np.random.default_rng(0))


def test_mlp_forward_shape_and_param_count():
    specs = [
        DenseLayerSpec(6, 8, Elu(), batchnorm=True, dropout_p=0.1),
        DenseLayerSpec(8, 1, Identity()),
    ]
    mlp = MLP(specs, np.random.default_rng(0))
    out = mlp.forward(np.zeros((4, 6)), train=True, rng=np.random.default_rng(1))
    assert out.shape == (4, 1)
    # W,b for both layers + gamma,beta for the batchnormed one
    assert len(mlp.params()) == 6
    assert mlp.layers[0].spec.in_dim == 6 and mlp.layers[-1].spec.out_dim == 1


def test_mlp_state_round_trip_is_bit_exact():
    specs = [
        DenseLayerSpec(4, 5, LeakyRelu(), batchnorm=True),
        DenseLayerSpec(5, 2, Sigmoid()),
    ]
    rng = np.random.default_rng(9)
    mlp = MLP(specs, rng)
    mlp.forward(rng.normal(size=(16, 4)), train=True)  # populate running stats
    saved = ram_copy(mlp)
    x = rng.normal(size=(3, 4))
    before = mlp.forward(x)
    # clone with different init, then restore
    other = MLP(specs, np.random.default_rng(99))
    other.load_state(saved)
    assert np.array_equal(other.forward(x), before)
    # load_state writes back in place
    for p in mlp.params():
        p.value += 1.0
    mlp.load_state(saved)
    assert np.array_equal(mlp.forward(x), before)


def ram_copy(module) -> dict:
    """A copy of `module`'s state arrays in RAM, taken one at a time."""
    return {k: v.copy() for k, v in module.state_arrays().items()}


def test_a_snapshot_restores_values_and_running_statistics_in_place():
    specs = [DenseLayerSpec(4, 5, LeakyRelu(), batchnorm=True), DenseLayerSpec(5, 2, Sigmoid())]
    rng = np.random.default_rng(9)
    mlp = MLP(specs, rng)
    mlp.forward(rng.normal(size=(16, 4)), train=True)  # populate running stats
    saved, live = ram_copy(mlp), dict(mlp.state_arrays())
    snapshot = snapshot_state(mlp)
    for p in mlp.params():
        p.value += 1.0
    mlp.forward(rng.normal(size=(16, 4)), train=True)
    # a second take overwrites the first in place; restore brings that back
    assert snapshot_state(mlp, into=snapshot) is snapshot
    moved = ram_copy(mlp)
    for p in mlp.params():
        p.value -= 3.0
    snapshot.restore()
    for key, array in mlp.state_arrays().items():
        assert array is live[key], key
        assert _bits(array) == _bits(moved[key]) != _bits(saved[key]), key


def test_spec_validation():
    with pytest.raises(ValueError):
        DenseLayerSpec(0, 3)
    with pytest.raises(ValueError):
        DenseLayerSpec(3, 3, dropout_p=1.0)


# --- file-resident weights ---------------------------------------------------


def wide_twins(seed: int = 5) -> tuple[MLP, MLP, Adam]:
    """Two MLPs drawn alike, with two wide weights (300 x 256 and 256 x 300):
    the first's in its optimizer's scratch file, the second's in RAM."""
    specs = [DenseLayerSpec(300, 256, Elu(), batchnorm=True, dropout_p=0.1),
             DenseLayerSpec(256, 300, Identity())]
    filed, resident = (MLP(specs, np.random.default_rng(seed)) for _ in range(2))
    opt = Adam(filed.params(), lr=1e-2)
    assert all(layer.W.store is opt._file for layer in filed.layers)
    assert all(layer.W.store is None for layer in resident.layers)
    return filed, resident, opt


def _bits(a: np.ndarray) -> bytes:
    return a.view(np.uint64).tobytes()


def test_file_resident_weights_give_the_resident_twins_outputs_and_gradients():
    filed, resident, opt = wide_twins()
    x = np.random.default_rng(6).normal(size=(16, 300))
    for step in range(2):
        opt.zero_grad()
        zero_grads(resident.params())
        outs = [m.forward(x, train=True, rng=np.random.default_rng(7 + step))
                for m in (filed, resident)]
        assert _bits(outs[0]) == _bits(outs[1])
        # the last layer's weight is still in the slot: backward reads no other
        grads = [m.backward(out - x) for m, out in zip((filed, resident), outs)]
        assert _bits(grads[0]) == _bits(grads[1])
        for ours, ref in zip(filed.params(), resident.params()):
            assert _bits(ours.gradient()) == _bits(ref.grad), ours.name
        for m in (filed, resident):
            m.forward(x)  # eval mode, as a validation pass
        # a step changes the values, so the twins part: copy the new ones over
        opt.step()
        resident.load_state(ram_copy(filed))
    assert _bits(filed.forward(x)) == _bits(resident.forward(x))


def test_a_snapshot_keeps_file_resident_values_in_the_files_best_region():
    # a stepped model comes back to the snapshot bit for bit; the wide values
    # are copied within the file, so neither the take nor the restore holds
    # a copy of a wide weight in RAM
    tracemalloc = pytest.importorskip("tracemalloc")
    filed, _, opt = wide_twins(12)
    x = np.random.default_rng(13).normal(size=(16, 300))
    filed.forward(x, train=True, rng=np.random.default_rng(14))
    before = ram_copy(filed)
    tracemalloc.start()
    try:
        snapshot = snapshot_state(filed)
        took = tracemalloc.get_traced_memory()[1]
        opt.zero_grad()
        filed.backward(filed.forward(x, train=True, rng=np.random.default_rng(15)) - x)
        clip_grad_norm(opt.params, 1e-3)
        opt.step()
        filed.forward(x)  # the slot now holds a stepped weight's values
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        snapshot.restore()
        restored = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    W = filed.layers[0].W.value.size * 8
    assert took < W / 4 and restored < W / 4, (took / W, restored / W)
    # the slot held the last layer's stepped values: they are read again
    assert _bits(filed.layers[-1].W.read()) == _bits(before["layer1.W"])
    after = ram_copy(filed)
    assert list(after) == list(before)
    for key in before:
        assert _bits(after[key]) == _bits(before[key]), key


def test_load_state_writes_file_resident_values_through():
    filed, resident, _ = wide_twins(8)
    for p in resident.params():
        p.value += 1.0
    filed.load_state(resident.state_arrays())
    # each array is read as it is looked up, after the slot held another
    ours, ref = filed.state_arrays(), resident.state_arrays()
    assert list(ours) == list(ref)
    for key in ours:
        assert _bits(ours[key]) == _bits(ref[key]), key
