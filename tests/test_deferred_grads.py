"""A wide weight's gradient, rebuilt from its recorded products, trains bit
for bit as a stored gradient does.

Inside an optimizer a `Weight` of at least `SMALL_PRODUCT` elements keeps
the products backward adds, not their sum; clipping and the step rebuild
the sum. Each reference here runs the same code with the threshold raised
past every weight, so that every gradient is stored, accumulated by `+=`
as a layer outside an optimizer accumulates it. States are
compared as `uint64` views, so that `-0.0` counts.
"""

import json
import math
from contextlib import contextmanager

import numpy as np
import pytest

import popgate.fusion.train
import popgate.nn.optim
from popgate.autoenc.train import train_group_autoencoder
from popgate.config import AETrainConfig, BranchConfig, Elu, FeatureGroup, Identity, Phase1Config
from popgate.fusion.branches import ExpertBranch
from popgate.fusion.train import phase1_train
from popgate.nn.layers import MLP, Dense, DenseLayerSpec
from popgate.nn.optim import Adam, clip_grad_norm
from popgate.nn.layers import SMALL_PRODUCT
from popgate.seeding import rng_for

from _oracles import ref_phase1_train, ref_train_group_autoencoder


@contextmanager
def stored_grads():
    """Optimizers built inside store every gradient."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(popgate.nn.optim, "SMALL_PRODUCT", math.inf)
        yield


def _same(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.view(np.uint64).tobytes() == b.view(np.uint64).tobytes()


def _assert_same_state(a: dict, b: dict) -> None:
    assert list(a) == list(b)
    for key in a:
        assert _same(a[key], b[key]), key


def _spy_clip(monkeypatch, module) -> list:
    """Record, per clip `module` makes: (factor, how many wide weights hold
    no stored gradient)."""
    calls = []
    clip = module.clip_grad_norm

    def spied(params, max_norm):
        params = list(params)
        deferred = sum(p.grad is None for p in params)
        factor = clip(params, max_norm)
        calls.append((factor, deferred))
        return factor

    monkeypatch.setattr(module, "clip_grad_norm", spied)
    return calls


# enc 600x300 and dec 300x600 pass the threshold; the bottleneck layers do not
WIDE_GROUP = FeatureGroup("wide", 0, 600, 20)


@pytest.mark.parametrize("clip_norm", [1e-3, 1e9], ids=["clipped", "unclipped"])
def test_autoencoder_trainer_matches_the_oracle_on_stored_grads(tmp_path, monkeypatch,
                                                                clip_norm):
    assert 300 * 600 >= SMALL_PRODUCT > 300 * 20
    X = np.random.default_rng(31).normal(size=(75, 600))
    cfg = AETrainConfig(lr=1e-3, batch_size=32, max_epochs=3, clip_norm=clip_norm)
    clips = _spy_clip(monkeypatch, popgate.fusion.train)
    model, _, history = train_group_autoencoder(WIDE_GROUP, X, cfg, 46, tmp_path / "g.npz")
    with stored_grads():
        ref_model, _, ref_history = ref_train_group_autoencoder(WIDE_GROUP, X, cfg, 46)
    assert len(clips) == 9 and all(deferred == 2 for _, deferred in clips)
    assert all((factor < 1.0) == (clip_norm < 1.0) for factor, _ in clips)
    assert json.dumps(history, sort_keys=True) == json.dumps(ref_history, sort_keys=True)
    _assert_same_state(model.state_arrays(), ref_model.state_arrays())


def test_an_expert_with_one_wide_layer_trains_as_on_stored_grads(monkeypatch):
    # trunk 300x256 passes the threshold; clip_norm is small enough to fire
    cfg = BranchConfig("audio", 300, (256, 4), Elu(0.1), (0.1, 0.1))
    p1 = Phase1Config(lr=3e-3, batch_size=32, max_epochs=4, clip_norm=0.05)
    rng = rng_for(9, "wide-expert")
    x = rng.normal(size=(130, 300))
    raw = x[:, :5].sum(axis=1) + 0.3 * rng.normal(size=130)
    y = (raw - raw.min()) / (raw.max() - raw.min())
    ours = ExpertBranch(cfg, rng_for(3, "branch"))
    ref = ExpertBranch(cfg, rng_for(3, "branch"))
    clips = _spy_clip(monkeypatch, popgate.fusion.train)
    hist = phase1_train(ours, x[:100], y[:100], x[100:], y[100:], p1, 46)
    with stored_grads():
        ref_hist = ref_phase1_train(ref, x[:100], y[:100], x[100:], y[100:], p1, 46)
    assert len(clips) == 16 and all(deferred == 1 for _, deferred in clips)
    assert any(factor < 1.0 for factor, _ in clips)
    assert hist == ref_hist
    _assert_same_state(ours.state_arrays(), ref.state_arrays())


def _inputs(shape, seed):
    return np.random.default_rng(seed).normal(size=shape)


def test_two_backwards_before_a_step_equal_two_stored_products():
    # an Identity layer without batchnorm: backward's products are x.T @ g
    # for the given g, whatever the weights
    d_in, d_out = 300, 400
    twins = [Dense(DenseLayerSpec(d_in, d_out, Identity()), np.random.default_rng(14))
             for _ in range(2)]
    xs = [_inputs((5, d_in), seed) for seed in (15, 16)]
    grads = [_inputs((5, d_out), seed) for seed in (17, 18)]
    # opposite-signed tiny values: their products underflow to -0.0, which
    # a stored gradient's zeros turn into 0.0
    xs[0][:, :50] = -1e-300
    grads[0][:, :40] = 1e-300
    opt = Adam(twins[0].params(), lr=1e-2)
    with stored_grads():
        ref_opt = Adam(twins[1].params(), lr=1e-2)
    ours, ref = twins
    for _ in range(2):
        opt.zero_grad()
        ref_opt.zero_grad()
        acc = np.zeros((d_in, d_out))
        for x, g in zip(xs, grads):
            for layer in twins:
                layer.forward(x, train=True)
                layer.backward(g)
            acc += x.T @ g
            assert _same(ours.W.gradient(), acc) and _same(ref.W.grad, acc)
        assert ours.W.grad is None and len(ours.W.products) == 2
        for o in (opt, ref_opt):
            assert clip_grad_norm(o.params, 1e-3) < 1.0
            o.step()
        _assert_same_state(ours.state_arrays(), ref.state_arrays())


def _wide_mlp() -> MLP:
    specs = [DenseLayerSpec(300, 256, Elu(), batchnorm=True, dropout_p=0.1),
             DenseLayerSpec(256, 300, Identity())]
    return MLP(specs, np.random.default_rng(5), name="mlp")


def test_a_second_optimizer_over_the_same_params_keeps_the_recorded_products():
    # products recorded under the first optimizer are the gradient the
    # second one clips and steps, as a stored gradient carried into its arena
    x = _inputs((16, 300), 6)
    ours, ref = _wide_mlp(), _wide_mlp()
    first = Adam(ours.params(), lr=1e-2)
    with stored_grads():
        ref_opt = Adam(ref.params(), lr=1e-2)
    opts = [first, ref_opt]
    for step in range(3):
        for k, (mlp, opt) in enumerate(zip((ours, ref), opts)):
            opt.zero_grad()
            out = mlp.forward(x, train=True, rng=rng_for(7, f"drop-{step}"))
            mlp.backward(out - x, input_grad=False)
            if step == 0 and k == 0:
                opts[0] = opt = Adam(ours.params(), lr=1e-2)
            assert clip_grad_norm(opt.params, 0.5) < 1.0
            opt.step()
        assert [layer.W.grad is None for layer in ours.layers] == [True, True]
        _assert_same_state(ours.state_arrays(), ref.state_arrays())
    assert opts[0] is not first and first.step_count == 0
