"""Both fusion phases train bit for bit as the two loops in `_oracles` did.

The phases share one epoch loop; the references are the two hand-written
loops it replaced. Histories must be equal and every state array bitwise
equal, compared as `uint64` views so that `-0.0` counts. The settings make
each run clip, cut its learning rate on a plateau and stop early. A
backward consumes every cache its forward kept.
"""

import copy
import re

import numpy as np
import pytest

import popgate.nn.optim

from popgate.config import (MODALITIES, BranchConfig, Elu, GateConfig, LeakyRelu, LossWeights,
                            Phase1Config, Phase2Config)
from popgate.fusion.model import GatedEnsemble
from popgate.fusion.train import phase1_train, phase2_train
from popgate.nn.layers import SMALL_PRODUCT, Weight
from popgate.seeding import rng_for

from _oracles import ref_phase1_train, ref_phase2_train
from test_fusion import _cache_of, _error_name, _modules

DIMS = {"audio": 6, "lyrics": 8, "social": 4}
# clip_norm is small enough that clipping fires, so the clip/step order shows
P1 = Phase1Config(lr=3e-3, batch_size=32, max_epochs=80, patience=6, plateau_patience=2,
                  clip_norm=0.05)


def _data(n=260, seed=9):
    rng = rng_for(seed, "loop-data")
    xs = {m: rng.normal(size=(n, DIMS[m])) for m in MODALITIES}
    raw = xs["social"] @ rng.normal(size=DIMS["social"]) + 0.3 * rng.normal(size=n)
    y = (raw - raw.min()) / (raw.max() - raw.min())
    n_tr = 200
    return ({m: x[:n_tr] for m, x in xs.items()}, y[:n_tr],
            {m: x[n_tr:] for m, x in xs.items()}, y[n_tr:])


def _model(seed=0):
    cfgs = {
        "audio": BranchConfig("audio", DIMS["audio"], (8, 4), Elu(0.1), (0.1, 0.1)),
        "lyrics": BranchConfig("lyrics", DIMS["lyrics"], (8, 4), Elu(0.1), (0.1, 0.1)),
        "social": BranchConfig("social", DIMS["social"], (8, 4), LeakyRelu(0.05), (0.0, 0.0)),
    }
    return GatedEnsemble.build(cfgs, GateConfig(repr_dim=4, hidden=(8,), dropout_p=0.05),
                               rng_for(seed, "loop-model"))


def _assert_same_state(a: dict, b: dict) -> None:
    assert list(a) == list(b)
    for key in a:
        assert a[key].dtype == b[key].dtype == np.float64, key
        assert a[key].shape == b[key].shape, key
        assert np.array_equal(a[key].view(np.uint64), b[key].view(np.uint64)), key


def _assert_cut_and_stopped(hist: dict, cfg) -> None:
    assert hist["lr_reductions"] >= 1
    assert hist["epochs_run"] < cfg.max_epochs


def test_phase1_matches_reference_loop():
    xs_tr, y_tr, xs_va, y_va = _data()
    ours, ref = _model(), _model()
    m = "audio"  # dropout and ELU: both streams and the snapshot matter
    hist = phase1_train(ours.branches[m], xs_tr[m], y_tr, xs_va[m], y_va, P1, 46)
    ref_hist = ref_phase1_train(ref.branches[m], xs_tr[m], y_tr, xs_va[m], y_va, P1, 46)
    assert hist == ref_hist
    _assert_cut_and_stopped(hist, P1)
    assert ours.branches[m].trained and ref.branches[m].trained
    _assert_same_state(ours.branches[m].state_arrays(), ref.branches[m].state_arrays())


@pytest.fixture(scope="module")
def phase1_model():
    xs_tr, y_tr, xs_va, y_va = _data()
    model = _model()
    for m in MODALITIES:
        phase1_train(model.branches[m], xs_tr[m], y_tr, xs_va[m], y_va, P1, 46)
    return model


@pytest.mark.parametrize("freeze", [True, False], ids=["frozen", "fine-tuned"])
def test_phase2_matches_reference_loop(phase1_model, freeze):
    cfg = Phase2Config(lr=3e-3, batch_size=32, max_epochs=60, patience=6, plateau_patience=2,
                       clip_norm=0.05, freeze_branches=freeze)
    xs_tr, y_tr, xs_va, y_va = _data()
    ours, ref = copy.deepcopy(phase1_model), copy.deepcopy(phase1_model)
    weights = LossWeights()
    hist = phase2_train(ours, xs_tr, y_tr, xs_va, y_va, weights, cfg, 46)
    ref_hist = ref_phase2_train(ref, xs_tr, y_tr, xs_va, y_va, weights, cfg, 46)
    assert hist == ref_hist
    _assert_cut_and_stopped(hist, cfg)
    _assert_same_state(ours.state_arrays(), ref.state_arrays())
    if freeze:
        _assert_same_state(ours.branches["audio"].state_arrays(),
                           phase1_model.branches["audio"].state_arrays())


# --- wide weights: the best epoch in the optimizer's scratch file -----------

WIDE_DIMS = {**DIMS, "audio": 300}  # the audio trunk's first weight, 300 x 256, is wide


def _wide_data(n=260, seed=10):
    rng = rng_for(seed, "wide-loop-data")
    xs = {m: rng.normal(size=(n, WIDE_DIMS[m])) for m in MODALITIES}
    raw = xs["audio"][:, :5].sum(axis=1) + 0.3 * rng.normal(size=n)
    y = (raw - raw.min()) / (raw.max() - raw.min())
    return ({m: x[:200] for m, x in xs.items()}, y[:200],
            {m: x[200:] for m, x in xs.items()}, y[200:])


def _wide_model(seed=1):
    cfgs = {
        "audio": BranchConfig("audio", 300, (256, 4), Elu(0.1), (0.1, 0.1)),
        "lyrics": BranchConfig("lyrics", DIMS["lyrics"], (8, 4), Elu(0.1), (0.1, 0.1)),
        "social": BranchConfig("social", DIMS["social"], (8, 4), LeakyRelu(0.05), (0.0, 0.0)),
    }
    model = GatedEnsemble.build(cfgs, GateConfig(repr_dim=4, hidden=(8,), dropout_p=0.05),
                                rng_for(seed, "wide-loop-model"))
    assert model.branches["audio"].params()[0].value.size >= SMALL_PRODUCT
    return model


@pytest.fixture
def copies(monkeypatch) -> list:
    """Each copy between a wide weight's values and its file's best region:
    True for a snapshot, False for a restore."""
    made = []
    copy_best = popgate.nn.optim._ScratchFile.copy_best
    monkeypatch.setattr(popgate.nn.optim._ScratchFile, "copy_best",
                        lambda self, w, keep: made.append(keep) or copy_best(self, w, keep))
    return made


def _wide_weights(module) -> list:
    return [p for p in module.params() if isinstance(p, Weight) and p.store is not None]


def test_a_wide_expert_whose_best_epoch_is_not_its_last_matches_the_reference(copies):
    cfg = Phase1Config(lr=0.2, batch_size=64, max_epochs=8, patience=20, plateau_patience=20)
    xs_tr, y_tr, xs_va, y_va = _wide_data()
    ours, ref = _wide_model(), _wide_model()
    m = "audio"
    hist = phase1_train(ours.branches[m], xs_tr[m], y_tr, xs_va[m], y_va, cfg, 46)
    ref_hist = ref_phase1_train(ref.branches[m], xs_tr[m], y_tr, xs_va[m], y_va, cfg, 46)
    assert hist == ref_hist
    assert 0 <= hist["best_epoch"] < hist["epochs_run"] - 1
    # one wide weight: a snapshot before the first epoch and on each of the
    # improving ones (the first and the best among them), then one restore
    # from the file
    assert len(_wide_weights(ours.branches[m])) == 1
    assert copies == [True] * copies.count(True) + [False] and copies.count(True) >= 3
    _assert_same_state(ours.branches[m].state_arrays(), ref.branches[m].state_arrays())


def _phase1_trained_wide_model():
    xs_tr, y_tr, xs_va, y_va = _wide_data()
    model = _wide_model()
    for m in MODALITIES:
        phase1_train(model.branches[m], xs_tr[m], y_tr, xs_va[m], y_va, P1, 46)
    return model


def test_a_fine_tuned_phase2_whose_initial_state_stays_best_matches_the_reference(copies):
    # a learning rate so high that no epoch beats the phase-1 ensemble: the
    # initial snapshot is restored, the wide weight's from the file
    cfg = Phase2Config(lr=1.0, batch_size=32, max_epochs=4, patience=10, plateau_patience=10,
                       freeze_branches=False)
    xs_tr, y_tr, xs_va, y_va = _wide_data()
    ours, ref = _phase1_trained_wide_model(), _phase1_trained_wide_model()
    initial = {k: v.copy() for k, v in ours.state_arrays().items()}
    del copies[:]
    weights = LossWeights()
    hist = phase2_train(ours, xs_tr, y_tr, xs_va, y_va, weights, cfg, 46)
    ref_hist = ref_phase2_train(ref, xs_tr, y_tr, xs_va, y_va, weights, cfg, 46)
    assert hist == ref_hist
    assert hist["best_epoch"] == 0 and hist["epochs_run"] == cfg.max_epochs
    assert len(_wide_weights(ours)) == 1 and copies == [True, False]
    _assert_same_state(ours.state_arrays(), ref.state_arrays())
    _assert_same_state(ours.state_arrays(), initial)


def test_a_backward_consumes_every_cache_and_a_second_raises():
    # the ensemble, the gate, its standardizers and every Dense and
    # BatchNorm of branches and gate drop what the train forward kept as
    # their backward reads it; a second backward of any has nothing to read
    model = _model(seed=3)
    xs, y, _, _ = _data(n=206)
    xs = {m: x[:6] for m, x in xs.items()}
    out = model.forward(xs, train=True, rng=rng_for(31, "dropout"))
    cached = [m for m in _modules(model) if hasattr(m, "_cache") or hasattr(m, "_probs")]
    assert {type(m).__name__ for m in cached} == {"Dense", "BatchNorm", "LearnableStandardize",
                                                  "GatingNetwork", "GatedEnsemble"}
    assert all(_cache_of(m) is not None for m in cached)
    model.backward(out.yhat - y[:6], out.branch_yhat - y[:6, None])
    for module in cached:
        name = _error_name(module)
        assert _cache_of(module) is None, name
        with pytest.raises(RuntimeError,
                           match=re.escape(f"{name}: backward needs a train-mode forward")):
            module.backward(np.ones((6, 3)))
