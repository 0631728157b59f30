"""Both fusion phases train bit for bit as the two loops in `_oracles` did.

The phases share one epoch loop; the references are the two hand-written
loops it replaced. Histories must be equal and every state array bitwise
equal, compared as `uint64` views so that `-0.0` counts. The settings make
each run clip, cut its learning rate on a plateau and stop early.
"""

import copy

import numpy as np
import pytest

from popgate.config import (MODALITIES, BranchConfig, Elu, GateConfig, LeakyRelu, LossWeights,
                            Phase1Config, Phase2Config)
from popgate.fusion import (
    GatedEnsemble,
    phase1_train,
    phase2_train,
)
from popgate.seeding import rng_for

from _oracles import ref_phase1_train, ref_phase2_train

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
