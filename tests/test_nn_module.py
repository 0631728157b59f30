"""Model state: the checkpoint key format and the one load path.

The key lists below are the on-disk format of every `.npz` the CLI writes;
a change to any of them changes the bytes of saved models.
"""

import numpy as np
import pytest

from popgate.autoenc import Autoencoder
from popgate.config import MODALITIES, BranchConfig, Elu, GateConfig
from popgate.exceptions import MissingInputError, ShapeError
from popgate.fusion import (
    ExpertBranch,
    GatedEnsemble,
    GatingNetwork,
)

BN = ["bn.gamma", "bn.beta", "bn.running_mean", "bn.running_var"]


def _branch_config(modality="audio"):
    return BranchConfig(modality, in_dim=5, hidden=(4, 3), activation=Elu(0.1), dropout=(0.1, 0.0))


def _with(prefix, names):
    return [f"{prefix}{n}" for n in names]


BRANCH_KEYS = [
    *_with("trunk.layer0.", ["W", "b", *BN]),
    *_with("trunk.layer1.", ["W", "b", *BN]),
    "head.W",
    "head.b",
]
GATE_KEYS = [
    "std.audio.shift", "std.audio.scale",
    "std.lyrics.shift", "std.lyrics.scale",
    "std.social.shift", "std.social.scale",
    *_with("mlp.layer0.", ["W", "b", *BN]),
    "mlp.layer1.W", "mlp.layer1.b",
]


def test_expert_branch_state_keys_and_shapes():
    branch = ExpertBranch(_branch_config(), np.random.default_rng(0))
    shapes = {k: v.shape for k, v in branch.state_arrays().items()}
    assert list(shapes) == BRANCH_KEYS
    assert shapes["trunk.layer0.W"] == (5, 4)
    assert shapes["trunk.layer1.bn.running_var"] == (3,)
    assert shapes["head.W"] == (3, 1)
    assert list(branch.state_arrays("audio.")) == _with("audio.", BRANCH_KEYS)


def test_gating_network_state_keys_and_shapes():
    gate = GatingNetwork(GateConfig(repr_dim=3, hidden=(4,)), np.random.default_rng(0))
    shapes = {k: v.shape for k, v in gate.state_arrays().items()}
    assert list(shapes) == GATE_KEYS
    assert shapes["std.lyrics.scale"] == (3,)
    assert shapes["mlp.layer0.W"] == (9, 4)
    assert shapes["mlp.layer1.W"] == (4, 3)


def test_gated_ensemble_state_keys():
    rng = np.random.default_rng(0)
    model = GatedEnsemble.build(
        {m: _branch_config(m) for m in MODALITIES}, GateConfig(repr_dim=3, hidden=(4,)), rng
    )
    expect = [k for m in MODALITIES for k in _with(f"{m}.", BRANCH_KEYS)]
    assert list(model.state_arrays()) == expect + _with("gate.", GATE_KEYS)


def test_autoencoder_state_keys_and_shapes():
    ae = Autoencoder(6, 2, np.random.default_rng(0))
    shapes = {k: v.shape for k, v in ae.state_arrays().items()}
    assert list(shapes) == [
        *_with("enc.layer0.", ["W", "b", *BN]),
        "enc.layer1.W", "enc.layer1.b",
        *_with("dec.layer0.", ["W", "b", *BN]),
        "dec.layer1.W", "dec.layer1.b",
    ]
    assert shapes["enc.layer0.W"] == (6, 3)
    assert shapes["enc.layer1.W"] == (3, 2)
    assert shapes["dec.layer1.W"] == (3, 6)


def test_params_follow_state_order_without_running_stats():
    # the optimizer's moment order, and so every update, follows params()
    gate = GatingNetwork(GateConfig(repr_dim=3, hidden=(4,)), np.random.default_rng(0))
    trainable = [v for k, v in gate.state_arrays().items() if "running_" not in k]
    assert [id(p.value) for p in gate.params()] == [id(v) for v in trainable]


def test_load_state_copies_in_place_and_ignores_extra_keys():
    a = ExpertBranch(_branch_config(), np.random.default_rng(1))
    b = ExpertBranch(_branch_config(), np.random.default_rng(2))
    live = b.state_arrays()
    saved = {k: v.copy() for k, v in a.state_arrays().items()}
    saved["scaler.center"] = np.zeros(5)
    b.load_state(saved, "a.npz")
    for k, v in b.state_arrays().items():
        assert v is live[k]
        assert np.array_equal(v, saved[k])


def test_load_state_missing_key_names_source_and_key():
    branch = ExpertBranch(_branch_config(), np.random.default_rng(0))
    saved = {k: v.copy() for k, v in branch.state_arrays().items()}
    del saved["trunk.layer1.bn.running_mean"]
    key = r"trunk\.layer1\.bn\.running_mean"
    with pytest.raises(MissingInputError, match=r"branch_audio\.npz.*" + key):
        branch.load_state(saved, "models/branch_audio.npz")


def test_load_state_wrong_shape_names_source_and_key():
    ae = Autoencoder(6, 2, np.random.default_rng(0))
    saved = Autoencoder(6, 1, np.random.default_rng(1)).state_arrays()
    before = {k: v.copy() for k, v in ae.state_arrays().items()}
    with pytest.raises(ShapeError, match=r"aud\.npz.*enc\.layer1\.W.*\(3, 1\)"):
        ae.load_state(saved, "aud.npz")
    # nothing is written once a mismatch is found
    for k, v in ae.state_arrays().items():
        assert np.array_equal(v, before[k])
