"""Checkpoint round-trips: values bit-exact, metadata intact, versioned."""

import json
import weakref

import numpy as np
import pytest

from popgate.codec import canonical_json
from popgate.exceptions import MissingInputError, ShapeError
from popgate.nn.checkpoint import FORMAT_VERSION, load_checkpoint, save_checkpoint
from popgate.nn.layers import snapshot_state
from popgate.nn.optim import clip_grad_norm

from test_nn_layers import wide_twins


def test_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    arrays = {
        "w": rng.normal(size=(17, 5)),
        "b": rng.normal(size=5),
        "step": np.array([123], dtype=np.int64),
    }
    meta = {"seed": 46, "specs": [{"in_dim": 17, "out_dim": 5}], "lr": 1e-3}
    path = tmp_path / "model.npz"
    save_checkpoint(path, arrays, meta)
    loaded, got_meta = load_checkpoint(path)
    assert set(loaded) == set(arrays)
    for k in arrays:
        assert loaded[k].dtype == arrays[k].dtype
        assert np.array_equal(loaded[k], arrays[k])
    assert got_meta == meta


def test_save_keeps_exact_path_without_npz_suffix(tmp_path):
    path = tmp_path / "weights.ckpt"
    save_checkpoint(path, {"a": np.zeros(2)}, {})
    assert path.exists()
    arrays, _ = load_checkpoint(path)
    assert np.array_equal(arrays["a"], np.zeros(2))


def test_file_bytes_equal_what_np_savez_writes(tmp_path):
    # each member is written from the array's own memory, laid out as
    # np.savez lays it out: C-ordered, F-ordered, empty and 3-D arrays, and
    # the uint8 metadata blob last
    rng = np.random.default_rng(1)
    arrays = {
        "c": rng.normal(size=(17, 5)),
        "f": np.asfortranarray(rng.normal(size=(6, 9))),
        "empty": np.empty((0, 4)),
        "cube": rng.normal(size=(3, 4, 5)),
        "strided": rng.normal(size=(8, 6))[::2, 1:],
    }
    assert arrays["f"].flags.f_contiguous and not arrays["f"].flags.c_contiguous
    meta = {"seed": 46, "name": "g"}
    save_checkpoint(tmp_path / "ours.ckpt", arrays, meta)
    blob = np.frombuffer(canonical_json({"format_version": FORMAT_VERSION, **meta}).encode(),
                         dtype=np.uint8)
    np.savez(tmp_path / "numpy.npz", **arrays, __meta__=blob)
    assert (tmp_path / "ours.ckpt").read_bytes() == (tmp_path / "numpy.npz").read_bytes()


def test_missing_file_raises_missing_input(tmp_path):
    with pytest.raises(MissingInputError):
        load_checkpoint(tmp_path / "nope.npz")


def test_reserved_key_collision(tmp_path):
    with pytest.raises(ValueError, match="reserved"):
        save_checkpoint(tmp_path / "x.npz", {"__meta__": np.zeros(1)}, {})


def test_version_mismatch_rejected(tmp_path):
    path = tmp_path / "old.npz"
    blob = json.dumps({"format_version": 999}).encode()
    np.savez(path, __meta__=np.frombuffer(blob, dtype=np.uint8))
    with pytest.raises(MissingInputError, match="version"):
        load_checkpoint(path)


def test_non_checkpoint_npz_rejected(tmp_path):
    path = tmp_path / "plain.npz"
    np.savez(path, a=np.zeros(3))
    with pytest.raises(MissingInputError, match="missing metadata"):
        load_checkpoint(path)


def test_a_file_resident_models_checkpoint_has_the_resident_twins_bytes(tmp_path):
    # each wide weight is read into the slot and written before the next
    filed, resident, opt = wide_twins()
    x = np.random.default_rng(9).normal(size=(16, 300))
    opt.zero_grad()
    filed.backward(filed.forward(x, train=True, rng=np.random.default_rng(10)) - x)
    clip_grad_norm(opt.params, 1e-3)
    opt.step()
    resident.load_state(snapshot_state(filed.state_arrays()))
    save_checkpoint(tmp_path / "filed.npz", filed.state_arrays(), {"seed": 1})
    save_checkpoint(tmp_path / "resident.npz", resident.state_arrays(), {"seed": 1})
    assert (tmp_path / "filed.npz").read_bytes() == (tmp_path / "resident.npz").read_bytes()


def test_loading_into_a_model_checks_every_shape_first_and_reads_one_array_at_a_time(
        tmp_path, monkeypatch):
    filed, resident, _ = wide_twins(11)
    for p in resident.params():
        p.value += 1.0
    path = tmp_path / "resident.npz"
    save_checkpoint(path, resident.state_arrays(), {"seed": 1})
    alive = []
    real = np.lib.npyio.NpzFile.__getitem__

    def counted(self, key):
        array = real(self, key)
        alive.append(weakref.ref(array))
        assert sum(r() is not None for r in alive) == 1, key
        return array

    monkeypatch.setattr(np.lib.npyio.NpzFile, "__getitem__", counted)
    assert load_checkpoint(path, into=filed) == ({}, {"seed": 1})
    monkeypatch.undo()
    ours, ref = filed.state_arrays(), resident.state_arrays()
    for key in ours:
        assert np.array_equal(ours[key], ref[key]), key
    # a wrong shape in the last member loads nothing: the headers are read first
    arrays = dict(snapshot_state(resident.state_arrays()), **{"layer1.b": np.zeros(7)})
    save_checkpoint(path, arrays, {})
    with pytest.raises(ShapeError, match="'layer1.b' has shape \\(7,\\)"):
        load_checkpoint(path, into=filed)
    assert np.array_equal(filed.layers[0].W.read(), resident.layers[0].W.value)
