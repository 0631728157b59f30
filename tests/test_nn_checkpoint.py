"""Checkpoint round-trips: values bit-exact, metadata intact, versioned."""

import json

import numpy as np
import pytest

from popgate.exceptions import MissingInputError
from popgate.nn.checkpoint import load_checkpoint, save_checkpoint


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
