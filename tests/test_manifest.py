import json

import pytest

from popgate.codec import canonical_json
from popgate.exceptions import MissingInputError
from popgate.manifest import config_hash, file_sha256, hash_files, write_manifest


class TestHashing:
    def test_canonical_json_is_order_insensitive(self):
        assert canonical_json({"b": 1, "a": [1, 2]}) == canonical_json({"a": [1, 2], "b": 1})
        assert canonical_json({"a": 1}) == '{"a":1}'

    def test_config_hash_changes_with_content(self):
        h1 = config_hash({"x": 1})
        h2 = config_hash({"x": 2})
        assert h1 != h2 and len(h1) == 64

    def test_file_sha256_matches_known_vector(self, tmp_path):
        p = tmp_path / "f"
        p.write_bytes(b"abc")
        # sha256("abc") is a fixed test vector
        assert file_sha256(p) == (
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        )

    def test_file_sha256_missing_file(self, tmp_path):
        with pytest.raises(MissingInputError):
            file_sha256(tmp_path / "nope")

    def test_file_sha256_of_a_directory_names_it_as_not_a_file(self, tmp_path):
        with pytest.raises(MissingInputError, match=f"^cannot hash {tmp_path}: not a file$"):
            file_sha256(tmp_path)


class TestWriteManifest:
    def test_shape_and_relative_paths(self, tmp_path):
        inp = tmp_path / "data" / "in.csv"
        inp.parent.mkdir()
        inp.write_text("track_id\n")
        out = tmp_path / "out.csv"
        out.write_text("x\n")
        path = write_manifest(tmp_path, "clean", {"k": 1}, 7, hash_files(tmp_path, {"src": inp}),
                              {"dst": out})
        assert path == tmp_path / "manifests" / "clean.manifest.json"
        body = json.loads(path.read_text())
        assert set(body) == {"subcommand", "seed", "config_sha256", "inputs", "outputs"}
        assert body["subcommand"] == "clean"
        assert body["seed"] == 7
        assert body["config_sha256"] == config_hash({"k": 1})
        assert body["inputs"]["src"]["path"] == "data/in.csv"  # workspace-relative
        assert body["inputs"]["src"]["sha256"] == file_sha256(inp)
        assert body["outputs"]["dst"]["path"] == "out.csv"

    def test_rewrite_is_byte_identical(self, tmp_path):
        f = tmp_path / "f.csv"
        f.write_text("data\n")
        write_manifest(tmp_path, "split", {"a": [1, 2]}, 42, hash_files(tmp_path, {"f": f}), {})
        first = (tmp_path / "manifests" / "split.manifest.json").read_bytes()
        write_manifest(tmp_path, "split", {"a": [1, 2]}, 42, hash_files(tmp_path, {"f": f}), {})
        assert (tmp_path / "manifests" / "split.manifest.json").read_bytes() == first

    def test_manifest_has_no_timestamps(self, tmp_path):
        f = tmp_path / "f"
        f.write_text("x")
        path = write_manifest(tmp_path, "synth", {}, 46, {}, {"f": f})
        text = path.read_text().lower()
        for word in ("time", "date", "elapsed", "duration"):
            assert word not in text

    def test_inputs_keep_the_hash_taken_before_the_step(self, tmp_path):
        """A step that writes over its own input records the bytes it read."""
        f = tmp_path / "model.json"
        f.write_text("phase 1\n")
        inputs = hash_files(tmp_path, {"model": f})
        before = file_sha256(f)
        f.write_text("phase 2\n")
        path = write_manifest(tmp_path, "train", {}, 1, inputs, {"model": f})
        body = json.loads(path.read_text())
        assert body["inputs"]["model"]["sha256"] == before
        assert body["outputs"]["model"]["sha256"] == file_sha256(f) != before

    def test_missing_file_names_path(self, tmp_path):
        with pytest.raises(MissingInputError, match="nope.csv"):
            hash_files(tmp_path, {"f": tmp_path / "nope.csv"})
