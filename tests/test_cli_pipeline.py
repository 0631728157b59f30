"""End-to-end tests for the CLI subcommands against a small synthetic run."""

import ast
import importlib.util
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
import zipfile
from pathlib import Path

import numpy as np
import pytest

import popgate.pipeline
from popgate.autoenc.train import registry_hash
from popgate.cli import build_parser, main
from popgate.codec import from_json
from popgate.config import FeatureGroup
from popgate.exceptions import MissingInputError
from popgate.metrics import compute_metrics
from popgate.nn.checkpoint import load_checkpoint
from popgate.tabular import read_columns, read_matrix_csv, write_csv

from _chain import CHAIN, chain_config, run_chain, write_config


@pytest.fixture(scope="module")
def chain_ws(tmp_path_factory):
    ws = tmp_path_factory.mktemp("chain")
    cfg_path = run_chain(ws)
    return ws, cfg_path


def _ids(ws, rel):
    return read_columns(ws / rel, ["track_id"])["track_id"]


class TestChainArtifacts:
    def test_synth_outputs_align(self, chain_ws):
        ws, _ = chain_ws
        meta_ids = _ids(ws, "data/metadata.csv")
        assert len(meta_ids) == 240
        for rel in ("data/audio.csv", "data/lyrics_features.csv", "data/social.csv"):
            ids, _, X = read_matrix_csv(ws / rel)
            assert ids == meta_ids
        assert read_matrix_csv(ws / "data/audio.csv")[2].shape == (240, 12)

    def test_clean_filters_and_normalizes(self, chain_ws):
        ws, _ = chain_ws
        cols = read_columns(
            ws / "data/metadata_clean.csv", ["track_id", "year", "language"]
        )
        assert 0 < len(cols["track_id"]) < 240
        assert all(int(y) >= 1960 for y in cols["year"])
        assert "xx" not in set(cols["language"])
        lyr = read_columns(ws / "data/lyrics_clean.csv", ["track_id", "lyrics"])
        assert lyr["track_id"] == cols["track_id"]
        assert not any("[x" in t or "[Instrumental" in t for t in lyr["lyrics"])

    def test_split_is_stratified_and_complete(self, chain_ws):
        ws, _ = chain_ws
        cols = read_columns(ws / "data/split.csv", ["track_id", "bin", "split"])
        assert cols["track_id"] == _ids(ws, "data/metadata_clean.csv")
        assert set(cols["split"]) == {"train", "test"}
        bins = np.array([int(b) for b in cols["bin"]])
        test = np.array([s == "test" for s in cols["split"]])
        for b in np.unique(bins):
            n = int((bins == b).sum())
            k = int(test[bins == b].sum())
            assert abs(k - 0.2 * n) <= 1.0  # within one row of 20%

    def test_ctd_rows_follow_clean_metadata(self, chain_ws):
        ws, _ = chain_ws
        ids, names, X = read_matrix_csv(ws / "data/ctd.csv")
        assert ids == _ids(ws, "data/metadata_clean.csv")
        assert len(names) == 31  # temporal mode
        assert np.isfinite(X).all()

    def test_compress_halves_and_aligns(self, chain_ws):
        ws, _ = chain_ws
        ids, names, Z = read_matrix_csv(ws / "data/audio_z.csv")
        assert ids == _ids(ws, "data/metadata.csv")  # compresses the full catalog
        assert Z.shape[1] == 4
        assert names == [f"aud_z{j}" for j in range(4)]

    def test_training_histories_recorded(self, chain_ws):
        ws, _ = chain_ws
        h1 = json.loads((ws / "models/fused/phase1_history.json").read_text())
        assert set(h1) == {"audio", "lyrics", "social"}
        for hist in h1.values():
            assert hist["epochs_run"] >= 1
            assert hist["best_val_mse"] <= hist["val_mse"][0] + 1e-12
        h2 = json.loads((ws / "models/fused/phase2_history.json").read_text())
        assert h2["best_val_mse"] <= h2["initial_val_mse"] + 1e-12

    def test_ae_model_dir_holds_the_ensemble_history_and_group_checkpoints(self, chain_ws):
        ws, _ = chain_ws
        groups = [g["name"] for g in chain_config()["ae"]["registry"]]
        assert sorted(p.name for p in (ws / "models/ae").iterdir()) == sorted(
            ["ensemble.json", "history.json", *(f"{name}.npz" for name in groups)])

    def test_predictions_are_convex_and_in_band(self, chain_ws):
        ws, _ = chain_ws
        cols = read_columns(
            ws / "out/predictions.csv",
            ["pred_popularity", "alpha_audio", "alpha_lyrics", "alpha_social",
             "pred_audio", "pred_lyrics", "pred_social"],
        )
        pred = np.array([float(v) for v in cols["pred_popularity"]])
        alpha = np.column_stack(
            [[float(v) for v in cols[f"alpha_{m}"]] for m in ("audio", "lyrics", "social")]
        )
        branch = np.column_stack(
            [[float(v) for v in cols[f"pred_{m}"]] for m in ("audio", "lyrics", "social")]
        )
        assert np.allclose(alpha.sum(axis=1), 1.0, atol=1e-9)
        assert (alpha > 0).all()
        assert (pred >= branch.min(axis=1) - 1e-9).all()
        assert (pred <= branch.max(axis=1) + 1e-9).all()
        assert pred.min() >= 0.0 and pred.max() <= 100.0

    def test_evaluate_agrees_with_recomputation(self, chain_ws):
        ws, _ = chain_ws
        body = json.loads((ws / "out/metrics.json").read_text())
        pcols = read_columns(ws / "out/predictions.csv", ["track_id", "pred_popularity"])
        mcols = read_columns(ws / "data/metadata_clean.csv", ["track_id", "popularity"])
        pop = dict(zip(mcols["track_id"], (float(p) for p in mcols["popularity"])))
        scols = read_columns(ws / "data/split.csv", ["track_id", "split"])
        split = dict(zip(scols["track_id"], scols["split"]))
        test = [
            (pop[t], float(p))
            for t, p in zip(pcols["track_id"], pcols["pred_popularity"])
            if split[t] == "test"
        ]
        y = np.array([a for a, _ in test])
        yh = np.array([b for _, b in test])
        rep = compute_metrics(y, yh)
        assert body["n"] == len(test)
        assert body["metrics"]["r2"] == pytest.approx(rep.r2, abs=1e-12)
        assert body["metrics"]["mae"] == pytest.approx(rep.mae, abs=1e-12)
        assert body["metrics"]["relmse"] == pytest.approx(1.0 - rep.r2, abs=1e-12)
        # the 0-1 scale divides squared errors by 100^2 and MAE by 100
        assert body["metrics_scaled"]["mse"] == pytest.approx(rep.mse / 1e4, rel=1e-12)
        assert body["metrics_scaled"]["mae"] == pytest.approx(rep.mae / 100, rel=1e-12)
        assert body["residuals"]["mean"] == pytest.approx(float((yh - y).mean()), abs=1e-12)
        assert set(body["distribution"]) == {"actual", "predicted"}

    def test_evaluate_gate_means_by_decade(self, chain_ws):
        ws, _ = chain_ws
        body = json.loads((ws / "out/metrics.json").read_text())
        by_decade = body["gate_means_by_decade"]
        assert by_decade, "expected at least one decade bucket"
        for dec, means in by_decade.items():
            assert dec.endswith("s") and dec[:-1].isdigit()
            assert sum(means.values()) == pytest.approx(1.0, abs=1e-9)

    def test_gate_report_output(self, chain_ws):
        ws, _ = chain_ws
        body = json.loads((ws / "out/gate_report.json").read_text())
        assert body["n"] == len(_ids(ws, "data/metadata_clean.csv"))
        assert sum(body["means"].values()) == pytest.approx(1.0, abs=1e-9)
        assert body["groups"]
        # planted social signal dominates (coeff 0.9 vs 0.7)
        assert body["means"]["social"] == max(body["means"].values())

    def test_manifests_written_for_every_subcommand(self, chain_ws):
        ws, _ = chain_ws
        for cmd in CHAIN:
            path = ws / "manifests" / f"{cmd}.manifest.json"
            assert path.exists(), cmd
            body = json.loads(path.read_text())
            assert body["subcommand"] == cmd
            assert len(body["config_sha256"]) == 64
            for entry in {**body["inputs"], **body["outputs"]}.values():
                assert (ws / entry["path"]).exists()
        # gate-report summarizes exactly the predictions file predict wrote
        predict = json.loads((ws / "manifests/predict.manifest.json").read_text())
        report = json.loads((ws / "manifests/gate-report.manifest.json").read_text())
        assert (report["inputs"]["predictions"]["sha256"]
                == predict["outputs"]["predictions"]["sha256"])
        # phase 2 records the model file phase 1 wrote, hashed before phase 2
        # wrote over it
        phase1 = json.loads((ws / "manifests/train-phase1.manifest.json").read_text())
        phase2 = json.loads((ws / "manifests/train-phase2.manifest.json").read_text())
        assert (phase2["inputs"]["model"]["sha256"]
                == phase1["outputs"]["model"]["sha256"]
                != phase2["outputs"]["model"]["sha256"])
        # predict records each feature file it reads, as both phases do
        compress = json.loads((ws / "manifests/compress.manifest.json").read_text())
        assert {"audio_0", "lyrics_0", "social_0", "social_1"} <= set(predict["inputs"])
        assert (predict["inputs"]["audio_0"]["sha256"]
                == compress["outputs"]["compressed"]["sha256"])
        for name in ("audio_0", "lyrics_0", "social_0", "social_1"):
            assert predict["inputs"][name] == phase2["inputs"][name]
        # the checkpoints a step reads are inputs too: phase 2 and predict
        # record those the step before them wrote, and compress the group
        # checkpoints that ae-train wrote
        for name in ("gate", "branch_audio", "branch_lyrics", "branch_social"):
            assert phase2["inputs"][name] == phase1["outputs"][name]
            assert predict["inputs"][name] == phase2["outputs"][name]
        ae = json.loads((ws / "manifests/ae-train.manifest.json").read_text())
        assert ({k for k in compress["inputs"] if k.startswith("group_")}
                == {k for k in ae["outputs"] if k.startswith("group_")} == {"group_aud"})
        assert compress["inputs"]["group_aud"] == ae["outputs"]["group_aud"]
        # the split step keeps its own default seed, everything else runs on 46
        assert json.loads((ws / "manifests/split.manifest.json").read_text())["seed"] == 42
        assert json.loads((ws / "manifests/synth.manifest.json").read_text())["seed"] == 46


class TestEvaluateOracle:
    def test_perfect_predictions_score_r2_one(self, chain_ws, tmp_path):
        ws, _ = chain_ws
        mcols = read_columns(ws / "data/metadata_clean.csv", ["track_id", "popularity"])
        rows = [
            (t, float(p), 1 / 3, 1 / 3, 1 / 3, float(p), float(p), float(p))
            for t, p in zip(mcols["track_id"], mcols["popularity"])
        ]
        write_csv(
            tmp_path / "perfect.csv",
            ["track_id", "pred_popularity", "alpha_audio", "alpha_lyrics",
             "alpha_social", "pred_audio", "pred_lyrics", "pred_social"],
            rows,
        )
        cfg = chain_config()
        cfg["evaluate"] = {
            "predictions": str(tmp_path / "perfect.csv"),
            "metadata": "data/metadata_clean.csv",
            "split": "data/split.csv",
            "out": str(tmp_path / "metrics.json"),
            "subset": "all",
        }
        cfg_path = write_config(tmp_path, cfg, "eval.json")
        assert main(["evaluate", "--config", str(cfg_path), "--workspace", str(ws)]) == 0
        body = json.loads((tmp_path / "metrics.json").read_text())
        assert body["metrics"]["r2"] == pytest.approx(1.0, abs=1e-12)
        assert body["metrics"]["mae"] == pytest.approx(0.0, abs=1e-12)
        assert body["residuals"]["stdev"] == pytest.approx(0.0, abs=1e-12)
        assert body["residuals"]["skew"] == 0.0

    def test_constant_shift_moves_residual_mean(self, chain_ws, tmp_path):
        ws, _ = chain_ws
        mcols = read_columns(ws / "data/metadata_clean.csv", ["track_id", "popularity"])
        rows = [
            (t, float(p) + 5.0, 1 / 3, 1 / 3, 1 / 3, float(p) + 5.0, float(p) + 5.0,
             float(p) + 5.0)
            for t, p in zip(mcols["track_id"], mcols["popularity"])
        ]
        write_csv(
            tmp_path / "shift.csv",
            ["track_id", "pred_popularity", "alpha_audio", "alpha_lyrics",
             "alpha_social", "pred_audio", "pred_lyrics", "pred_social"],
            rows,
        )
        cfg = chain_config()
        cfg["evaluate"] = {
            "predictions": str(tmp_path / "shift.csv"),
            "metadata": "data/metadata_clean.csv",
            "split": "data/split.csv",
            "out": str(tmp_path / "metrics.json"),
            "subset": "all",
        }
        cfg_path = write_config(tmp_path, cfg, "eval.json")
        assert main(["evaluate", "--config", str(cfg_path), "--workspace", str(ws)]) == 0
        body = json.loads((tmp_path / "metrics.json").read_text())
        # residuals live on the raw 0-100 scale: a +5 shift shows up as +5
        assert body["residuals"]["mean"] == pytest.approx(5.0, abs=1e-12)
        assert body["metrics"]["mae"] == pytest.approx(5.0, abs=1e-12)


class TestCliContract:
    def test_no_config_exits_3(self, capsys, monkeypatch):
        monkeypatch.delenv("POPGATE_CONFIG", raising=False)
        assert main(["synth"]) == 3
        assert "error:" in capsys.readouterr().err

    def test_missing_config_file_exits_2(self, tmp_path):
        assert main(["synth", "--config", str(tmp_path / "no.json")]) == 2

    def test_malformed_json_exits_3(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        assert main(["synth", "--config", str(p)]) == 3

    def test_non_object_config_exits_3(self, tmp_path):
        p = tmp_path / "list.json"
        p.write_text("[1, 2]")
        assert main(["synth", "--config", str(p)]) == 3

    def test_missing_section_exits_3(self, tmp_path):
        p = write_config(tmp_path, {"seed": 1}, "nosec.json")
        assert main(["synth", "--config", str(p)]) == 3

    def test_ctd_extract_fills_every_catalog_row_including_duplicates(self, tmp_path, capsys):
        (tmp_path / "events.csv").write_text(
            "user_id,track_id,timestamp\nu1,t2,1514764800\nu2,t2,1514764800\nu1,t9,1514764800\n"
        )
        (tmp_path / "meta.csv").write_text("track_id,artist_id\nt2,a\nt1,a\nt2,a\n")
        cfg = {"ctd": {"events": "events.csv", "metadata": "meta.csv", "out": "ctd.csv",
                       "mode": "aggregate"}}
        assert main(["ctd-extract", "--config", str(write_config(tmp_path, cfg))]) == 0
        assert capsys.readouterr().out == (
            "ctd-extract: 1 tracks with events, 1 zero-filled, 0 malformed and 0 out-of-window "
            "rows dropped\n")  # t9 has no metadata row; only t1's row stays at zero
        ids, _, X = read_matrix_csv(tmp_path / "ctd.csv")
        assert ids == ["t2", "t1", "t2"]  # catalog order, duplicates kept
        assert X[0, 0] == 2.0 and not X[1].any() and np.array_equal(X[2], X[0])

    def test_ragged_metadata_row_exits_1_and_names_it(self, tmp_path, capsys):
        meta = tmp_path / "meta.csv"
        meta.write_text("track_id,artist_id,year,language,popularity\ns1,a1,2001,en,50\ns2,a2\n")
        p = write_config(tmp_path, {"split": {"metadata": "meta.csv"}})
        assert main(["split", "--config", str(p)]) == 1
        assert f"{meta} row 3: expected 5 cells, got 2" in capsys.readouterr().err
        assert not (tmp_path / "data").exists()

    def test_moments_file_failure_exits_1_names_it_and_leaves_no_fd_open(self, tmp_path, capsys,
                                                                          monkeypatch):
        # one AE group of 600 columns, so one lane, and wide weights of
        # 600 x 300 and 300 x 600, kept in the optimizer's scratch file in
        # chunks of 65536 elements, each chunk's m, v and values side by
        # side: the first transfer to fail writes the first drawn weight's
        # first chunk of values, 16 * 65536 bytes into the file
        cfg = chain_config()
        cfg["synth"].update(n_samples=120, dims=[600, 10, 6])
        cfg["ae"]["registry"] = [{"name": "wide", "start": 0, "d": 600, "d_enc": 20}]
        cfg["ae"]["train"]["max_epochs"] = 2
        cfg_path = run_chain(tmp_path, cfg, ("synth", "clean", "split"))
        capsys.readouterr()
        real = os.pwritev
        monkeypatch.setattr(os, "pwritev", lambda fd, bufs, offset: real(fd, bufs, offset) - 8)
        fds = sorted(os.listdir("/proc/self/fd"))
        assert main(["ae-train", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert err == (
            "error: optimizer scratch file (wide weights' values and Adam's moments, unlinked, in"
            f" {tempfile.gettempdir()}; TMPDIR sets the directory): pwritev moved"
            f" {8 * 65536 - 8} of {8 * 65536} bytes at byte {16 * 65536}\n")
        assert sorted(os.listdir("/proc/self/fd")) == fds
        assert not (tmp_path / "models/ae/ensemble.json").exists()

    def test_a_failed_phase2_save_leaves_no_model_json_and_no_partial_file(
            self, tmp_path, capsys, monkeypatch):
        # the audio expert's trunk has two wide 256 x 256 weights, fine-tuned
        # in phase 2, so their values live in the optimizer's scratch file
        # and the save reads at least one of them back with `os.preadv`
        cfg = chain_config()
        cfg["train"]["branches"]["audio"] = {"hidden": [256, 256, 256, 4],
                                             "dropout": [0.1, 0.1, 0.1, 0.05]}
        cfg_path = run_chain(tmp_path, cfg, CHAIN[: CHAIN.index("train-phase2")])
        capsys.readouterr()
        model_dir = tmp_path / "models/fused"
        phase1 = {p.name: p.read_bytes() for p in model_dir.iterdir()}
        assert "model.json" in phase1
        real, short = os.preadv, []

        def short_read(fd, bufs, offset):
            short.append(offset)
            return real(fd, bufs, offset) - 8

        train = popgate.pipeline.phase2_train

        def trained_then_failing(*args, **kwargs):
            history = train(*args, **kwargs)
            monkeypatch.setattr(os, "preadv", short_read)
            return history

        monkeypatch.setattr(popgate.pipeline, "phase2_train", trained_then_failing)
        assert main(["train-phase2", "--config", str(cfg_path)]) == 1
        assert len(short) == 1
        assert "preadv moved" in capsys.readouterr().err
        monkeypatch.undo()
        # no model.json names a mix of phase-1 and phase-2 files, and each
        # checkpoint left is a whole one: phase 1's or a phase-2 one
        left = sorted(p.name for p in model_dir.iterdir())
        assert left == sorted(set(phase1) - {"model.json"})
        for name in left:
            if name.endswith(".npz"):
                load_checkpoint(model_dir / name)
        assert (model_dir / "branch_audio.npz").read_bytes() == phase1["branch_audio.npz"]
        assert not list(tmp_path.rglob("*.tmp"))

    def test_missing_input_file_exits_2(self, tmp_path):
        cfg = {"clean": {"metadata": "nope.csv", "lyrics": "also-nope.csv"}}
        p = write_config(tmp_path, cfg)
        assert main(["clean", "--config", str(p)]) == 2

    def test_unknown_training_knob_exits_3(self, chain_ws, tmp_path, capsys):
        ws, _ = chain_ws
        cfg = chain_config()
        cfg["ae"]["train"]["momentum"] = 0.9  # not a knob the trainer has
        p = write_config(tmp_path, cfg, "bad-knob.json")
        assert main(["ae-train", "--config", str(p), "--workspace", str(ws)]) == 3
        assert "momentum" in capsys.readouterr().err

    def test_registry_wider_than_features_exits_4(self, chain_ws, tmp_path):
        ws, _ = chain_ws
        cfg = chain_config()
        cfg["ae"]["registry"] = [{"name": "aud", "start": 0, "d": 99, "d_enc": 4}]
        p = write_config(tmp_path, cfg, "wide.json")
        assert main(["ae-train", "--config", str(p), "--workspace", str(ws)]) == 4

    def test_unknown_subcommand_rejected_by_argparse(self, capsys):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_env_config_and_flag_seed_precedence(self, chain_ws, tmp_path, monkeypatch):
        ws, _ = chain_ws
        out_ws = tmp_path / "ws"
        out_ws.mkdir()
        cfg = {"seed": 11, "synth": {"n_samples": 12, "dims": [4, 3, 2],
                                      "latent_dim": 2, "n_artists": 3, "n_users": 5}}
        p = write_config(out_ws, cfg, "env.json")
        monkeypatch.setenv("POPGATE_CONFIG", str(p))
        monkeypatch.setenv("POPGATE_SEED", "22")
        # env seed beats the config key
        assert main(["synth"]) == 0
        body = json.loads((out_ws / "manifests/synth.manifest.json").read_text())
        assert body["seed"] == 22
        # an explicit flag beats the env
        assert main(["synth", "--seed", "33"]) == 0
        body = json.loads((out_ws / "manifests/synth.manifest.json").read_text())
        assert body["seed"] == 33

    def test_workspace_defaults_to_config_directory(self, tmp_path):
        cfg = {"synth": {"n_samples": 10, "dims": [4, 3, 2], "latent_dim": 2,
                          "n_artists": 3, "n_users": 5}}
        p = write_config(tmp_path, cfg, "here.json")
        assert main(["synth", "--config", str(p)]) == 0
        assert (tmp_path / "data/metadata.csv").exists()

    def test_gate_report_bad_grouping_exits_3(self, chain_ws, tmp_path):
        ws, _ = chain_ws
        cfg = chain_config()
        cfg["gate_report"]["group_by"] = "artist"
        p = write_config(tmp_path, cfg, "gr.json")
        assert main(["gate-report", "--config", str(p), "--workspace", str(ws)]) == 3

    def test_split_without_a_track_exits_2_and_names_it(self, chain_ws, tmp_path, capsys):
        ws, _ = chain_ws
        header, first, *rest = (ws / "data/split.csv").read_text().splitlines()
        (tmp_path / "split.csv").write_text("\n".join([header, *rest]) + "\n")
        cfg = chain_config()
        cfg["train"]["split"] = str(tmp_path / "split.csv")
        cfg["train"]["model_dir"] = str(tmp_path / "fused")
        p = write_config(tmp_path, cfg, "p1.json")
        assert main(["train-phase1", "--config", str(p), "--workspace", str(ws)]) == 2
        err = capsys.readouterr().err
        assert str(tmp_path / "split.csv") in err and repr(first.split(",")[0]) in err
        assert not (tmp_path / "fused").exists()

    def test_predict_before_phase2_fails(self, tmp_path):
        # phase-1-only model: predict should refuse
        cfg = chain_config()
        write_config(tmp_path, cfg)
        run_chain(tmp_path, cfg, commands=CHAIN[:7])  # stop after train-phase1
        assert main(["predict", "--config", str(tmp_path / "run.json")]) == 1

    def test_threads_flag_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["synth", "--config", "run.json", "--threads", "2"])

    def test_unknown_phase1_key_exits_3_and_names_section(self, chain_ws, tmp_path, capsys):
        ws, _ = chain_ws
        cfg = chain_config()
        cfg["train"]["phase1"]["momentum"] = 0.9
        p = write_config(tmp_path, cfg, "bad-p1.json")
        assert main(["train-phase1", "--config", str(p), "--workspace", str(ws)]) == 3
        err = capsys.readouterr().err
        assert "train.phase1" in err and "momentum" in err

    def test_section_seed_exits_3(self, chain_ws, tmp_path, capsys):
        """The run seed is the only seed: the trainers take it, so no loop
        section has a `seed` key, and one is rejected before any file is read."""
        ws, _ = chain_ws
        for step, key in (("train-phase1", "train.phase1.seed"), ("ae-train", "ae.train.seed"),
                          ("train-phase2", "train.phase2.seed")):
            copy = _copy_ws(ws, tmp_path / step).parent
            cfg = chain_config()
            _set(cfg, key, 5)
            p = write_config(tmp_path, cfg, f"{step}.json")
            assert main([step, "--config", str(p), "--workspace", str(copy)]) == 3, key
            assert key in capsys.readouterr().err
            assert _files(copy) == _files(ws)

    def test_phase2_zero_lr_exits_3(self, chain_ws, tmp_path, capsys):
        ws, _ = chain_ws
        cfg = chain_config()
        cfg["train"]["phase2"]["lr"] = 0
        p = write_config(tmp_path, cfg, "lr0.json")
        assert main(["train-phase2", "--config", str(p), "--workspace", str(ws)]) == 3
        err = capsys.readouterr().err
        assert "train.phase2" in err and "lr" in err

    def test_ae_zero_batch_size_exits_3(self, chain_ws, tmp_path, capsys):
        ws, _ = chain_ws
        cfg = chain_config()
        cfg["ae"]["train"]["batch_size"] = 0
        p = write_config(tmp_path, cfg, "bs0.json")
        assert main(["ae-train", "--config", str(p), "--workspace", str(ws)]) == 3
        err = capsys.readouterr().err
        assert "ae.train" in err and "batch_size" in err

    def test_unknown_activation_exits_3(self, chain_ws, tmp_path, capsys):
        ws, _ = chain_ws
        cfg = chain_config()
        cfg["train"]["branches"]["audio"]["activation"] = "elu"  # needs {"kind": ...}
        p = write_config(tmp_path, cfg, "act.json")
        assert main(["train-phase1", "--config", str(p), "--workspace", str(ws)]) == 3
        assert "train.branches.audio.activation" in capsys.readouterr().err

    def test_non_string_workspace_exits_3_and_names_it(self, tmp_path, capsys):
        p = write_config(tmp_path, {"workspace": 5, "synth": {}}, "ws.json")
        assert main(["synth", "--config", str(p)]) == 3
        assert "workspace" in capsys.readouterr().err

    def test_bad_ctd_mode_exits_3_before_reading_events(self, tmp_path, capsys):
        cfg = {"ctd": {"events": "no-events.csv", "metadata": "no-meta.csv", "mode": "tmporal"}}
        assert main(["ctd-extract", "--config", str(write_config(tmp_path, cfg))]) == 3
        assert "ctd.mode" in capsys.readouterr().err

    def test_checkpoint_shape_mismatch_exits_4_and_names_file_and_key(self, chain_ws, tmp_path,
                                                                     capsys):
        # a checkpoint trained with d_enc 1 under a manifest that says 4 once
        # loaded by broadcasting: four identical columns and exit 0
        ws, _ = chain_ws
        copy = _copy_ws(ws, tmp_path / "ws").parent
        cfg = chain_config()
        cfg["ae"]["registry"][0]["d_enc"] = 1
        p = write_config(tmp_path, cfg, "narrow.json")
        assert main(["ae-train", "--config", str(p), "--workspace", str(copy)]) == 0
        path = copy / "models/ae/ensemble.json"
        manifest = json.loads(path.read_text())
        manifest["registry"][0]["d_enc"] = 4
        registry = from_json(tuple[FeatureGroup, ...], manifest["registry"])
        manifest["registry_hash"] = registry_hash(registry)
        path.write_text(json.dumps(manifest))
        before = (copy / "data/audio_z.csv").read_bytes()
        capsys.readouterr()
        assert main(["compress", "--config", str(p), "--workspace", str(copy)]) == 4
        err = capsys.readouterr().err
        assert "aud.npz" in err and "'enc.layer1.W'" in err
        assert (copy / "data/audio_z.csv").read_bytes() == before

    def test_checkpoint_missing_encoder_array_exits_2_and_names_file_and_key(
        self, chain_ws, tmp_path, capsys
    ):
        ws, _ = chain_ws
        cfg_path = _copy_ws(ws, tmp_path / "ws")
        ckpt = cfg_path.parent / "models/ae/aud.npz"
        with np.load(ckpt) as data:
            kept = {k: data[k] for k in data.files if k != "enc.layer0.W"}
        np.savez(ckpt, **kept)
        before = (cfg_path.parent / "data/audio_z.csv").read_bytes()
        capsys.readouterr()
        assert main(["compress", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert str(ckpt) in err and "'enc.layer0.W'" in err
        assert (cfg_path.parent / "data/audio_z.csv").read_bytes() == before

    def test_failed_ae_train_leaves_no_ensemble_for_compress(self, chain_ws, tmp_path,
                                                              monkeypatch, capsys):
        # the copy holds a finished run's ensemble.json; a run whose second
        # group fails must not leave it naming a mix of old and new checkpoints
        ws, _ = chain_ws
        copy = _copy_ws(ws, tmp_path / "ws").parent
        cfg = chain_config()
        cfg["ae"]["registry"] = [{"name": "lo", "start": 0, "d": 6, "d_enc": 2},
                                 {"name": "hi", "start": 6, "d": 6, "d_enc": 2}]
        cfg["ae"]["train"]["max_epochs"] = 2
        p = write_config(tmp_path, cfg, "two.json")
        train = popgate.pipeline.train_group_autoencoder

        def second_group_fails(group, *args):
            if group.name == "hi":
                raise ValueError("group hi failed")
            return train(group, *args)

        monkeypatch.setattr(popgate.pipeline, "train_group_autoencoder", second_group_fails)
        assert (copy / "models/ae/ensemble.json").exists()
        assert main(["ae-train", "--config", str(p), "--workspace", str(copy)]) == 1
        assert (copy / "models/ae/lo.npz").exists()
        assert not (copy / "models/ae/ensemble.json").exists()
        capsys.readouterr()
        rc = main(["compress", "--config", str(p), "--workspace", str(copy)])
        assert rc == MissingInputError.exit_code
        assert "models/ae/ensemble.json" in capsys.readouterr().err

    def test_type_error_inside_step_is_not_a_config_error(self, chain_ws, monkeypatch):
        ws, cfg_path = chain_ws

        def broken(*args, **kwargs):
            raise TypeError("a bug, not a bad config")

        monkeypatch.setattr(popgate.pipeline, "gate_report", broken)
        with pytest.raises(TypeError, match="a bug"):
            main(["gate-report", "--config", str(cfg_path)])


def _set(config: dict, dotted: str, value) -> None:
    *parents, leaf = dotted.split(".")
    node = config
    for p in parents:
        node = node[p]
    node[leaf] = value


def _files(root: Path) -> dict:
    return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}


# (step, dotted key, value): each of these once ran to exit 0 with a result
# other than the config asked for
SILENT_WRONG_RESULTS = [
    ("ctd-extract", "ctd.window", "2016"),  # read as the years (2, 0, 1, 6)
    ("split", "split.bins", 0),  # no test rows
    ("train-phase1", "train.val_fracton", 0.5),  # typo: trained the default
    ("train-phase1", "train.branches.audio.hiden", [99]),  # typo: default stack
    ("split", "split_sed", 7),  # typo'd top-level key
    ("synth", "seed", 2.7),  # ran as seed 2
    ("synth", "seed", "2"),  # ran as seed 2
    ("synth", "seed", True),  # ran as seed 1
]

# (step, dotted key, value): each of these once ended in a traceback, in
# exit 1, or in an error that named some other key
MALFORMED_KEYS = [
    ("ae-train", "ae.registry", [{"name": "aud", "start": 0, "d": 12}]),  # no d_enc
    ("train-phase1", "train.branches", [{"hidden": [8]}]),
    ("train-phase1", "train.branches.audio", [8, 4]),
    ("synth", "synth.dims", [4, 4]),
    ("clean", "clean.metadata", 5),
    ("synth", "synth.n_samples", "abc"),
    ("clean", "clean.lyric_bounds", [1, 2, 3]),
    ("train-phase1", "train.val_fraction", 0),  # was blamed on test_fraction
    ("evaluate", "evaluate.subset", "tset"),  # was "fewer than 2 rows"
    ("ctd-extract", "ctd.mode", "tmporal"),  # was checked only after the full ingest
    ("ae-train", "ae.registry", [{"name": "a", "start": 0, "d": 6, "d_enc": 2},
                                 {"name": "b", "start": 3, "d": 6, "d_enc": 2}]),  # overlap
    ("ae-train", "ae.registry", [{"name": "a", "start": 0, "d": 6, "d_enc": 2},
                                 {"name": "a", "start": 6, "d": 6, "d_enc": 2}]),  # same name
    ("ae-train", "ae.registry", [{"name": "a", "start": 0, "d": 6, "d_enc": 6}]),  # d_enc = d
    # trained ELU(0.1), ignoring a key that kind does not take; the message
    # names train.branches.audio.activation.slope
    ("train-phase1", "train.branches.audio.activation", {"kind": "elu", "slope": 0.2}),
    ("split", "split_seed", 7),  # a second key for the split seed; `split.seed` is the one
    # a NaN or infinite loss weight passed the old `< 0` check
    ("train-phase2", "train.loss_weights", {"lambda_final": math.nan}),
    ("train-phase2", "train.loss_weights", {"lambda_individual": math.inf}),
    # building the model rejected these only after the step read its inputs
    ("train-phase1", "train.gate", {"dropout_p": 1.5}),
    ("train-phase1", "train.gate", {"slope": 1.0}),
    ("train-phase1", "train.gate", {"eps": 0}),
    ("train-phase1", "train.gate", {"hidden": [8, 0]}),
    ("train-phase1", "train.branches.audio", {"hidden": [8, 0]}),
    ("train-phase1", "train.branches.audio", {"hidden": [8, 4], "dropout": [0.1, 1.0]}),
    # "activation input contains ... non-finite entries", naming a layer
    ("train-phase1", "train.branches.audio.activation", {"kind": "elu", "alpha": math.nan}),
    # numpy's "high <= 0", a NaN audio.csv and a negative noise stdev
    ("synth", "synth", {**chain_config()["synth"], "n_artists": 0}),
    ("synth", "synth", {**chain_config()["synth"], "n_users": 0}),
    ("synth", "synth", {**chain_config()["synth"], "feature_noise": math.nan}),
    ("synth", "synth", {**chain_config()["synth"], "noise": -0.1}),
    ("synth", "synth", {**chain_config()["synth"], "coeffs": [0.7, math.inf, 0.9]}),
    ("ctd-extract", "ctd.window", [2018, 2018]),  # wrote each y2018_* column twice
]

# (step, section, field, value): each of these once exited 1 after the step
# had read its inputs, with a message that named neither section nor field
BAD_LOOP_SETTINGS = [
    ("ae-train", "ae.train", "patience", 0),  # "patience values must be >= 1"
    ("ae-train", "ae.train", "clip_norm", 0),  # "max_norm must be > 0", at the first step
    ("ae-train", "ae.train", "val_fraction", -0.5),  # "rel_mse undefined for zero-variance input"
    ("train-phase1", "train.phase1", "plateau_patience", 0),
    ("train-phase2", "train.phase2", "clip_norm", -1),
    # non-finite values: "activation input contains ... non-finite entries"
    ("ae-train", "ae.train", "lr", math.inf),
    ("train-phase1", "train.phase1", "clip_norm", math.inf),
    ("train-phase2", "train.phase2", "lr", math.inf),
    ("train-phase2", "train.phase2", "weight_decay", math.nan),
]


class TestConfigKeys:
    def _run_bad(self, chain_ws, tmp_path, capsys, step, key, value):
        """Run `step` with one bad key on a copy of the chain's workspace;
        it must exit 3 naming the key and leave every file as it was."""
        ws, _ = chain_ws
        copy = _copy_ws(ws, tmp_path / "ws").parent
        cfg = chain_config()
        _set(cfg, key, value)
        p = write_config(tmp_path, cfg, "bad.json")
        assert main([step, "--config", str(p), "--workspace", str(copy)]) == 3
        assert key in capsys.readouterr().err
        assert _files(copy) == _files(ws)

    @pytest.mark.parametrize("step,key,value", SILENT_WRONG_RESULTS)
    def test_silent_wrong_result_exits_3(self, chain_ws, tmp_path, capsys, step, key, value):
        self._run_bad(chain_ws, tmp_path, capsys, step, key, value)

    @pytest.mark.parametrize("step,key,value", MALFORMED_KEYS)
    def test_malformed_key_exits_3_and_names_it(self, chain_ws, tmp_path, capsys, step, key, value):
        self._run_bad(chain_ws, tmp_path, capsys, step, key, value)

    @pytest.mark.parametrize("step,section,key,value", BAD_LOOP_SETTINGS,
                             ids=[f"{s}.{k}" for _, s, k, _ in BAD_LOOP_SETTINGS])
    def test_bad_loop_setting_exits_3_and_names_it(self, chain_ws, tmp_path, capsys, step,
                                                   section, key, value):
        ws, _ = chain_ws
        copy = _copy_ws(ws, tmp_path / "ws").parent
        cfg = chain_config()
        _set(cfg, f"{section}.{key}", value)
        p = write_config(tmp_path, cfg, "bad-loop.json")
        assert main([step, "--config", str(p), "--workspace", str(copy)]) == 3
        err = capsys.readouterr().err
        assert section in err and f"{key} must be" in err
        assert _files(copy) == _files(ws)

    def test_readme_config_is_the_tested_and_benchmarked_one(self):
        """The JSON config in README.md is the chain the tests run and the
        config the benchmark starts from, so strict key checks cover it."""
        root = Path(__file__).resolve().parents[1]
        readme = (root / "README.md").read_text(encoding="utf-8")
        (block,) = re.findall(r"```json\n(.*?)```", readme, re.S)
        spec = importlib.util.spec_from_file_location("_workloads", root / "perfbench/workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        assert json.loads(block) == chain_config() == workloads.README_CONFIG


def _drop(doc: dict, dotted: str) -> None:
    *parents, leaf = dotted.split(".")
    for p in parents:
        doc = doc[p]
    del doc[leaf]


def _drop_from_json(dotted: str):
    def edit(path: Path) -> None:
        doc = json.loads(path.read_text())
        _drop(doc, dotted)
        path.write_text(json.dumps(doc))
    return edit


def _drop_from_npz(key: str, meta_key: str | None = None):
    """Drop the array `key`, or the dotted `meta_key` of the checkpoint's
    JSON metadata (the array `key`)."""
    def edit(path: Path) -> None:
        with np.load(path) as data:
            entries = {k: data[k] for k in data.files}
        if meta_key is None:
            del entries[key]
        else:
            meta = json.loads(entries[key].tobytes())
            _drop(meta, meta_key)
            entries[key] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        np.savez(path, **entries)
    return edit


def _set_in_json(dotted: str, value):
    def edit(path: Path) -> None:
        doc = json.loads(path.read_text())
        _set(doc, dotted, value)
        path.write_text(json.dumps(doc))
    return edit


def _truncate_json(path: Path) -> None:
    path.write_text(path.read_text()[:40])


def _cut(path: Path) -> None:
    """Keep the first half of the file's bytes."""
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])


def _empty(path: Path) -> None:
    path.write_bytes(b"")


def _bad_crc(path: Path) -> None:
    """Flip the last data byte of the archive's first member; the zip
    directory and every header stay intact."""
    with zipfile.ZipFile(path) as z:
        info = z.infolist()[0]
    raw = bytearray(path.read_bytes())
    at = info.header_offset
    name_len = int.from_bytes(raw[at + 26 : at + 28], "little")
    extra_len = int.from_bytes(raw[at + 28 : at + 30], "little")
    raw[at + 30 + name_len + extra_len + info.compress_size - 1] ^= 0xFF
    path.write_bytes(bytes(raw))


def _bare_npy(path: Path) -> None:
    """Overwrite the archive with one plain .npy array, keeping its name."""
    with open(path, "wb") as f:
        np.save(f, np.zeros(3))


def _replace_npz_meta(blob: bytes):
    """Replace the checkpoint's JSON metadata (the array `__meta__`) by `blob`."""
    def edit(path: Path) -> None:
        with np.load(path) as data:
            entries = {k: data[k] for k in data.files}
        entries["__meta__"] = np.frombuffer(blob, dtype=np.uint8)
        np.savez(path, **entries)
    return edit


# (step, artifact, how to corrupt it, the key the error must name): each of
# these once ended in a KeyError traceback, in exit 1 with only the parser's
# message (not valid JSON), in exit 1 (no metadata entry), in a BadZipFile
# or EOFError traceback (a cut or empty archive, a member's bad CRC-32), in
# a TypeError traceback (a bare .npy array), or loaded and was applied as
# if valid (a scaler kind other than zscore and minmax)
MALFORMED_ARTIFACTS = [
    ("compress", "models/ae/aud.npz", _drop_from_npz("scaler.center"), "'scaler.center'"),
    ("compress", "models/ae/ensemble.json", _drop_from_json("groups.aud"), "'groups.aud'"),
    ("predict", "models/fused/model.json", _drop_from_json("branch_checkpoints.lyrics"),
     "'branch_checkpoints.lyrics'"),
    ("predict", "models/fused/branch_audio.npz", _drop_from_npz("__meta__", "config.hidden"),
     "'config.hidden'"),
    ("predict", "models/fused/model.json", _set_in_json("extra.target_scaler.kind", "robust"),
     "'robust'"),
    ("train-phase2", "models/fused/model.json",
     _set_in_json("extra.feature_scalers.social.kind", "constant"), "'constant'"),
    ("compress", "models/ae/ensemble.json", _truncate_json, "not valid JSON"),
    ("predict", "models/fused/model.json", _truncate_json, "not valid JSON"),
    ("predict", "models/fused/gate.npz", _replace_npz_meta(b'{"kind": "gate", "config": {'),
     "not valid JSON"),
    ("predict", "models/fused/branch_social.npz", _replace_npz_meta(b'\xff{}'), "not valid JSON"),
    ("predict", "models/fused/gate.npz", _drop_from_npz("__meta__"), "missing metadata"),
    ("predict", "models/fused/gate.npz", _cut, "not a zip file"),
    ("predict", "models/fused/gate.npz", _empty, "No data left in file"),
    ("predict", "models/fused/gate.npz", _bad_crc, "Bad CRC-32"),
    ("compress", "models/ae/aud.npz", _bare_npy, "not a checkpoint archive"),
]


@pytest.mark.parametrize("step,artifact,corrupt,key", MALFORMED_ARTIFACTS,
                         ids=[k.strip("'") if k.startswith("'") else f"{Path(a).name} {k}"
                              for _, a, _, k in MALFORMED_ARTIFACTS])
def test_malformed_artifact_exits_2_and_names_file_and_key(chain_ws, tmp_path, capsys, step,
                                                          artifact, corrupt, key):
    ws, _ = chain_ws
    cfg_path = _copy_ws(ws, tmp_path / "ws")
    path = cfg_path.parent / artifact
    corrupt(path)
    before = _files(cfg_path.parent)
    capsys.readouterr()
    assert main([step, "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert str(path) in err and key in err
    assert _files(cfg_path.parent) == before


def _copy_ws(ws: Path, dest: Path) -> Path:
    shutil.copytree(ws, dest)
    return dest / "run.json"


class TestGateReportInputs:
    def test_report_needs_no_model_or_features(self, chain_ws, tmp_path):
        ws, _ = chain_ws
        cfg_path = _copy_ws(ws, tmp_path / "ws")
        copy = cfg_path.parent
        shutil.rmtree(copy / "models/fused")
        for rel in ("data/audio.csv", "data/audio_z.csv", "data/lyrics_features.csv",
                    "data/social.csv", "data/ctd.csv"):
            (copy / rel).unlink()
        (copy / "out/gate_report.json").unlink()
        assert main(["gate-report", "--config", str(cfg_path)]) == 0
        assert ((copy / "out/gate_report.json").read_bytes()
                == (ws / "out/gate_report.json").read_bytes())

    def test_bad_grouping_checked_before_reading_files(self, tmp_path):
        cfg = chain_config()
        cfg["gate_report"]["group_by"] = "artist"
        p = write_config(tmp_path, cfg, "gr.json")  # an empty workspace
        assert main(["gate-report", "--config", str(p)]) == 3

    def test_missing_predictions_exits_2_and_names_path(self, chain_ws, tmp_path, capsys):
        ws, _ = chain_ws
        cfg = chain_config()
        cfg["predict"]["out"] = "out/no-such-predictions.csv"
        p = write_config(tmp_path, cfg, "gr.json")
        assert main(["gate-report", "--config", str(p), "--workspace", str(ws)]) == 2
        assert "no-such-predictions.csv" in capsys.readouterr().err

    def test_track_without_metadata_exits_2_and_names_it(self, chain_ws, tmp_path, capsys):
        ws, _ = chain_ws
        header, *rows = (ws / "out/predictions.csv").read_text().splitlines()
        ghost = "ghost-track" + rows[0][rows[0].index(","):]
        (tmp_path / "pred.csv").write_text("\n".join([header, *rows, ghost]) + "\n")
        cfg = chain_config()
        cfg["predict"]["out"] = str(tmp_path / "pred.csv")
        cfg["gate_report"]["out"] = str(tmp_path / "gate_report.json")
        p = write_config(tmp_path, cfg, "gr.json")
        assert main(["gate-report", "--config", str(p), "--workspace", str(ws)]) == 2
        assert "ghost-track" in capsys.readouterr().err


class TestPredictionCells:
    """predictions.csv is a matrix artifact: a cell that is not a finite
    number exits 1 naming the file, the row and the column."""

    @pytest.mark.parametrize("step", ["evaluate", "gate-report"])
    @pytest.mark.parametrize("column,cell,what", [
        ("pred_popularity", "abc", "not a number: 'abc'"),
        ("alpha_audio", "nan", "not a finite number: 'nan'"),
    ])
    def test_bad_cell_exits_1_and_names_file_row_and_column(self, chain_ws, tmp_path, capsys,
                                                           step, column, cell, what):
        ws, _ = chain_ws
        lines = (ws / "out/predictions.csv").read_text().splitlines()
        at = lines[0].split(",").index(column)
        row = lines[3].split(",")
        row[at] = cell
        lines[3] = ",".join(row)
        pred = tmp_path / "pred.csv"
        pred.write_text("\n".join(lines) + "\n")
        cfg = chain_config()
        cfg["predict"]["out"] = cfg["evaluate"]["predictions"] = str(pred)
        cfg["evaluate"]["out"] = str(tmp_path / "metrics.json")
        cfg["gate_report"]["out"] = str(tmp_path / "gate_report.json")
        p = write_config(tmp_path, cfg, "cells.json")
        assert main([step, "--config", str(p), "--workspace", str(ws)]) == 1
        assert f"{pred} row 4, column {column!r}: {what}" in capsys.readouterr().err
        assert not (tmp_path / "metrics.json").exists()
        assert not (tmp_path / "gate_report.json").exists()

    def test_other_columns_exit_1_and_name_the_file(self, chain_ws, tmp_path, capsys):
        ws, _ = chain_ws
        header, *rows = (ws / "out/predictions.csv").read_text().splitlines()
        pred = tmp_path / "pred.csv"
        pred.write_text("\n".join([header.replace("alpha_audio", "alpha_video"), *rows]) + "\n")
        cfg = chain_config()
        cfg["predict"]["out"] = str(pred)
        cfg["gate_report"]["out"] = str(tmp_path / "gate_report.json")
        p = write_config(tmp_path, cfg, "cols.json")
        assert main(["gate-report", "--config", str(p), "--workspace", str(ws)]) == 1
        err = capsys.readouterr().err
        assert str(pred) in err and "alpha_video" in err


# (step, metadata file it reads, column, cell, what the message calls the
# cell): the first of each kind once exited 1 with Python's bare "invalid
# literal for int()" or "could not convert string to float", and split ran
# on a NaN popularity
BAD_METADATA_CELLS = [
    ("clean", "data/metadata.csv", "year", "19x0", "not a number"),
    ("clean", "data/metadata.csv", "popularity", "5o", "not a number"),
    ("split", "data/metadata_clean.csv", "popularity", "5o", "not a number"),
    ("split", "data/metadata_clean.csv", "popularity", "nan", "not a finite number"),
    ("train-phase1", "data/metadata_clean.csv", "popularity", "5o", "not a number"),
    ("train-phase1", "data/metadata_clean.csv", "popularity", "inf", "not a finite number"),
    ("evaluate", "data/metadata_clean.csv", "year", "19x0", "not a number"),
    ("evaluate", "data/metadata_clean.csv", "popularity", "-inf", "not a finite number"),
    ("gate-report", "data/metadata_clean.csv", "year", "19x0", "not a number"),
]


@pytest.mark.parametrize("step,rel,column,cell,what", BAD_METADATA_CELLS)
def test_bad_metadata_cell_exits_1_and_names_file_row_and_column(chain_ws, tmp_path, capsys, step,
                                                                 rel, column, cell, what):
    ws, _ = chain_ws
    copy = _copy_ws(ws, tmp_path / "ws").parent
    lines = (copy / rel).read_text().splitlines()
    row = lines[3].split(",")
    row[lines[0].split(",").index(column)] = cell
    lines[3] = ",".join(row)
    (copy / rel).write_text("\n".join(lines) + "\n")
    before = _files(copy)
    assert main([step, "--config", str(copy / "run.json")]) == 1
    assert f"{copy / rel} row 4, column {column!r}: {what}: {cell!r}" in capsys.readouterr().err
    assert _files(copy) == before


# prints, as its last stdout line, the popgate modules loaded once `cli.main`
# ran the subcommand given in argv (with no argv: once popgate.cli is imported)
_LOADED_AFTER_MAIN = """
import json, sys
import popgate.cli
rc = popgate.cli.main(sys.argv[1:]) if sys.argv[1:] else 0
print(json.dumps(sorted(m for m in sys.modules if m.startswith("popgate"))))
raise SystemExit(rc)
"""
_STEP_PACKAGES = {"nn", "fusion", "autoenc", "data", "ctd"}
_TRAINING = {"nn", "fusion", "autoenc"}


def _modules_loaded(*argv: str) -> set[str]:
    """The popgate modules, named without `popgate.`, that a fresh
    interpreter loads running `argv`."""
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", _LOADED_AFTER_MAIN, *argv],
                          env=dict(os.environ, PYTHONPATH=str(root / "src")),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    modules = json.loads(proc.stdout.splitlines()[-1])
    return {m.partition(".")[2] for m in modules if "." in m}


def _packages_loaded(*argv: str) -> set[str]:
    """The popgate subpackages a fresh interpreter loads running `argv`."""
    return {m.split(".")[0] for m in _modules_loaded(*argv)} & _STEP_PACKAGES


class TestImportFootprint:
    """Each subcommand imports only the packages its body and its checked
    config keys use; the CLI itself imports none of them."""

    def test_cli_import_loads_no_step_package(self):
        assert _packages_loaded() == set()

    def test_cli_import_loads_no_multiprocessing(self):
        # the matrix CSV codec imports it only when it forks workers
        root = Path(__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, popgate.cli; print('multiprocessing' in sys.modules)"],
            env=dict(os.environ, PYTHONPATH=str(root / "src")),
            capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stdout.strip()) == (0, "False"), proc.stderr

    @pytest.mark.parametrize("cmd", ["synth", "clean", "split", "ctd-extract", "evaluate"])
    def test_light_steps_load_no_training_package(self, chain_ws, tmp_path, cmd):
        ws, _ = chain_ws
        cfg_path = _copy_ws(ws, tmp_path / "ws")
        loaded = _packages_loaded(cmd, "--config", str(cfg_path))
        assert not loaded & _TRAINING, loaded
        if cmd in ("ctd-extract", "evaluate"):
            assert "data" not in loaded

    def test_only_ctd_extract_loads_ctd(self, chain_ws, tmp_path):
        # synth takes its event years from `popgate.config`
        ws, _ = chain_ws
        cfg_path = _copy_ws(ws, tmp_path / "ws")
        loading = [cmd for cmd in CHAIN if "ctd" in _packages_loaded(cmd, "--config", str(cfg_path))]
        assert loading == ["ctd-extract"]

    def test_gate_report_loads_no_training_package(self, chain_ws, tmp_path):
        # with the README config, which sets train.branches, .gate, .phase1
        # and .phase2: their classes are in `popgate.config`
        ws, _ = chain_ws
        cfg_path = _copy_ws(ws, tmp_path / "ws")
        loaded = _packages_loaded("gate-report", "--config", str(cfg_path))
        assert not loaded & _TRAINING, loaded

    # (step, modules of the step packages that it does not use): a package
    # imports none of its modules, so a step loads only the ones it names
    @pytest.mark.parametrize("cmd,unused", [
        ("synth", {"data.cleaning", "data.scaling", "data.split"}),
        ("ae-train", {"data.cleaning", "data.split"}),
        ("compress", {"data.cleaning", "data.split", "fusion.train", "fusion.model"}),
        ("predict", {"fusion.train", "nn.optim", "nn.control", "data.cleaning", "data.split"}),
    ])
    def test_step_loads_no_module_it_does_not_use(self, chain_ws, tmp_path, cmd, unused):
        ws, _ = chain_ws
        cfg_path = _copy_ws(ws, tmp_path / "ws")
        loaded = _modules_loaded(cmd, "--config", str(cfg_path))
        assert not loaded & unused, loaded & unused

    def test_no_package_init_binds_a_public_name(self):
        """Every name is imported from the module that defines it: a
        package's __init__ holds its docstring and dunders only, so that
        re-exports cannot return."""
        for init in sorted(Path(popgate.__file__).parent.rglob("__init__.py")):
            for stmt in ast.parse(init.read_text(encoding="utf-8")).body:
                if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
                    continue  # the docstring
                bound = ([t.id for t in stmt.targets if isinstance(t, ast.Name)]
                         if isinstance(stmt, ast.Assign) else [])
                assert bound and all(n.startswith("__") for n in bound), f"{init}:{stmt.lineno}"

    def test_config_module_loads_only_codec_and_exceptions(self):
        root = Path(__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-c", "import json, sys, popgate.config; "
             "print(json.dumps([m for m in sys.modules if m.startswith('popgate')]))"],
            env=dict(os.environ, PYTHONPATH=str(root / "src")),
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        loaded = set(json.loads(proc.stdout)) - {"popgate", "popgate.config"}
        assert loaded <= {"popgate.codec", "popgate.exceptions"}, loaded


class TestBlasThreads:
    def test_synth_bytes_do_not_depend_on_the_blas_thread_count(self, tmp_path):
        # at 12851 audio columns, synth's (240, 4) @ (4, 12851) product sums
        # in another order on two BLAS threads than on one
        root = Path(__file__).resolve().parents[1]
        cfg = {"synth": {**chain_config()["synth"], "dims": [12851, 10, 6]}}
        audio = {}
        for threads in ("1", "2"):
            ws = tmp_path / f"threads{threads}"
            ws.mkdir()
            env = dict(os.environ, PYTHONPATH=str(root / "src"), OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
            proc = subprocess.run(
                [sys.executable, "-m", "popgate.cli", "synth", "--config", str(write_config(ws, cfg))],
                env=env, capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
            audio[threads] = (ws / "data/audio.csv").read_bytes()
        assert audio["1"] == audio["2"]


class TestTracedRun:
    def test_traced_step_binds_pipeline_names(self, chain_ws, tmp_path):
        """perfbench/traced_step.py wraps names bound in popgate.pipeline; a
        renamed or dropped binding fails the traced benchmark run."""
        ws, _ = chain_ws
        cfg_path = _copy_ws(ws, tmp_path / "ws")
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(root / "src"), OPENBLAS_NUM_THREADS="1",
                   OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
        train = {"nn.clip", "nn.optim_step", "nn.checkpoint_save"}
        # every subcommand, in chain order: synth rewrites the copy's data
        # with the same bytes
        expect = {
            "synth": {"data.synth", "tabular.write_matrix"},
            "clean": {"data.clean", "tabular.write_csv"},
            "split": {"data.split"},
            "ctd-extract": {"ctd.ingest", "ctd.build"},
            "ae-train": {"autoenc.train", "autoenc.save", "nn.snapshot", *train},
            "compress": {"autoenc.load", "nn.checkpoint_load"},
            "train-phase1": {"fusion.phase1", "nn.snapshot", *train},
            "train-phase2": {"fusion.phase2", "nn.checkpoint_load", "nn.snapshot", *train},
            "predict": {"pipeline.predict", "fusion.load", "tabular.read_matrix",
                        "data.scaler", "fusion.predict"},
            "evaluate": {"fusion.gate_report"},
            "gate-report": {"pipeline.gate_report", "fusion.gate_report", "tabular.read_csv"},
        }
        assert tuple(expect) == CHAIN
        for cmd, names in expect.items():
            spans = tmp_path / f"{cmd}.spans.json"
            proc = subprocess.run(
                [sys.executable, str(root / "perfbench/traced_step.py"), str(spans),
                 cmd, "--config", str(cfg_path)],
                env=env, capture_output=True, text=True, timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            assert names <= set(json.loads(spans.read_text())["names"]), cmd
