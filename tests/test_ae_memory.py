"""ae-train holds one copy of each group's training rows while the group
trains, and reads its best epoch back one checkpoint member at a time.

numpy reports each array buffer it allocates to `tracemalloc`, and a forked
lane inherits its caller's traces, so each process reads the bytes it holds
at every optimizer step of its own groups. The feature matrix has columns no
group reads, so neither the parsed matrix nor an all-column copy of the
training rows fits under the bounds, and at two lanes the other lane's group
does not either.
"""

import json
import multiprocessing  # noqa: F401  (imported before tracing: `run_lanes` forks with it)
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import popgate
import popgate.autoenc.train
import popgate.pipeline
from popgate.autoenc.model import n_params
from popgate.cli import main
from popgate.tabular import write_csv, write_matrix_csv

from _chain import write_config

N_ROWS, WIDTH = 6000, 256
GROUPS = [{"name": "wide", "start": 0, "d": 96, "d_enc": 4},
          {"name": "narrow", "start": 96, "d": 64, "d_enc": 4}]
# a step's batch, the model and its optimizer state, and the step's own
# objects: ~1 MB measured
SLACK = 3 << 19


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    ws = tmp_path_factory.mktemp("ae-rows")
    rng = np.random.default_rng(0)
    ids = [f"t{i:05d}" for i in range(N_ROWS)]
    (ws / "data").mkdir()
    write_matrix_csv(ws / "data/audio.csv", ids, [f"c{j}" for j in range(WIDTH)],
                     rng.normal(size=(N_ROWS, WIDTH)))
    split = ["test" if i % 5 == 2 else "train" for i in range(N_ROWS)]
    write_csv(ws / "data/split.csv", ["track_id", "split"], zip(ids, split))
    write_config(ws, {"seed": 46, "ae": {
        "features": "data/audio.csv", "split": "data/split.csv", "model_dir": "models/ae",
        "registry": GROUPS, "train": {"max_epochs": 2, "batch_size": 64}}})
    return ws, split.count("train")


@pytest.fixture
def held(monkeypatch, tmp_path):
    """Run ae-train traced -> the most bytes the process held at any
    optimizer step of each group, by group name."""
    out = tmp_path / "held"
    out.mkdir()
    most = [0]
    clip, train = popgate.autoenc.train.clip_grad_norm, popgate.pipeline.train_group_autoencoder

    def measured_clip(*args, **kwargs):
        most[0] = max(most[0], tracemalloc.get_traced_memory()[0])
        return clip(*args, **kwargs)

    def measured_train(group, *args, **kwargs):
        most[0] = 0
        result = train(group, *args, **kwargs)
        (out / group.name).write_text(str(most[0]))
        return result

    monkeypatch.setattr(popgate.autoenc.train, "clip_grad_norm", measured_clip)
    monkeypatch.setattr(popgate.pipeline, "train_group_autoencoder", measured_train)

    def run(ws) -> dict[str, int]:
        tracemalloc.start()
        try:
            assert main(["ae-train", "--config", str(ws / "run.json")]) == 0
        finally:
            tracemalloc.stop()
        return {p.name: int(p.read_text()) for p in out.iterdir()}

    return run


@pytest.mark.parametrize("n_lanes", [1, 2])
def test_a_training_group_holds_its_rows_once(workspace, held, monkeypatch, n_lanes):
    ws, n_train = workspace
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n_lanes)))
    got = held(ws)
    rows = {g["name"]: n_train * g["d"] * 8 for g in GROUPS}
    # at one lane "wide" trains first, with "narrow"'s rows gathered beside
    # its own; at two lanes each group trains alone in its lane
    expect = {"wide": rows["wide"] + (rows["narrow"] if n_lanes == 1 else 0),
              "narrow": rows["narrow"]}
    all_columns = n_train * WIDTH * 8
    for name, bound in expect.items():
        assert rows[name] <= got[name] <= bound + SLACK, (name, got[name], bound)
        assert got[name] < all_columns


def test_a_best_epoch_read_back_loads_one_member_at_a_time(tmp_path):
    # a wide group (2200 -> 1100 -> 550 -> 50, mirrored: 49 MB of params,
    # 19.4 MB the largest) whose last epoch is not its best, so the best
    # epoch is read back from the checkpoint into the scratch file, one
    # member at a time. Peak over the process's own start, in a fresh
    # process: 65 MB measured here (1.33 P: the slot, one member, the rest);
    # 94 MB (1.92 P) reading every member at once, and 45.7 MB with no read-back.
    # The oracle runs in the same process once the peak is read, so its
    # GEMMs round with the trainer's BLAS settings
    code = f"""
import json
import sys
import numpy as np
sys.path.insert(0, {str(Path(__file__).resolve().parent)!r})
from _oracles import ref_save_group_checkpoint, ref_train_group_autoencoder
from popgate.autoenc.train import train_group_autoencoder
from popgate.config import AETrainConfig, FeatureGroup

def status(key):
    with open("/proc/self/status") as f:
        return next(int(line.split()[1]) * 1024 for line in f if line.startswith(key + ":"))

X = np.load({str(tmp_path / "X.npy")!r})
group, cfg = FeatureGroup("wide", 0, 2200, 50), AETrainConfig(lr=1.0, batch_size=16, max_epochs=3)
before = status("VmRSS")
_, _, history = train_group_autoencoder(group, X, cfg, 46, {str(tmp_path / "g.npz")!r})
rise = status("VmHWM") - before
ref_model, ref_scaler, ref_history = ref_train_group_autoencoder(group, X, cfg, 46)
ref_save_group_checkpoint({str(tmp_path / "ref.npz")!r}, group, ref_model, ref_scaler, 46)
print(rise, json.dumps([history, ref_history], sort_keys=True))
"""
    rng = np.random.default_rng(5)
    X = rng.normal(size=(60, 2)) @ rng.normal(size=(2, 2200)) + 0.3 * rng.normal(size=(60, 2200))
    np.save(tmp_path / "X.npy", X)
    src = str(Path(popgate.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
    rise, histories = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                     text=True, check=True).stdout.split(" ", 1)
    history, ref_history = json.loads(histories)
    assert 0 <= ref_history["best_epoch"] < ref_history["epochs_run"] - 1 == 2
    assert history == ref_history
    assert (tmp_path / "g.npz").read_bytes() == (tmp_path / "ref.npz").read_bytes()
    P = n_params(2200, 50) * 8
    assert int(rise) < 1.6 * P, int(rise) / P
