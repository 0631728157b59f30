"""ae-train holds one copy of each group's training rows while the group trains.

numpy reports each array buffer it allocates to `tracemalloc`, and a forked
lane inherits its caller's traces, so each process reads the bytes it holds
at every optimizer step of its own groups. The feature matrix has columns no
group reads, so neither the parsed matrix nor an all-column copy of the
training rows fits under the bounds, and at two lanes the other lane's group
does not either.
"""

import multiprocessing  # noqa: F401  (imported before tracing: `run_lanes` forks with it)
import os
import tracemalloc

import numpy as np
import pytest

import popgate.autoenc.train
import popgate.pipeline
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
