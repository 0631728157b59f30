"""Independent jobs spread over one lane per core: the lane plan, the error
rules, and ae-train and train-phase1 at forced lane counts."""

import errno
import os
import shutil
import signal
from functools import partial
from pathlib import Path

import pytest

import popgate.pipeline
from popgate import lanes
from popgate.autoenc.model import n_params
from popgate.cli import main
from popgate.config import MODALITIES, default_registry
from popgate.exceptions import PopgateError, ShapeError
from popgate.lanes import _lanes, run_lanes

from _chain import chain_config, run_chain, write_config


@pytest.fixture
def forced_lanes(request, monkeypatch):
    """Give `run_lanes` `request.param` cores, whatever this machine has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(request.param)))
    return request.param


@pytest.fixture
def pids(monkeypatch):
    """The pid of every lane forked while the test runs."""
    pids, fork = [], lanes._fork

    def recording(*args):
        proc, pipe = fork(*args)
        pids.append(proc.pid)
        return proc, pipe

    monkeypatch.setattr(lanes, "_fork", recording)
    return pids


def _assert_reaped(pids):
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


class TestLanePlan:
    @pytest.mark.parametrize("weights, k, expect", [
        ([5.0], 1, [[0]]),
        ([1.0, 5.0, 2.0, 2.0], 2, [[1], [0, 2, 3]]),
        ([3.0, 3.0, 2.0, 2.0, 2.0], 2, [[0, 2, 4], [1, 3]]),
        ([1.0, 1.0, 1.0], 3, [[0], [1], [2]]),
    ], ids=["one", "heaviest-alone", "ties-to-the-lowest-lane", "one-each"])
    def test_longest_first(self, weights, k, expect):
        assert _lanes(weights, k) == expect

    def test_blf_trains_alone_in_the_caller_on_two_cores(self):
        registry = default_registry()
        weights = [n_params(g.d, g.d_enc) for g in registry]
        assert [[registry[i].name for i in lane] for lane in _lanes(weights, 2)] == [
            ["blf"], [g.name for g in registry if g.name != "blf"]]


_PARENT = os.getpid()


def _job(value, fail=None):
    def job():
        if fail == "raises":
            raise ShapeError(f"job {value} failed")
        if fail == "killed" and os.getpid() != _PARENT:
            os.kill(os.getpid(), signal.SIGKILL)
        return value
    return job


class TestRunLanes:
    @pytest.mark.parametrize("forced_lanes", [1, 2, 3], indirect=True)
    def test_results_come_back_in_job_order(self, forced_lanes, pids):
        jobs = {f"j{i}": (float(w), _job([i])) for i, w in enumerate([1, 4, 2, 3])}
        assert run_lanes("step", jobs) == {f"j{i}": [i] for i in range(4)}
        assert len(pids) == forced_lanes - 1
        _assert_reaped(pids)

    @pytest.mark.parametrize("forced_lanes", [1, 2], indirect=True)
    def test_one_job_or_one_core_runs_inline(self, forced_lanes, pids):
        jobs = {"only": (1.0, os.getpid)}
        if forced_lanes == 1:
            jobs["next"] = (1.0, os.getpid)
        assert set(run_lanes("step", jobs).values()) == {os.getpid()}
        assert pids == []

    @pytest.mark.parametrize("forced_lanes", [1, 2, 3], indirect=True)
    def test_earliest_failed_job_in_input_order_is_raised(self, forced_lanes, pids):
        # j1, the heaviest, fails in the caller and j0 in a forked lane; a
        # serial loop would raise j0's error
        jobs = {"j0": (1.0, _job(0, "raises")), "j1": (9.0, _job(1, "raises")),
                "j2": (2.0, _job(2))}
        with pytest.raises(ShapeError, match="^job 0 failed$"):
            run_lanes("step", jobs)
        assert len(pids) == forced_lanes - 1
        _assert_reaped(pids)

    @pytest.mark.parametrize("forced_lanes", [1, 2, 3], indirect=True)
    def test_release_comes_after_each_lanes_first_calls_and_before_any_finish(
            self, forced_lanes, pids):
        shared = ["input"]

        def job(name):
            seen = list(shared)
            return lambda: (name, seen, list(shared))

        jobs = {name: (w, partial(job, name)) for name, w in (("a", 3.0), ("b", 2.0), ("c", 1.0))}
        assert run_lanes("step", jobs, release=shared.clear) == {
            name: (name, ["input"], []) for name in jobs}
        assert shared == []
        assert len(pids) == forced_lanes - 1
        _assert_reaped(pids)

    @pytest.mark.parametrize("forced_lanes", [1, 2], indirect=True)
    def test_a_first_call_error_comes_after_the_earlier_jobs_finish(self, forced_lanes, pids):
        def finish_fails():
            raise ShapeError("a failed")

        jobs = {"a": (1.0, lambda: finish_fails), "b": (1.0, _job(1, "raises"))}
        with pytest.raises(ShapeError, match="^a failed$"):
            run_lanes("step", jobs, release=lambda: None)
        _assert_reaped(pids)

    @pytest.mark.parametrize("forced_lanes", [2, 3], indirect=True)
    def test_killed_lane_names_the_step_and_its_jobs(self, forced_lanes, pids):
        jobs = {"j0": (9.0, _job(0)), "j1": (1.0, _job(1, "killed")), "j2": (2.0, _job(2))}
        lane = "j1, j2" if forced_lanes == 2 else "j1"
        with pytest.raises(PopgateError,
                           match=f"^step: the worker process running {lane} exited with code -9$"):
            run_lanes("step", jobs)
        assert len(pids) == forced_lanes - 1
        _assert_reaped(pids)

    @pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs two cores")
    def test_a_lane_starts_off_the_callers_core_and_keeps_its_mask(self, monkeypatch):
        forked_on, core = [], lanes._core
        monkeypatch.setattr(lanes, "_core", lambda: forked_on.append(core()) or forked_on[-1])
        jobs = {"caller": (9.0, lambda: 0),
                "lane": (1.0, lambda: (core(), os.sched_getaffinity(0)))}
        lane_core, mask = run_lanes("step", jobs)["lane"]
        assert mask == os.sched_getaffinity(0)
        assert forked_on and lane_core != forked_on[0]

    @pytest.mark.parametrize("forced_lanes", [2], indirect=True)
    def test_an_error_that_cannot_be_pickled_keeps_its_text(self, forced_lanes):
        class Local(Exception):
            pass

        def job():
            raise Local("1+2")

        with pytest.raises(PopgateError, match=r"^Local: 1\+2$"):
            run_lanes("step", {"big": (9.0, lambda: 0), "local": (1.0, job)})

    @pytest.mark.parametrize("forced_lanes", [2], indirect=True)
    def test_an_os_error_in_a_lane_keeps_its_type_and_path(self, forced_lanes):
        # so that `popgate.cli.main` reports it as it does one in the caller
        def job():
            raise NotADirectoryError(errno.ENOTDIR, "Not a directory", "blocker/data")

        with pytest.raises(NotADirectoryError, match=r"Not a directory: 'blocker/data'$") as info:
            run_lanes("step", {"big": (9.0, lambda: 0), "lane": (1.0, job)})
        assert info.value.filename == "blocker/data"


# Three jobs per step, the heaviest last, so that it runs in the calling
# process; at two lanes the other two share lane 1. The AE groups split the
# README config's 12 audio columns; the README experts' social branch has
# the widest input.
_GROUPS = [{"name": "first", "start": 0, "d": 3, "d_enc": 1},
           {"name": "mid", "start": 3, "d": 3, "d_enc": 2},
           {"name": "big", "start": 6, "d": 6, "d_enc": 2}]
STEPS = {
    "ae-train": ("train_group_autoencoder", lambda args: args[0].name,
                 [g["name"] for g in _GROUPS], ["models/ae", "manifests/ae-train.json"]),
    "train-phase1": ("phase1_train", lambda args: args[0].modality, list(MODALITIES),
                     ["models/fused", "manifests/train-phase1.json"]),
}


@pytest.fixture(scope="module")
def base_ws(tmp_path_factory):
    """The README chain through compress, and a config with three AE groups."""
    ws = tmp_path_factory.mktemp("lanes")
    config = chain_config()
    run_chain(ws, config, ("synth", "clean", "split", "ctd-extract", "ae-train", "compress"))
    config["ae"]["registry"] = _GROUPS
    config["ae"]["train"]["max_epochs"] = 4
    config["train"]["phase1"]["max_epochs"] = 6
    write_config(ws, config)
    return ws


def _run(base: Path, dest: Path, step: str) -> tuple[int, Path]:
    shutil.copytree(base, dest)
    return main([step, "--config", str(dest / "run.json")]), dest


def _files(ws: Path, rels) -> dict[str, bytes]:
    out = {}
    for rel in rels:
        p = ws / rel
        for f in sorted(p.rglob("*")) if p.is_dir() else [p]:
            if f.is_file():
                out[f.relative_to(ws).as_posix()] = f.read_bytes()
    return out


@pytest.fixture(scope="module")
def serial(base_ws, tmp_path_factory):
    """A step's artifacts at one lane, by step."""
    runs = {}

    def artifacts(step):
        if step not in runs:
            mp = pytest.MonkeyPatch()
            mp.setattr(os, "sched_getaffinity", lambda pid: {0})
            try:
                rc, ws = _run(base_ws, tmp_path_factory.mktemp("serial") / "ws", step)
            finally:
                mp.undo()
            assert rc == 0
            runs[step] = _files(ws, STEPS[step][3])
        return runs[step]

    return artifacts


def _failing(monkeypatch, step: str, failing: dict[int, str]) -> None:
    """Make `step`'s trainer raise a ShapeError for the jobs whose index
    `failing` maps to "raises", and SIGKILL its process for those it maps
    to "killed" when it runs in a forked lane."""
    attr, name_of, names, _ = STEPS[step]
    how = {names[i]: what for i, what in failing.items()}
    real, parent = getattr(popgate.pipeline, attr), os.getpid()

    def trainer(*args):
        name = name_of(args)
        if how.get(name) == "killed" and os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        if how.get(name) == "raises":
            raise ShapeError(f"{name} failed")
        return real(*args)

    monkeypatch.setattr(popgate.pipeline, attr, trainer)


@pytest.mark.parametrize("step", list(STEPS))
class TestStepsInLanes:
    @pytest.mark.parametrize("forced_lanes", [1, 2, 3], indirect=True)
    def test_artifacts_are_byte_equal_at_every_lane_count(
            self, base_ws, tmp_path, serial, step, forced_lanes, pids):
        rc, ws = _run(base_ws, tmp_path / "ws", step)
        assert rc == 0
        assert len(pids) == forced_lanes - 1
        _assert_reaped(pids)
        expect = serial(step)
        got = _files(ws, STEPS[step][3])
        assert sorted(got) == sorted(expect)
        assert len(expect) >= 5
        for rel in expect:
            assert got[rel] == expect[rel], rel

    @pytest.mark.parametrize("failing", [
        {1: "raises"},               # in a forked lane
        {0: "raises", 2: "raises"},  # the earlier in a forked lane, the later in the caller
    ], ids=["one", "two"])
    def test_error_in_a_lane_is_the_serial_runs(
            self, base_ws, tmp_path, monkeypatch, capsys, step, failing, pids):
        _failing(monkeypatch, step, failing)
        outcomes = set()
        for n in (1, 2, 3):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=n: set(range(n)))
            rc, _ = _run(base_ws, tmp_path / f"ws{n}", step)
            outcomes.add((rc, capsys.readouterr().err))
        first = STEPS[step][2][min(failing)]
        assert outcomes == {(ShapeError.exit_code, f"error: {first} failed\n")}
        assert len(pids) == 3
        _assert_reaped(pids)

    @pytest.mark.parametrize("forced_lanes", [2, 3], indirect=True)
    def test_killed_lane_names_the_step_and_its_jobs(
            self, base_ws, tmp_path, monkeypatch, capsys, step, forced_lanes, pids):
        names = STEPS[step][2]
        _failing(monkeypatch, step, {1: "killed"})
        rc, ws = _run(base_ws, tmp_path / "ws", step)
        lane = ", ".join(names[:2]) if forced_lanes == 2 else names[1]
        assert rc == PopgateError.exit_code
        assert capsys.readouterr().err == (
            f"error: {step}: the worker process running {lane} exited with code -9\n")
        assert len(pids) == forced_lanes - 1
        _assert_reaped(pids)
        if step == "ae-train":
            assert not (ws / "models/ae/ensemble.json").exists()


def test_ae_train_deletes_only_the_checkpoints_the_registry_dropped(base_ws, tmp_path):
    # base_ws trained the README registry (group `aud`), so its
    # ensemble.json names aud.npz; a file it does not name stays
    ws = tmp_path / "ws"
    shutil.copytree(base_ws, ws)
    (ws / "models/ae/notes.npz").write_bytes(b"kept")
    config = chain_config()
    config["ae"]["registry"] = [{"name": "lo", "start": 0, "d": 6, "d_enc": 2},
                                {"name": "hi", "start": 6, "d": 6, "d_enc": 2}]
    config["ae"]["train"]["max_epochs"] = 2
    assert (ws / "models/ae/aud.npz").exists()
    assert main(["ae-train", "--config", str(write_config(ws, config, "two.json"))]) == 0
    assert sorted(p.name for p in (ws / "models/ae").glob("*.npz")) == ["hi.npz", "lo.npz",
                                                                        "notes.npz"]
