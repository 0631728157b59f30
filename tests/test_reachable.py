"""The profile hook of tools/reachable.py, on a short script rather than a
chain: a function that only a forked lane runs counts as called, and one
that no process runs does not."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "_reachable", Path(__file__).resolve().parents[1] / "tools/reachable.py")
reachable = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reachable)

# two lanes whatever this machine has, as tests/test_ctd.py's forced_lanes
# fixture gives them: job "b" runs in a forked lane, which ends in os._exit
_TWO_LANES = """
import os
os.sched_getaffinity = lambda pid: {0, 1}
from popgate.lanes import run_lanes
pids = run_lanes("probe", {"a": (2.0, os.getpid), "b": (1.0, os.getpid)})
assert pids["a"] == os.getpid() != pids["b"], pids
"""


def test_the_hook_records_a_forked_lane_and_not_an_uncalled_function(tmp_path):
    hook_dir, out_dir = tmp_path / "hook", tmp_path / "seen"
    hook_dir.mkdir()
    out_dir.mkdir()
    reachable.write_hook(hook_dir, out_dir)
    proc = subprocess.run(
        [sys.executable, "-c", _TWO_LANES],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join((str(reachable.SRC), str(hook_dir)))),
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert len(list(out_dir.glob("*.txt"))) == 2  # the caller's and the lane's
    everything, reached = reachable.functions(), reachable.called(out_dir)
    names = {everything[key] for key in reached if key in everything}
    assert {"popgate.lanes:run_lanes", "popgate.lanes:_run_lane"} <= names
    assert "popgate.metrics:compute_metrics" in everything.values()
    assert "popgate.metrics:compute_metrics" not in names
