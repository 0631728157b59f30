"""Run the eleven-step chain on one benchmark config and print the SHA-256 of
every file it wrote, so that the artifacts of two checkouts compare with one
`diff`.

Usage: python tools/chain_digest.py NAME SEED WORKSPACE [ROWS]

NAME is `readme` (the README config), `chain-small` or `chain-paper`; the
configs come from perfbench/workloads.py. ROWS, if given, replaces the
config's `synth.n_samples`, so that one config runs at several row counts
(the peak RSS of the training steps grows with them). WORKSPACE must be
absent or empty.
The config is written there as run.json, and each step runs as its own
process, `python -m popgate.cli STEP --config run.json`, on the program
under src/ beside tools/. Its summary goes to stderr, and so does one line
with its wall time, its peak RSS and the MB it wrote, both from `os.wait4`
(so a step's peak is its own, not the high-water mark of an earlier one).
The MB written is `ru_oublock` × 512 B: the bytes the step and its lanes
dirtied in the page cache, whether or not they reached the disk. A page
counts each time it turns dirty, so a file rewritten in place (such as an
optimizer's moments file) counts again only once the kernel has written
it back. Prints
`sha256  path` for every file under data/, models/, out/ and manifests/,
sorted by path. Manifests record paths relative to the workspace, so two
runs compare at any two workspace paths.
"""

from __future__ import annotations

import copy
import hashlib
import importlib.util
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

from popgate.codec import write_json  # noqa: E402

ARTIFACT_DIRS = ("data", "models", "out", "manifests")


def _workloads():
    spec = importlib.util.spec_from_file_location("_workloads", ROOT / "perfbench/workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_step(step: str, cfg_path: Path) -> tuple[int, float, float, float]:
    """Run one step as a child with its stdout on our stderr: its exit
    code, wall time in s, peak RSS in MB and MB written."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "popgate.cli", step, "--config", str(cfg_path)],
                            stdout=sys.stderr, env=env)
    # wait4, not Popen.wait: it also returns the child's peak RSS and the
    # blocks it wrote, its reaped lanes' included
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0, usage.ru_oublock * 512 / 1e6


def main(argv: list[str]) -> int:
    if len(argv) not in (3, 4):
        print(__doc__, file=sys.stderr)
        return 2
    name, seed, workspace = argv[0], int(argv[1]), Path(argv[2])
    wl = _workloads()
    if name == "readme":
        config = {**copy.deepcopy(wl.README_CONFIG), "seed": seed}
    elif name in wl.CHAIN_OVERRIDES:
        config = wl.chain_config(name, seed)
    else:
        print(f"error: NAME must be readme or one of {sorted(wl.CHAIN_OVERRIDES)}", file=sys.stderr)
        return 2
    if len(argv) == 4:
        config["synth"]["n_samples"] = int(argv[3])
    if workspace.exists() and any(workspace.iterdir()):
        print(f"error: workspace {workspace} is not empty", file=sys.stderr)
        return 2
    cfg_path = workspace / "run.json"
    write_json(cfg_path, config)
    for step in wl.CHAIN:
        sys.stderr.flush()
        rc, wall, rss_mb, written_mb = run_step(step, cfg_path)
        print(f"{step}: {wall:.2f} s, peak RSS {rss_mb:.1f} MB, wrote {written_mb:.1f} MB",
              file=sys.stderr)
        if rc != 0:
            print(f"error: {step} exited {rc}", file=sys.stderr)
            return 1
    for path in sorted(p for d in ARTIFACT_DIRS for p in (workspace / d).rglob("*") if p.is_file()):
        with open(path, "rb") as fh:
            digest = hashlib.file_digest(fh, "sha256").hexdigest()
        print(f"{digest}  {path.relative_to(workspace).as_posix()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
