"""Shared desk-scale pipeline-run helper for CLI and acceptance tests.

The chain runs the README config, which the benchmark also starts from:
perfbench/workloads.py holds it as README_CONFIG, read here by file path.
"""

from __future__ import annotations

import copy
import importlib.util
import json
from pathlib import Path

from popgate.cli import main

_spec = importlib.util.spec_from_file_location(
    "_workloads", Path(__file__).resolve().parents[1] / "perfbench/workloads.py")
_workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_workloads)

CHAIN = _workloads.CHAIN


def chain_config() -> dict:
    return copy.deepcopy(_workloads.README_CONFIG)


def write_config(workspace: Path, config: dict, name: str = "run.json") -> Path:
    path = workspace / name
    path.write_text(json.dumps(config, indent=2))
    return path


def run_chain(workspace: Path, config: dict | None = None, commands=CHAIN) -> Path:
    """Run the given subcommands against a config written into `workspace`."""
    cfg_path = write_config(workspace, config or chain_config())
    for cmd in commands:
        rc = main([cmd, "--config", str(cfg_path)])
        assert rc == 0, f"{cmd} exited {rc}"
    return cfg_path
