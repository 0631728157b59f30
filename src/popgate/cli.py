"""Command-line entry point.

Usage: ``popgate <subcommand> --config run.json [--seed N] [--workspace DIR]``.
Every option can also come from the environment (POPGATE_CONFIG,
POPGATE_SEED, POPGATE_WORKSPACE) or from top-level config keys; flags win
over the environment, which wins over the config file. Exit codes: 0 ok,
1 generic failure, 2 missing input, 3 bad config, 4 shape mismatch.

Every process runs BLAS on one thread, whatever the caller's environment
says: a product split over more threads sums in another order, and the
artifacts' last bits would depend on the thread count. The steps that have
independent work spread it over the cores themselves (`popgate.lanes`).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# before anything imports numpy: BLAS reads these once, when it loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from .exceptions import ConfigError, MissingInputError, PopgateError  # noqa: E402
from .pipeline import DEFAULT_SEED, SUBCOMMANDS, run_command  # noqa: E402

_DESCRIPTIONS = {
    "synth": "generate a synthetic catalog with planted cross-modal structure",
    "clean": "filter the catalog and normalize lyrics",
    "split": "stratified train/test assignment by popularity bin",
    "ctd-extract": "turn raw listening events into per-track CTD features",
    "ae-train": "train the per-group audio compression autoencoders",
    "compress": "apply trained autoencoders to a feature matrix",
    "train-phase1": "train each modality branch on its own",
    "train-phase2": "joint fine-tune with the learnable gate",
    "predict": "write per-track predictions and gate weights",
    "evaluate": "score predictions against held-out popularity",
    "gate-report": "summarize the gate weights predict wrote, optionally per decade",
}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="path to the run config (JSON)")
    common.add_argument("--seed", type=int, help=f"base RNG seed (default {DEFAULT_SEED})")
    common.add_argument("--workspace", help="root for relative paths (default: config dir)")

    parser = argparse.ArgumentParser(
        prog="popgate",
        description="multimodal music-popularity pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="subcommand")
    for name in SUBCOMMANDS:
        sub.add_parser(name, parents=[common], help=_DESCRIPTIONS[name])
    return parser


def _env(name: str) -> str | None:
    v = os.environ.get(name)
    return v if v else None


def _as_int(value, what: str) -> int:
    try:
        return int(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{what} must be an integer, got {value!r}") from None


def _load_config(args) -> tuple[dict, Path]:
    config_path = args.config or _env("POPGATE_CONFIG")
    if not config_path:
        raise ConfigError("no config given: pass --config PATH or set POPGATE_CONFIG")
    path = Path(config_path)
    if not path.is_file():
        raise MissingInputError(f"config file not found: {path}")
    try:
        config = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path} is not valid JSON: {e}") from None
    if not isinstance(config, dict):
        raise ConfigError(f"{path}: config root must be a JSON object")
    return config, path


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config, config_path = _load_config(args)

        if args.seed is not None:
            seed = args.seed
        elif _env("POPGATE_SEED"):
            seed = _as_int(_env("POPGATE_SEED"), "POPGATE_SEED")
        else:
            seed = _as_int(config.get("seed", DEFAULT_SEED), "config key 'seed'")

        configured = config.get("workspace")
        if configured is not None and type(configured) is not str:
            raise ConfigError(f"config key 'workspace' must be a string, got {configured!r}")
        workspace = args.workspace or _env("POPGATE_WORKSPACE") or configured or config_path.parent
        summary = run_command(args.command, config, workspace, seed)
    except PopgateError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.exit_code
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    print(summary)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
