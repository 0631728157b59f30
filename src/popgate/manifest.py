"""Run manifests: a machine-readable record tying outputs to their inputs.

Each subcommand writes one manifest naming the exact config (by hash), the
seed, and the SHA-256 of every input and output file. Manifests contain no
timestamps or host details, so re-running with identical config and inputs
reproduces them byte for byte.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

from .codec import canonical_json, write_json
from .exceptions import MissingInputError

MANIFEST_DIR = "manifests"


def config_hash(config: dict) -> str:
    return hashlib.sha256(canonical_json(config).encode("utf-8")).hexdigest()


def file_sha256(path: str | Path) -> str:
    path = Path(path)
    if not path.exists():
        raise MissingInputError(f"cannot hash missing file: {path}")
    if not path.is_file():
        raise MissingInputError(f"cannot hash {path}: not a file")
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def hash_files(workspace: str | Path, files: dict[str, str | Path]) -> dict[str, dict]:
    """Each named file's manifest entry: its path relative to `workspace`
    (or as given, when outside it) and its SHA-256."""
    workspace = Path(workspace)
    entries = {}
    for name, path in sorted(files.items()):
        path = Path(path)
        try:
            rel = str(path.relative_to(workspace))
        except ValueError:
            rel = str(path)
        entries[name] = {"path": rel, "sha256": file_sha256(path)}
    return entries


def write_manifest(
    workspace: str | Path,
    subcommand: str,
    config: dict,
    seed: int,
    inputs: dict[str, dict],
    outputs: dict[str, str | Path],
) -> Path:
    """Write manifests/<subcommand>.manifest.json from the `inputs` entries
    that `hash_files` made before the step ran (a step may write over its
    own input) and the hashes of the `outputs` it wrote."""
    workspace = Path(workspace)
    body = {
        "subcommand": subcommand,
        "seed": seed,
        "config_sha256": config_hash(config),
        "inputs": inputs,
        "outputs": hash_files(workspace, outputs),
    }
    out_path = workspace / MANIFEST_DIR / f"{subcommand}.manifest.json"
    write_json(out_path, body)
    return out_path
