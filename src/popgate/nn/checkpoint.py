"""Checkpoint files: named float64 arrays plus a JSON metadata blob,
stored together in one uncompressed .npz so round-trips are bit-exact.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Mapping

import numpy as np

from ..codec import from_json, reading
from ..exceptions import MissingInputError, ShapeError

FORMAT_VERSION = 1
_META_KEY = "__meta__"


def save_checkpoint(path: str | Path, arrays: dict[str, np.ndarray], meta: dict) -> None:
    """Write arrays + metadata. `meta` must be JSON-serializable; keys in
    `arrays` must not collide with the reserved metadata entry."""
    if _META_KEY in arrays:
        raise ValueError(f"array name {_META_KEY!r} is reserved")
    full_meta = {"format_version": FORMAT_VERSION, **meta}
    blob = json.dumps(full_meta, sort_keys=True, separators=(",", ":")).encode("utf-8")
    payload = dict(arrays)
    payload[_META_KEY] = np.frombuffer(blob, dtype=np.uint8)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez(path, **payload)
    # np.savez appends .npz when missing; keep the caller's exact path.
    written = path if path.suffix == ".npz" else path.with_name(path.name + ".npz")
    if written != path:
        written.replace(path)


def check_arrays(arrays: Mapping[str, np.ndarray], shapes: Mapping, source: str | Path) -> None:
    """Each key of `shapes` is in `arrays` with that shape; errors name
    `source` (the checkpoint path) and the key."""
    for key, shape in shapes.items():
        if key not in arrays:
            raise MissingInputError(f"{source}: no array {key!r}")
        if arrays[key].shape != shape:
            raise ShapeError(
                f"{source}: array {key!r} has shape {arrays[key].shape}, the model expects {shape}"
            )


def load_checkpoint(
    path: str | Path, prefixes: tuple[str, ...] | None = None
) -> tuple[dict[str, np.ndarray], dict]:
    """Arrays + metadata. With `prefixes`, only the arrays whose names start
    with one of them are read; the archive's other entries are never read."""
    path = Path(path)
    if not path.exists():
        raise MissingInputError(f"checkpoint not found: {path}")
    with np.load(path) as data:
        if _META_KEY not in data:
            raise ValueError(f"{path} is not a checkpoint (missing metadata entry)")
        with reading(path):
            meta = from_json(dict, json.loads(data[_META_KEY].tobytes().decode("utf-8")),
                             _META_KEY)
        version = meta.pop("format_version", None)
        if version != FORMAT_VERSION:
            raise ValueError(
                f"unsupported checkpoint version {version!r} in {path} "
                f"(expected {FORMAT_VERSION})"
            )
        # each access reads a fresh array from the archive; no copy needed
        arrays = {
            k: data[k]
            for k in data.files
            if k != _META_KEY and (prefixes is None or k.startswith(prefixes))
        }
    return arrays, meta
