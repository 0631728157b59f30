"""Checkpoint files: named float64 arrays plus a JSON metadata blob,
stored together in one uncompressed .npz so round-trips are bit-exact.
"""

from __future__ import annotations

import itertools
import json
import zipfile
from pathlib import Path
from typing import Mapping

import numpy as np

from ..codec import canonical_json, from_json, reading, replacing
from ..exceptions import MissingInputError, ShapeError

FORMAT_VERSION = 1
_META_KEY = "__meta__"
# what numpy and zipfile raise for bytes that are not a readable archive or member
_UNREADABLE = (zipfile.BadZipFile, EOFError, ValueError)


def save_checkpoint(path: str | Path, arrays: Mapping[str, np.ndarray], meta: dict) -> None:
    """Write arrays + metadata to `path` exactly. `meta` is stored as
    `canonical_json`, so it holds JSON values and dataclasses; keys in
    `arrays` must not collide with the reserved metadata entry.

    The file's bytes are those `np.savez` writes, but each member's data
    goes to the archive from the array's own memory, not through copies.
    Each array is looked up once, in order, and written before the next
    is looked up, so `arrays` may be a `StateArrays` that reads them all
    into one slot. The archive is written through `popgate.codec.replacing`:
    a failed write leaves whatever `path` held."""
    if _META_KEY in arrays:
        raise ValueError(f"array name {_META_KEY!r} is reserved")
    full_meta = {"format_version": FORMAT_VERSION, **meta}
    blob = canonical_json(full_meta).encode("utf-8")
    payload = itertools.chain(arrays.items(), [(_META_KEY, np.frombuffer(blob, dtype=np.uint8))])
    with replacing(path) as tmp, zipfile.ZipFile(tmp, "w") as archive:
        for key, value in payload:
            value = np.asanyarray(value)
            # as np.lib.format.write_array lays a member out: a Fortran-ordered
            # array's data in memory order, any other in C order
            fortran = value.flags.f_contiguous and not value.flags.c_contiguous
            data = value.T if fortran else np.ascontiguousarray(value)
            # zip64 always, as np.savez forces it
            with archive.open(key + ".npy", "w", force_zip64=True) as member:
                np.lib.format.write_array_header_1_0(
                    member, np.lib.format.header_data_from_array_1_0(value))
                member.write(data.reshape(-1))


def check_arrays(arrays: Mapping[str, np.ndarray], shapes: Mapping, source: str | Path) -> None:
    """Each key of `shapes` is in `arrays` with that shape; errors name
    `source` (the checkpoint path) and the key."""
    for key, shape in shapes.items():
        if key not in arrays:
            raise MissingInputError(f"{source}: no array {key!r}")
        if (have := arrays[key].shape) != shape:
            raise ShapeError(f"{source}: array {key!r} has shape {have}, the model expects {shape}")


def load_checkpoint(
    path: str | Path, prefixes: tuple[str, ...] | None = None
) -> tuple[dict[str, np.ndarray], dict]:
    """Arrays + metadata. With `prefixes`, only the arrays whose names start
    with one of them are read; the archive's other entries are never read."""
    path = Path(path)
    if not path.exists():
        raise MissingInputError(f"checkpoint not found: {path}")
    try:
        archive = np.load(path)
    except _UNREADABLE as e:  # truncated, empty or no .npz
        raise MissingInputError(f"{path} is not a readable checkpoint archive: {e}") from None
    if not isinstance(archive, np.lib.npyio.NpzFile):
        raise MissingInputError(f"{path} holds one bare .npy array, not a checkpoint archive")
    with archive as data:
        if _META_KEY not in data:
            raise MissingInputError(f"{path} is not a checkpoint (missing metadata entry)")
        blob = _member(data, _META_KEY, path).tobytes()
        with reading(path):
            meta = from_json(dict, json.loads(blob.decode("utf-8")), _META_KEY)
        version = meta.pop("format_version", None)
        if version != FORMAT_VERSION:
            raise MissingInputError(
                f"unsupported checkpoint version {version!r} in {path} "
                f"(expected {FORMAT_VERSION})"
            )
        names = [k for k in data.files
                 if k != _META_KEY and (prefixes is None or k.startswith(prefixes))]
        return {k: _member(data, k, path) for k in names}, meta


def _member(data, key: str, path: Path) -> np.ndarray:
    """One array of an open archive. A member whose bytes are corrupt (a bad
    CRC-32, a broken .npy header) is a malformed artifact named by `path`."""
    try:
        return data[key]
    except _UNREADABLE as e:
        raise MissingInputError(f"{path}: member {key!r} is unreadable: {e}") from None
