"""One JSON codec for the dataclasses of run configs and model artifacts.

`to_json` writes a dataclass field by field, leaving out a field whose
value is None. A dataclass held by a field typed as a union of dataclasses
(an `Activation`) gains a `kind` tag, its class name in snake case.
`from_json` reads a value back as a type, as strictly for an artifact as for
a config: no unknown or missing keys, no mistyped values. Its `ConfigError`s
name the key by its dotted path, such as
`train.branches.audio.activation.slope`; inside `reading(path)` they, and
JSON parse errors, become `MissingInputError`s that also name the artifact's
file. `canonical_json` and `write_json` are the two layouts of every JSON
file the program writes or hashes. Every output file, JSON, table or
checkpoint, is written through `replacing`, so that a write that fails
leaves the earlier file (or none), never a truncated one.
"""

from __future__ import annotations

import json
import os
import re
from contextlib import contextmanager
from dataclasses import MISSING, fields, is_dataclass
from pathlib import Path
from types import UnionType
from typing import Iterator, get_args, get_origin, get_type_hints

import numpy as np

from .exceptions import ConfigError, MissingInputError


def _at(where: str, key: str) -> str:
    return f"{where}.{key}" if where else key


def _tag(cls) -> str:
    return re.sub(r"(?<!^)(?=[A-Z])", "_", cls.__name__).lower()  # LeakyRelu -> leaky_relu


def _tags(tp) -> dict[str, type] | None:
    """The classes of a union of dataclasses by tag; None for any other
    type, `X | None` included."""
    members = [a for a in get_args(tp) if a is not type(None)]
    if get_origin(tp) is not UnionType or len(members) < 2:
        return None
    return {_tag(c): c for c in members}


def to_json(obj, tagged: bool = False):
    """`obj` as plain JSON values: tuples and arrays become lists, and
    `tagged` adds a dataclass's `kind`."""
    if is_dataclass(obj):
        hints = get_type_hints(type(obj))
        d = {"kind": _tag(type(obj))} if tagged else {}
        for f in fields(obj):
            value = getattr(obj, f.name)
            if value is not None:
                d[f.name] = to_json(value, _tags(hints[f.name]) is not None)
        return d
    if isinstance(obj, (tuple, list)):
        return [to_json(v) for v in obj]
    if isinstance(obj, dict):
        return {k: to_json(v) for k, v in obj.items()}
    return obj.tolist() if isinstance(obj, np.ndarray) else obj


def canonical_json(obj) -> str:
    """`to_json(obj)` as compact JSON with sorted keys: the layout that is
    hashed and that checkpoint metadata is stored in."""
    return json.dumps(to_json(obj), sort_keys=True, separators=(",", ":"))


@contextmanager
def replacing(path: str | Path) -> Iterator[Path]:
    """A temporary sibling `<name>.tmp` of `path`, for the block to write,
    after making the directory: it replaces `path` when the block ends
    without an error, and is removed when it raises."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.tmp")
    try:
        yield tmp
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write_json(path: Path, obj) -> None:
    """Write `to_json(obj)` to `path` as sorted JSON indented by 2 and ended
    by a newline, through `replacing`."""
    with replacing(path) as tmp:
        tmp.write_text(json.dumps(to_json(obj), indent=2, sort_keys=True) + "\n")


def check_object(raw, where: str, allowed) -> dict:
    """`raw` if it is a JSON object whose keys are all in `allowed`."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{where or 'the root'} must be an object, got {type(raw).__name__}")
    for k in raw:
        if k not in allowed:
            raise ConfigError(f"unknown key {_at(where, k)!r}; expected one of {sorted(allowed)}")
    return raw


def from_json(tp, value, where: str = ""):
    """`value` from JSON as type `tp`: a scalar type, Path, `dict`, a
    dataclass (see `dataclass_from_json`), `X | None`, a union tagged by
    `kind`, `tuple[X, ...]`, a fixed-length tuple or a 1-d `NDArray[dtype]`.
    Integers pass as floats, and integral floats as integers. A `value` of
    `dataclasses.MISSING` is a missing key."""
    if value is MISSING:
        raise ConfigError(f"missing key {where!r}")
    args = get_args(tp)
    if get_origin(tp) is UnionType:
        if value is None and type(None) in args:
            return None
        tags = _tags(tp)
        if tags is None:
            return from_json(args[0], value, where)
        kind = value.get("kind") if isinstance(value, dict) else None
        if not isinstance(kind, str) or kind not in tags:
            raise ConfigError(f"{where} must be an object whose kind is one of {sorted(tags)}, "
                              f"got {value!r}")
        return dataclass_from_json(tags[kind], value, where, extra=("kind",))
    if get_origin(tp) is tuple:
        n = None if args[-1] is Ellipsis else len(args)
        if not isinstance(value, (list, tuple)) or n not in (None, len(value)):
            raise ConfigError(f"{where} must be a list{f' of {n}' if n else ''}, got {value!r}")
        return tuple(from_json(args[0], v, f"{where}[{i}]") for i, v in enumerate(value))
    if get_origin(tp) is np.ndarray:  # one dimension, read as a tuple of Python scalars
        dtype = get_args(args[1])[0]
        return np.array(from_json(tuple[type(dtype(0).item()), ...], value, where), dtype)
    if is_dataclass(tp):
        return dataclass_from_json(tp, value, where)
    if tp is float and type(value) is int:
        return float(value)
    if tp is int and type(value) is float and value.is_integer():
        return int(value)
    if tp is Path and type(value) is str and value:
        return Path(value)
    if type(value) is not tp:
        raise ConfigError(f"{where or 'the root'} must be {tp.__name__}, got {value!r}")
    return value


def dataclass_from_json(cls, given, where: str, extra=()):
    """Build the dataclass `cls` from the JSON object `given`, named `where`
    in messages; the fields' types and defaults are the dataclass's own.
    `extra` keys are allowed but belong to someone else."""
    check_object(given, where, [*(f.name for f in fields(cls)), *extra])
    hints = get_type_hints(cls)
    own = {k: v for k, v in given.items() if k not in extra}
    values = {k: from_json(hints[k], v, _at(where, k)) for k, v in own.items()}
    for f in fields(cls):
        if f.name not in own and f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"missing key {_at(where, f.name)!r}")
    try:
        return cls(**values)
    except (TypeError, ValueError, ConfigError) as e:
        raise ConfigError(f"{where or cls.__name__} {json.dumps(own, sort_keys=True)}: {e}") from None


@contextmanager
def reading(source: str | Path):
    """Decode a model artifact: a `ConfigError` raised inside, or text that
    is not JSON, ends as a `MissingInputError` naming `source`."""
    try:
        yield
    except ConfigError as e:
        raise MissingInputError(f"{source}: {e}") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise MissingInputError(f"{source}: not valid JSON: {e}") from None
