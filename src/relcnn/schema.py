"""The typed reader of every file schema.

Config-file sections, grid files, synth specs and checkpoint meta are each
a dataclass, read key by key against its type hints.  A value that does
not fit is a ``SchemaError`` whose message starts with where it was read.
"""

from __future__ import annotations

import json
from dataclasses import is_dataclass
from enum import Enum
from pathlib import Path
from types import UnionType
from typing import get_args, get_origin, get_type_hints

from .corpus import read_text


class SchemaError(ValueError):
    """A value that does not fit its schema; the message names where it was read."""


def read_json(path: Path):
    try:
        return json.loads(read_text(path))
    except (json.JSONDecodeError, RecursionError) as exc:
        raise SchemaError(f"{path}: invalid JSON: {exc}") from None


def typed(value, tp, where: str, required: bool = False):
    """`value` as the field type `tp`: int, float, str, an enum, a dataclass,
    `X | None` or a tuple of those.

    An int is a valid float and is read as one, so `1` and `1.0` give the
    same setting; a bool is neither.  A string stands for a tuple
    of ints as comma-separated sizes, as in `--windows 3,4,5`.  An enum takes
    one of its values and a dataclass an object of its fields, every field
    when `required`.
    """
    if isinstance(tp, UnionType):  # X | None
        if value is None:
            return None
        (tp,) = [arg for arg in get_args(tp) if arg is not type(None)]
    if get_origin(tp) is tuple:
        args = get_args(tp)
        if isinstance(value, str) and args[0] is int:
            try:
                value = [int(p) for p in value.split(",") if p]
            except ValueError:
                raise SchemaError(f"{where}: bad sizes {value!r}; expected e.g. '3,4,5'") from None
        if not isinstance(value, (list, tuple)):
            raise SchemaError(f"{where}: expected a list, got {value!r}")
        if args[-1] is Ellipsis:
            args = args[:1] * len(value)
        elif len(value) != len(args):
            raise SchemaError(f"{where}: expected {len(args)} items, got {value!r}")
        return tuple(typed(v, arg, where, required) for v, arg in zip(value, args))
    if is_dataclass(tp):
        return tp(**typed_fields(tp, value, where, required))
    if isinstance(tp, type) and issubclass(tp, Enum):
        values = [member.value for member in tp]
        if value not in values:
            raise SchemaError(f"{where}: expected one of {', '.join(values)}, got {value!r}")
        return tp(value)
    if isinstance(value, bool) or not isinstance(value, (int, float) if tp is float else tp):
        raise SchemaError(f"{where}: expected {tp.__name__}, got {value!r}")
    return float(value) if tp is float else value


def typed_fields(cls, values, source: str, required: bool = False) -> dict:
    """`values` checked key by key against the fields of dataclass `cls`; with
    `required`, every field must be given."""
    hints = get_type_hints(cls)
    if not isinstance(values, dict):
        raise SchemaError(f"{source}: expected an object with keys {', '.join(hints)}, got {values!r}")
    unknown = sorted(set(values) - set(hints))
    if unknown:
        raise SchemaError(f"{source}: unknown keys {', '.join(unknown)} (expected {', '.join(hints)})")
    missing = [k for k in hints if k not in values] if required else []
    if missing:
        raise SchemaError(f"{source}: missing keys {', '.join(missing)}")
    return {k: typed(v, hints[k], f"{source}: {k}", required) for k, v in values.items()}
