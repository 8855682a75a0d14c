"""One JSON codec for the runtime's persisted records.

:class:`~repro.runtime.jobs.JobSpec`, :class:`~repro.runtime.sweep.
SweepSpec`, :class:`~repro.runtime.jobs.BatchReport` and
:class:`~repro.runtime.metrics.PassMetrics` are dataclasses whose
``to_dict`` / ``from_dict`` (and the counter sums of ``PassMetrics.merge``)
are derived from ``dataclasses.fields`` and the type hints, resolved
once per class, instead of being written out field by field.  Field
metadata carries the few per-field rules the persisted formats have:

* :func:`rounded` — a float, or the float values of a dict, is written
  rounded to that many digits;
* :func:`then` — derived properties (hit rates, ``workers_used``)
  written right after the field; decoding ignores them.

Decoding casts every value to its annotated type, so a record written
by another process or an older version loads the same way: a missing
key takes the field default and ``None`` stays ``None`` for optional
fields.
"""

from __future__ import annotations

import dataclasses
import types
import typing
from functools import lru_cache
from typing import Any

__all__ = ["Record", "decode", "encode", "merge", "rounded", "then"]


def rounded(digits: int) -> dict:
    """Field metadata: write floats rounded to *digits*."""
    return {"round": digits}


def then(*names: str, digits: int | None = None) -> dict:
    """Field metadata: write properties *names* right after this field."""
    return {"then": names, "then_round": digits}


@lru_cache(maxsize=None)
def _fields(cls: type) -> tuple[tuple[dataclasses.Field, Any], ...]:
    hints = typing.get_type_hints(cls)
    return tuple((spec, hints[spec.name]) for spec in dataclasses.fields(cls))


def encode(record) -> dict:
    """Plain-JSON dict of *record*, in field order."""
    data = {}
    for spec, _ in _fields(type(record)):
        value = getattr(record, spec.name)
        data[spec.name] = _encode(value, spec.metadata.get("round"))
        digits = spec.metadata.get("then_round")
        for name in spec.metadata.get("then", ()):
            value = getattr(record, name)
            data[name] = value if digits is None else round(value, digits)
    return data


def _encode(value, digits: int | None):
    if dataclasses.is_dataclass(value):
        return encode(value)
    if isinstance(value, dict):
        # JSON object keys are strings; convert here so to_dict() already
        # equals its JSON round trip (slot numbers, for instance).
        return {str(key): _encode(item, digits) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_encode(item, digits) for item in value]
    if digits is not None and isinstance(value, float):
        return round(value, digits)
    return value


def decode(cls: type, data: dict):
    """Inverse of :func:`encode`; keys that are not fields are ignored."""
    kwargs = {}
    for spec, hint in _fields(cls):
        if spec.name not in data:
            continue
        value = data[spec.name]
        if dataclasses.is_dataclass(hint) and not isinstance(value, dict):
            continue  # a nested record that is not an object keeps its default
        else:
            kwargs[spec.name] = _decode(hint, value)
    return cls(**kwargs)


def _decode(hint, value):
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        if value is None:
            return None
        (inner,) = [arg for arg in args if arg is not type(None)]
        return _decode(inner, value)
    if dataclasses.is_dataclass(hint):
        return decode(hint, value)
    if origin is tuple:
        return tuple(_decode(args[0], item) for item in value)
    if origin is list:
        return [_decode(args[0], item) for item in value]
    if origin is dict:
        key_hint, value_hint = args
        return {
            _decode(key_hint, key): _decode(value_hint, item)
            for key, item in value.items()
        }
    if hint in (str, int, float, bool, dict):
        return hint(value)
    return value


def merge(into, other) -> None:
    """Add every int field and every dict field of *other* into *into*,
    merging nested records the same way."""
    for spec, hint in _fields(type(into)):
        theirs = getattr(other, spec.name)
        if hint is int:
            setattr(into, spec.name, getattr(into, spec.name) + theirs)
        elif typing.get_origin(hint) is dict:
            mine = getattr(into, spec.name)
            for key, count in theirs.items():
                mine[key] = mine.get(key, 0) + count
        elif dataclasses.is_dataclass(hint):
            merge(getattr(into, spec.name), theirs)


class Record:
    """Mixin giving a dataclass the codec's ``to_dict`` / ``from_dict``."""

    def to_dict(self) -> dict:
        return encode(self)

    @classmethod
    def from_dict(cls, data: dict):
        return decode(cls, data)
