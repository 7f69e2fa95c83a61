"""The JSON boundary of the config dataclasses, and their number checks.

:func:`from_json` builds a config dataclass from a JSON object and
:func:`to_json` writes one back, so the dataclass is the only place that
states a field, its default and its checks. In JSON, ``true`` is not a
number, ``1.5`` is not a count, ``Infinity``/``NaN`` parse as floats and
an integer may lie beyond float range, so each config's ``__post_init__``
calls :func:`check_numbers` before its range checks: a wrong value fails
naming its field. :func:`finite` is the one rule for a finite number, and
:func:`check_label` the one rule for a name used in file names and CSV
cells.
"""

from __future__ import annotations

import math
import re
from dataclasses import MISSING, fields, is_dataclass

__all__ = ["check_label", "check_numbers", "finite", "from_json", "to_json"]

_NOUNS = {
    "int": "an integer",
    "float": "a finite real number",
    "tuple[int, int]": "a pair of integers",
    "tuple[float, float]": "a pair of finite real numbers",
}


def finite(v: int | float) -> bool:
    """``math.isfinite``, where an integer beyond float range is not finite."""
    try:
        return math.isfinite(v)
    except OverflowError:
        return False


_LABEL = re.compile(r"[A-Za-z0-9_-]+")


def check_label(value, name: str) -> None:
    """Raise ValueError naming ``name`` unless ``value`` is a non-empty string
    of letters, digits, '_' and '-'."""
    if not (isinstance(value, str) and _LABEL.fullmatch(value)):
        raise ValueError(f"{name} must be a non-empty string of letters, digits, '_'"
                         f" and '-', got {value!r}")


def _is_kind(value, kind: str) -> bool:
    if isinstance(value, bool):
        return False
    if kind == "int":
        return isinstance(value, int)
    return isinstance(value, (int, float)) and finite(value)


def check_numbers(obj) -> None:
    """Check the fields of dataclass ``obj`` annotated ``int``, ``float`` or a pair of either.

    An ``int`` field takes an integer; a ``float`` field takes any finite
    real, integers included; a bool is neither. A pair field takes a tuple
    of exactly two such values. Raises ValueError naming the field.
    """
    for f in fields(obj):
        if f.type not in _NOUNS:
            continue
        value = getattr(obj, f.name)
        if f.type.startswith("tuple"):
            kind = f.type[len("tuple["):f.type.index(",")]
            ok = (isinstance(value, tuple) and len(value) == 2
                  and all(_is_kind(v, kind) for v in value))
        else:
            ok = _is_kind(value, f.type)
        if not ok:
            raise ValueError(f"{f.name} must be {_NOUNS[f.type]}, got {value!r}")


def _tuples(value):
    """JSON arrays as tuples, nested arrays included; anything else as is."""
    if isinstance(value, list):
        return tuple(_tuples(v) for v in value)
    return value


def _arguments(cls: type, obj, where: str) -> dict:
    """The constructor arguments of ``cls`` that JSON object ``obj`` gives."""
    if not isinstance(obj, dict):
        raise ValueError(f"{where} must be a JSON object, got {obj!r}")
    unknown = sorted(set(obj) - {f.name for f in fields(cls)})
    if unknown:
        raise ValueError(f"unknown {where} key(s) {', '.join(map(repr, unknown))}")
    args = {}
    for f in fields(cls):
        if f.name not in obj:
            if f.default is MISSING and f.default_factory is MISSING:
                raise KeyError(f.name)
            continue
        value = obj[f.name]
        if is_dataclass(f.default_factory):
            inner = _arguments(f.default_factory, value, f.name)
            try:
                value = f.default_factory(**inner)
            except ValueError as exc:
                raise ValueError(f"{f.name}: {exc}") from exc
        args[f.name] = _tuples(value)
    return args


def from_json(cls: type, obj, where: str):
    """Config dataclass ``cls`` from JSON object ``obj``; missing keys take their defaults.

    Raises ValueError for a non-object or a key ``cls`` has no field for
    (``unknown {where} key(s) ...``), KeyError naming a missing field
    without a default, and whatever the dataclass's checks raise. A field
    whose ``default_factory`` is a config dataclass is built from its own
    object, its checks' errors prefixed with the field's name.
    """
    return cls(**_arguments(cls, obj, where))


def _json_value(value):
    if is_dataclass(value):
        return to_json(value)
    if isinstance(value, tuple):
        return [_json_value(v) for v in value]
    return value


def to_json(obj) -> dict:
    """Config dataclass ``obj`` as a JSON object: fields in declaration order,
    tuples as arrays, nested configs as objects. :func:`from_json` inverts it."""
    return {f.name: _json_value(getattr(obj, f.name)) for f in fields(obj)}
