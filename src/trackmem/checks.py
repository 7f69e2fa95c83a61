"""Type checks for the numeric fields of the config dataclasses.

Configs arrive as JSON, where ``true`` is not a number, ``1.5`` is not a
count and ``Infinity``/``NaN`` parse as floats. Each config's
``__post_init__`` calls :func:`check_numbers` before its range checks, so
a wrong value fails naming its field instead of passing silently or
failing later with a message about something else.
"""

from __future__ import annotations

import math
from dataclasses import fields

__all__ = ["check_numbers"]

_NOUNS = {
    "int": "an integer",
    "float": "a finite real number",
    "tuple[int, int]": "a pair of integers",
    "tuple[float, float]": "a pair of finite real numbers",
}


def _is_kind(value, kind: str) -> bool:
    if isinstance(value, bool):
        return False
    if kind == "int":
        return isinstance(value, int)
    return isinstance(value, (int, float)) and math.isfinite(value)


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
