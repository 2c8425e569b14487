"""Deterministic JSON/CSV emission with 17-significant-digit floats.

The stdlib json module prints shortest-roundtrip floats; output files here
are part of the reproducibility contract, so floats are always written with
17 significant digits and keys keep insertion order.  A table of floats
(equal-length rows, such as a configuration's centers) is checked finite and
has -0.0 made 0 once for the whole table, then each row is formatted with
one "%.17g" template: the text of encoding each entry with format_float.
"""

from __future__ import annotations

import math
from itertools import chain

import numpy as np


def format_float(x: float) -> str:
    if isinstance(x, bool):  # bool is an int subclass; keep it out of here
        raise TypeError("bool is not a float")
    if math.isnan(x) or math.isinf(x):
        raise ValueError(f"non-finite float {x!r} in output")
    if x == 0.0:
        return "0"  # normalize negative zero
    return format(float(x), ".17g")


#: Spaces per nesting level of the JSON text.
_INDENT = 2


def _float_rows(obj) -> list | None:
    """obj's rows as Python floats, -0.0 made 0, if obj is a finite table of
    floats (numpy float64 too, never bool); else None."""
    if (not set(map(type, obj)) <= {list, tuple} or len(set(map(len, obj))) != 1
            or not all(issubclass(t, float) for t in set(map(type, chain.from_iterable(obj))))):
        return None
    table = np.fromiter(chain.from_iterable(obj), float, len(obj) * len(obj[0]))
    if not np.isfinite(table).all():
        return None
    return (table + 0.0).reshape(len(obj), len(obj[0])).tolist()


def _encode(obj, parts, level):
    pad = " " * (_INDENT * level)
    pad_in = " " * (_INDENT * (level + 1))
    if isinstance(obj, dict):
        if not obj:
            parts.append("{}")
            return
        parts.append("{\n")
        for i, (key, val) in enumerate(obj.items()):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be str, got {key!r}")
            parts.append(f'{pad_in}"{key}": ')
            _encode(val, parts, level + 1)
            parts.append(",\n" if i < len(obj) - 1 else "\n")
        parts.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            parts.append("[]")
            return
        if all(isinstance(v, float) for v in obj):  # numpy float64 too, never bool
            parts.append("[" + ", ".join(map(format_float, obj)) + "]")
            return
        flat = all(isinstance(v, (int, float, str, bool)) or v is None for v in obj)
        if flat:
            parts.append("[")
            for i, val in enumerate(obj):
                _encode(val, parts, level)
                if i < len(obj) - 1:
                    parts.append(", ")
            parts.append("]")
        elif (rows := _float_rows(obj)) is not None:
            row = "[" + ", ".join(["%.17g"] * len(rows[0])) + "]"
            parts.append("[\n" + pad_in + f",\n{pad_in}".join([row % tuple(r) for r in rows])
                         + "\n" + pad + "]")
        else:
            parts.append("[\n")
            for i, val in enumerate(obj):
                parts.append(pad_in)
                _encode(val, parts, level + 1)
                parts.append(",\n" if i < len(obj) - 1 else "\n")
            parts.append(pad + "]")
    elif isinstance(obj, bool):
        parts.append("true" if obj else "false")
    elif isinstance(obj, int):
        parts.append(str(obj))
    elif isinstance(obj, float):
        parts.append(format_float(obj))
    elif isinstance(obj, str):
        escaped = (
            obj.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
        )
        parts.append(f'"{escaped}"')
    elif obj is None:
        parts.append("null")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}: {obj!r}")


def dump_json(obj) -> str:
    """Serialize to JSON text with .17g floats; trailing newline included."""
    parts = []
    _encode(obj, parts, 0)
    parts.append("\n")
    return "".join(parts)


def csv_cell(value) -> str:
    if isinstance(value, float):
        return format_float(value)
    return str(value)


def dump_csv(header, rows) -> str:
    """CSV text with .17g floats, comma separator, trailing newline."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(csv_cell(v) for v in row))
    return "\n".join(lines) + "\n"
