"""Deterministic JSON rendering for report documents.

``json.dumps`` leaves float formatting to ``repr``; reports instead fix every
float at 17 significant digits so that identical inputs produce byte-identical
output files.  Dict keys keep insertion order (the schemas fix it).
"""

from __future__ import annotations

import json

import numpy as np

__all__ = ["dumps", "SchemaError"]


class SchemaError(ValueError):
    """Malformed input document; the message names the offending field."""


def _render(obj, parts: list) -> None:
    if isinstance(obj, dict):
        parts.append("{")
        for i, (key, val) in enumerate(obj.items()):
            if i:
                parts.append(", ")
            parts.append(json.dumps(str(key)))
            parts.append(": ")
            try:
                _render(val, parts)
            except ValueError as exc:
                raise ValueError(f"{key}: {exc}") from None
        parts.append("}")
    elif isinstance(obj, (list, tuple)):
        parts.append("[")
        for i, val in enumerate(obj):
            if i:
                parts.append(", ")
            _render(val, parts)
        parts.append("]")
    elif isinstance(obj, (bool, np.bool_)):
        parts.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        parts.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        x = float(obj)
        if not np.isfinite(x):
            raise ValueError(f"cannot serialize non-finite number {x!r}")
        parts.append(format(x, ".17g"))
    elif isinstance(obj, str):
        parts.append(json.dumps(obj))
    elif obj is None:
        parts.append("null")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps(obj) -> str:
    """Render a document with 17-significant-digit numbers and a trailing newline."""
    parts: list = []
    _render(obj, parts)
    return "".join(parts) + "\n"
