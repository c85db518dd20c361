"""JSON serialization with explicit float formatting.

Floats are written with 17 significant digits so serialized models
round-trip bit-exactly through text (``float(format(x, ".17g")) == x``
for every finite double).  Negative zero is written as ``-0.0``: the
shorter ``-0`` would read back as the integer 0 and lose its sign.
"""

import json
import math

import numpy as np

from .errors import MissingFile, ParseError


def dumps(obj):
    """Serialize `obj` to a compact JSON string with 17-significant-digit floats."""
    parts = []
    _encode(obj, parts)
    return "".join(parts)


def dump_path(obj, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(obj))
        fh.write("\n")


def load_path(path):
    """Parse a UTF-8 JSON file.

    A missing file raises MissingFile; undecodable or malformed content
    raises ParseError.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise MissingFile(f"file not found: {path}") from exc
    except ValueError as exc:  # json.JSONDecodeError or UnicodeDecodeError
        raise ParseError(f"{path}: {exc}") from exc


def _encode(obj, parts):
    if obj is None:
        parts.append("null")
    elif obj is True:
        parts.append("true")
    elif obj is False:
        parts.append("false")
    elif isinstance(obj, str):
        parts.append(json.dumps(obj))
    elif isinstance(obj, (float, np.floating)):
        x = float(obj)
        if not math.isfinite(x):
            raise ValueError(f"cannot serialize non-finite float {x!r}")
        text = format(x, ".17g")
        parts.append("-0.0" if text == "-0" else text)
    elif isinstance(obj, (int, np.integer)):
        parts.append(str(int(obj)))
    elif isinstance(obj, np.ndarray):
        _encode(obj.tolist(), parts)
    elif isinstance(obj, dict):
        parts.append("{")
        for i, (key, value) in enumerate(obj.items()):
            if i:
                parts.append(",")
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {key!r}")
            parts.append(json.dumps(key))
            parts.append(":")
            _encode(value, parts)
        parts.append("}")
    elif isinstance(obj, (list, tuple)):
        parts.append("[")
        for i, value in enumerate(obj):
            if i:
                parts.append(",")
            _encode(value, parts)
        parts.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} to JSON")
