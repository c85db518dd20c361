"""Compact JSON files with typed load errors.

Writers hand in plain Python values (lists from ``.tolist()``, ``float``,
``int``).  Floats are written as ``repr`` writes them: the shortest text
that reads back to the same double, so save/load round-trips are
bit-exact, whole-number floats stay floats (``1.0``, not ``1``) and
negative zero stays ``-0.0``.  NaN and infinity raise ValueError.
"""

import json

from .errors import MissingFile, ParseError


def dumps(obj):
    """`obj` as compact JSON; a NaN or infinite float raises ValueError."""
    return json.dumps(obj, separators=(",", ":"), allow_nan=False)


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
