"""Compact JSON files with typed load errors.

Writers hand in plain Python values (lists from ``.tolist()``, ``float``,
``int``).  Floats are written as ``repr`` writes them: the shortest text
that reads back to the same double, so save/load round-trips are
bit-exact, whole-number floats stay floats (``1.0``, not ``1``) and
negative zero stays ``-0.0``.  NaN and infinity raise ValueError.
Readers take numbers through `number`, `integer` and `numbers`, which
refuse strings and booleans where JSON numbers belong.  `read_bytes`
reads any input file, JSON or not, with typed errors.
"""

import itertools
import json

import numpy as np

from .errors import DataError, MissingFile, ParseError


def dumps(obj):
    """`obj` as compact JSON; a NaN or infinite float raises ValueError."""
    return json.dumps(obj, separators=(",", ":"), allow_nan=False)


def dump_path(obj, path):
    """Write `obj` to `path` as one JSON line; a value `dumps` refuses leaves the file untouched."""
    text = dumps(obj) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def read_bytes(path, what="file"):
    """The bytes of the file at `path`.

    A missing file raises MissingFile; any other OSError (a directory, a
    file that may not be read) raises DataError.  `what` names the file
    in the message.
    """
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except FileNotFoundError as exc:
        raise MissingFile(f"{what} not found: {path}") from exc
    except OSError as exc:
        raise DataError(f"cannot read {what} {path}: {exc.strerror or exc}") from exc


def load_path(path):
    """Parse a UTF-8 JSON file.

    A file that cannot be read raises as `read_bytes` does; undecodable
    or malformed content raises ParseError.
    """
    try:  # the bytes are freed before parsing, as json.load does
        return json.loads(read_bytes(path).decode("utf-8"))
    except ValueError as exc:  # json.JSONDecodeError or UnicodeDecodeError
        raise ParseError(f"{path}: {exc}") from exc


def number(value):
    """A JSON number as a float; a bool, string or any other value raises TypeError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def integer(value):
    """A JSON integer; a bool, float, string or any other value raises TypeError."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def numbers(value, ndim):
    """JSON arrays of numbers nested `ndim` deep as a float array.

    An element that is a bool, a string or any other non-number raises
    TypeError, as does a number where an array belongs; ragged rows
    raise ValueError.
    """
    leaves = value
    for _ in range(ndim - 1):
        leaves = itertools.chain.from_iterable(leaves)
    for kind in set(map(type, leaves)):
        if issubclass(kind, bool) or not issubclass(kind, (int, float)):
            raise TypeError(f"expected numbers, got a {kind.__name__}")
    return np.asarray(value, dtype=float)
