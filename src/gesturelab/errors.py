"""Exception types shared across the package.

The CLI maps these onto exit codes: configuration problems exit 1, data
problems exit 2, numerical failures exit 3.
"""


class GestureLabError(Exception):
    """Base class for all gesturelab errors."""


class ConfigError(GestureLabError):
    """Malformed configuration file, unknown option, or invalid value."""


class DataError(GestureLabError):
    """Base class for dataset, frame, and image input errors."""


class MissingMiddleFinger(DataError):
    """Frame has fingertips but none identified as the middle finger."""


class DegenerateHand(DataError):
    """Hand geometry too degenerate to normalize (near-zero lengths)."""


class MapSizeMismatch(DataError):
    """Undistortion map grid cannot cover the requested output size."""


class GeometryError(DataError):
    """Image dimensions incompatible with the requested descriptor geometry."""


class LayoutMismatch(DataError):
    """Feature segments disagree with the configured fusion layout."""


class DimensionMismatch(DataError):
    """Vector or matrix dimensions disagree with the fitted model."""


class DegenerateData(DataError):
    """Data carries no variance (all rows identical)."""


class SingleClassData(DataError):
    """A binary training set contains only one label."""


class InsufficientData(DataError):
    """Too few samples per class for the requested protocol."""


class ParseError(DataError):
    """File could not be parsed against its schema."""


class MissingFile(DataError):
    """Referenced data files do not exist; message lists every path."""


class SchemaVersionMismatch(DataError):
    """Serialized file carries an unsupported schema version."""


class NumericalError(GestureLabError):
    """Base class for numerical failures."""
