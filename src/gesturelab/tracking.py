"""Geometric features computed from a single hand-tracking frame.

A frame carries the palm center, two unit vectors (palm normal and the
palm-to-fingers direction) and up to five detected fingertip positions,
all in millimeters in the sensor coordinate frame.  Four feature
families are derived from it:

* ``angles``      signed in-plane fingertip angle around the palm,
                  rescaled to [0.5, 1]; empty finger slots are exactly 0
* ``distances``   fingertip-to-palm-center distance over the hand scale
* ``elevations``  signed fingertip height above the palm plane over the
                  hand scale
* ``tip_distances`` all 10 pairwise fingertip distances over the hand
                  scale, sorted ascending; pairs with a missing
                  fingertip contribute 0 so the length is always 10

The hand scale is the palm-center-to-middle-fingertip length, which
makes the normalized features invariant under translation, rotation and
uniform scaling of the hand.  Detected fingertips are not associated
with anatomical fingers by the sensor; they are assigned to the five
ordered slots by ascending signed in-plane angle, which keeps slots
stable under small hand motion.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import jsonio
from .errors import DegenerateHand, MissingMiddleFinger, ParseError

NUM_FINGERS = 5
NUM_TIP_PAIRS = NUM_FINGERS * (NUM_FINGERS - 1) // 2

# Norm below which hand geometry is treated as degenerate, in mm.  Far
# below the ~0.2 mm positional accuracy of short-range depth sensors.
DEGENERACY_TOL = 1e-9

# Span of raw fingertip angles mapped linearly onto [0.5, 1].
DEFAULT_ANGLE_RANGE = (-math.pi / 2, math.pi / 2)

_UNIT_TOL = 1e-6


@dataclass
class HandFrame:
    """One tracking snapshot: palm pose plus detected fingertips.

    ``fingertips`` is a (k, 3) array with 0 <= k <= 5 rows in detection
    order; ``middle_index`` identifies the middle fingertip among them
    when known.
    """

    palm_center: np.ndarray
    palm_normal: np.ndarray
    hand_direction: np.ndarray
    fingertips: np.ndarray
    middle_index: int | None = None

    def __post_init__(self):
        self.palm_center = np.asarray(self.palm_center, dtype=float).reshape(3)
        self.palm_normal = np.asarray(self.palm_normal, dtype=float).reshape(3)
        self.hand_direction = np.asarray(self.hand_direction, dtype=float).reshape(3)
        tips = np.asarray(self.fingertips, dtype=float)
        if tips.size == 0:
            tips = tips.reshape(0, 3)
        self.fingertips = tips.reshape(-1, 3)
        if len(self.fingertips) > NUM_FINGERS:
            raise ValueError(f"at most {NUM_FINGERS} fingertips, got {len(self.fingertips)}")
        for name in ("palm_center", "palm_normal", "hand_direction", "fingertips"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} must be finite")
        for name in ("palm_normal", "hand_direction"):
            if abs(np.linalg.norm(getattr(self, name)) - 1.0) > _UNIT_TOL:
                raise ValueError(f"{name} must be unit length")
        if self.middle_index is not None:
            self.middle_index = int(self.middle_index)
            if not 0 <= self.middle_index < len(self.fingertips):
                raise ValueError(f"middle_index {self.middle_index} out of range")


@dataclass
class TrackingFeatures:
    """Per-frame geometric feature segments plus the hand scale in mm.

    Slots without an assigned fingertip are exactly 0 in every segment;
    valid angle slots lie in [0.5, 1].
    """

    angles: np.ndarray
    distances: np.ndarray
    elevations: np.ndarray
    tip_distances: np.ndarray
    scale: float

    def vector(self, mask=None):
        """Concatenate the segments selected by `mask` (default: all)."""
        if mask is None:
            mask = FeatureMask()
        parts = [getattr(self, name) for name, _ in mask.segments()]
        if not parts:
            return np.zeros(0)
        return np.concatenate(parts)


_SEGMENTS = (
    ("angles", NUM_FINGERS),
    ("distances", NUM_FINGERS),
    ("elevations", NUM_FINGERS),
    ("tip_distances", NUM_TIP_PAIRS),
)

_SEGMENT_ALIASES = {
    "angles": "angles",
    "ang": "angles",
    "a": "angles",
    "distances": "distances",
    "dist": "distances",
    "d": "distances",
    "elevations": "elevations",
    "elev": "elevations",
    "e": "elevations",
    "tip_distances": "tip_distances",
    "tips": "tip_distances",
    "tip": "tip_distances",
    "t": "tip_distances",
}

_SEGMENT_LABELS = {
    "angles": "ang",
    "distances": "dist",
    "elevations": "elev",
    "tip_distances": "tip",
}


@dataclass(frozen=True)
class FeatureMask:
    """Selects which tracking-feature segments enter the final vector."""

    angles: bool = True
    distances: bool = True
    elevations: bool = True
    tip_distances: bool = True

    def segments(self):
        """Active (name, length) pairs in canonical order."""
        return [(name, length) for name, length in _SEGMENTS if getattr(self, name)]

    def dims(self):
        return sum(length for _, length in self.segments())

    def column_indices(self):
        """Indices of the active segments within the full 25-dim vector."""
        cols = []
        offset = 0
        for name, length in _SEGMENTS:
            if getattr(self, name):
                cols.extend(range(offset, offset + length))
            offset += length
        return np.array(cols, dtype=int)

    def label(self):
        parts = [_SEGMENT_LABELS[name] for name, _ in self.segments()]
        return "+".join(parts) if parts else "none"

    @classmethod
    def parse(cls, text):
        """Parse masks like ``"ang+dist+tip"``, ``"adt"`` or full names."""
        text = text.strip().lower()
        if text in ("", "none"):
            return cls(False, False, False, False)
        if "+" in text or "," in text:
            tokens = [t for t in text.replace(",", "+").split("+") if t]
        elif text in _SEGMENT_ALIASES:
            tokens = [text]
        else:
            tokens = list(text)  # compact initials, e.g. "adt"
        active = set()
        for token in tokens:
            if token not in _SEGMENT_ALIASES:
                raise ValueError(f"unknown feature segment {token!r}")
            active.add(_SEGMENT_ALIASES[token])
        return cls(**{name: name in active for name, _ in _SEGMENTS})


FULL_MASK = FeatureMask()


def _norm(v):
    """np.linalg.norm of a 1-D float array, bit for bit: the square root of
    the same BLAS dot, without the dispatch around it."""
    return math.sqrt(v.dot(v))


def compute_scale(frame):
    """Hand scale: distance from palm center to the middle fingertip, mm."""
    if frame.middle_index is None:
        raise MissingMiddleFinger("frame has no identified middle fingertip")
    s = _norm(frame.fingertips[frame.middle_index] - frame.palm_center)
    if s < DEGENERACY_TOL:
        raise DegenerateHand("middle fingertip coincides with the palm center")
    return s


def project_to_palm_plane(point, frame):
    """Orthogonal projection of `point` onto the palm plane."""
    return _project(np.asarray(point, dtype=float), frame)


def _project(p, frame):
    n = frame.palm_normal
    return p - (p - frame.palm_center).dot(n) * n


def signed_inplane_angle(point, frame):
    """Signed angle from the hand direction to the projected fingertip.

    The sign comes from the cross-product component along the palm
    normal; the tie at exactly pi is resolved to +pi.
    """
    return _signed_angle(np.asarray(point, dtype=float), frame)


def _signed_angle(p, frame):
    u = _project(p, frame) - frame.palm_center
    if _norm(u) < DEGENERACY_TOL:
        raise DegenerateHand("fingertip projects onto the palm center")
    h = frame.hand_direction
    # np.cross's products and differences, without its per-call axis handling.
    (h0, h1, h2), (u0, u1, u2) = h.tolist(), u.tolist()
    cross = np.array([h1 * u2 - h2 * u1, h2 * u0 - h0 * u2, h0 * u1 - h1 * u0])
    ang = math.atan2(frame.palm_normal.dot(cross), h.dot(u))
    return math.pi if ang == -math.pi else ang


def compute_angle_features(frame):
    """Angle feature per slot plus the slot -> fingertip assignment.

    Detected fingertips are ordered by ascending signed in-plane angle
    and fill the leading slots; raw angles are mapped linearly from
    DEFAULT_ANGLE_RANGE onto [0.5, 1] and clamped.  Unassigned slots are
    0 and map to None in the assignment.
    """
    lo, hi = DEFAULT_ANGLE_RANGE
    angles = np.zeros(NUM_FINGERS)
    raw = [_signed_angle(tip, frame) for tip in frame.fingertips]
    order = np.argsort(raw, kind="stable").tolist()
    for slot, tip_index in enumerate(order):
        t = (raw[tip_index] - lo) / (hi - lo)
        angles[slot] = 0.5 + 0.5 * min(max(t, 0.0), 1.0)
    return angles, order + [None] * (NUM_FINGERS - len(order))


def compute_distance_features(frame, assignment, scale):
    """Fingertip-to-palm-center distance over the hand scale, per slot."""
    distances = np.zeros(NUM_FINGERS)
    for slot, tip_index in enumerate(assignment):
        if tip_index is not None:
            distances[slot] = _norm(frame.fingertips[tip_index] - frame.palm_center) / scale
    return distances


def compute_elevation_features(frame, assignment, scale):
    """Signed fingertip offset from the palm plane over the hand scale."""
    elevations = np.zeros(NUM_FINGERS)
    for slot, tip_index in enumerate(assignment):
        if tip_index is not None:
            tip = frame.fingertips[tip_index]
            off = tip - _project(tip, frame)
            signed = np.sign(off.dot(frame.palm_normal)) * _norm(off)
            elevations[slot] = signed / scale
    return elevations


def compute_tip_distances(frame, scale):
    """All 10 pairwise fingertip distances over the scale, ascending.

    Pairs involving an undetected fingertip contribute 0, so the output
    length is always 10 and the zeros sort to the front.
    """
    values = np.zeros(NUM_TIP_PAIRS)
    tips = frame.fingertips
    pos = 0
    for i in range(len(tips)):
        for j in range(i + 1, len(tips)):
            values[pos] = _norm(tips[i] - tips[j]) / scale
            pos += 1
    values.sort()
    return values


def extract_tracking_features(frame):
    """Compute every feature segment for one frame.

    A frame with no fingertips yields all-zero features (with a neutral
    scale of 1.0, since nothing is normalized); a frame with fingertips
    but no identified middle finger raises MissingMiddleFinger.
    """
    if len(frame.fingertips) == 0:
        return TrackingFeatures(
            angles=np.zeros(NUM_FINGERS),
            distances=np.zeros(NUM_FINGERS),
            elevations=np.zeros(NUM_FINGERS),
            tip_distances=np.zeros(NUM_TIP_PAIRS),
            scale=1.0,
        )
    scale = compute_scale(frame)
    angles, assignment = compute_angle_features(frame)
    return TrackingFeatures(
        angles=angles,
        distances=compute_distance_features(frame, assignment, scale),
        elevations=compute_elevation_features(frame, assignment, scale),
        tip_distances=compute_tip_distances(frame, scale),
        scale=scale,
    )


def frame_to_dict(frame):
    return {
        "palm_center": frame.palm_center.tolist(),
        "palm_normal": frame.palm_normal.tolist(),
        "hand_direction": frame.hand_direction.tolist(),
        "fingertips": frame.fingertips.tolist(),
        "middle_index": frame.middle_index,
    }


def frame_from_dict(data):
    try:
        return HandFrame(
            palm_center=data["palm_center"],
            palm_normal=data["palm_normal"],
            hand_direction=data["hand_direction"],
            fingertips=data["fingertips"],
            middle_index=data.get("middle_index"),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"invalid hand frame record: {exc}") from exc


def load_frame(path):
    """Read a single hand frame from a JSON file."""
    return frame_from_dict(jsonio.load_path(path))


def save_frame(frame, path):
    jsonio.dump_path(frame_to_dict(frame), path)
