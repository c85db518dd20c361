"""Dataset manifests, the synthetic gesture generator, splits and folds.

A dataset is a flat list of samples, each carrying a tracking frame and
one or two grayscale images, keyed by (subject, gesture, repetition).
On disk it is a ``dataset.json`` manifest referencing per-sample frame
JSON files and PGM images by relative path.

Real capture data is not bundled; the synthetic generator stands in for
it.  Each of the ten gesture classes is a template of canonical
fingertip offsets in a hand-local frame with a mask of extended
fingers.  A sample draws a random rigid pose (translation plus a small
rotation), adds Gaussian fingertip noise, emits the posed tracking
frame, and renders a matching binary silhouette (palm disc plus finger
capsules, orthographic projection) so the image and tracking modalities
describe the same hand.
"""

import math
import os
from dataclasses import dataclass

import numpy as np

from . import jsonio
from .errors import DataError, InsufficientData, MissingFile, ParseError, SchemaVersionMismatch
from .geometry import random_rotation
from .image import read_pgm, write_pgm
from .tracking import HandFrame, load_frame, save_frame

NUM_GESTURES = 10
MANIFEST_NAME = "dataset.json"
# Each synthetic subject's hand size is drawn uniformly from this range.
SUBJECT_SCALE_RANGE = (0.9, 1.1)
WINDOW_MM = 250.0  # a silhouette shows world x and y in [-WINDOW_MM, WINDOW_MM]


@dataclass
class Sample:
    subject: int
    gesture: int
    rep: int
    frame: HandFrame
    images: list

    def __post_init__(self):
        if not 0 <= self.gesture < NUM_GESTURES:
            raise ValueError(f"gesture id must be in [0, {NUM_GESTURES}), got {self.gesture}")
        if not 1 <= len(self.images) <= 2:
            raise ValueError("each sample carries 1 or 2 images")

    @property
    def sample_id(self):
        return f"s{self.subject:02d}_g{self.gesture}_r{self.rep:02d}"

    def sort_key(self):
        return (self.subject, self.gesture, self.rep)


# ---------------------------------------------------------------------------
# Gesture templates and synthesis


@dataclass
class GestureTemplate:
    """Canonical pose of one gesture class in the hand-local frame.

    The local frame has the palm at the origin, fingers along +y and
    the palm normal along +z.  `offsets` holds all five canonical
    fingertip positions (thumb..pinky order); only fingers flagged in
    `extended` are detected and rendered.  The middle finger (index 2)
    must always be extended because it defines the hand scale.
    """

    gesture_id: int
    offsets: np.ndarray  # (5, 3) mm
    extended: np.ndarray  # (5,) bool
    pos_noise_mm: float = 3.0
    rot_noise_rad: float = math.radians(10.0)

    def __post_init__(self):
        self.offsets = np.asarray(self.offsets, dtype=float).reshape(5, 3)
        self.extended = np.asarray(self.extended, dtype=bool).reshape(5)
        if not self.extended[2]:
            raise ValueError("the middle finger must be extended (defines the scale)")
        norms = np.linalg.norm(self.offsets[self.extended], axis=1)
        if norms.min() < 20.0 or norms.max() > 120.0:
            raise ValueError("extended fingertip offsets must lie 20-120 mm from the palm")


def _finger_layout(spread=1.0):
    """Five canonical fingertip offsets: fan of angles around +y."""
    angles_deg = np.array([55.0, 22.0, 0.0, -18.0, -38.0]) * spread
    lengths = np.array([65.0, 85.0, 95.0, 88.0, 70.0])
    offs = np.zeros((5, 3))
    for k in range(5):
        a = math.radians(angles_deg[k])
        offs[k] = (lengths[k] * math.sin(a), lengths[k] * math.cos(a), 0.0)
    return offs


def default_templates(pos_noise_mm=3.0, rot_noise_deg=10.0):
    """Ten distinguishable gesture classes over extended-finger subsets."""
    masks = [
        [0, 0, 1, 0, 0],
        [0, 1, 1, 0, 0],
        [0, 1, 1, 1, 0],
        [0, 1, 1, 1, 1],
        [1, 1, 1, 1, 1],
        [1, 0, 1, 0, 0],
        [1, 1, 1, 0, 0],
        [0, 0, 1, 0, 1],
        [1, 0, 1, 0, 1],
        [1, 1, 1, 1, 0],
    ]
    rot = math.radians(rot_noise_deg)
    templates = []
    for gid, mask in enumerate(masks):
        spread = 1.0 + 0.06 * ((gid % 3) - 1)  # mild per-class spread variation
        offs = _finger_layout(spread)
        if gid in (7, 8):  # raise the pinky side out of the palm plane
            offs[4, 2] = 25.0
        if gid in (5, 8):
            offs[0, 2] = -20.0  # thumb dips below the palm plane
        templates.append(
            GestureTemplate(
                gesture_id=gid,
                offsets=offs,
                extended=np.array(mask, dtype=bool),
                pos_noise_mm=pos_noise_mm,
                rot_noise_rad=rot,
            )
        )
    return templates


def render_silhouette(palm_center, fingertips, palm_radius_mm, finger_radius_mm, size=240):
    """Binary hand silhouette: orthographic projection onto the x-y plane.

    World coordinates in [-WINDOW_MM, WINDOW_MM] mm map onto a size x size
    canvas; the palm is a filled disc and each fingertip a capsule from
    the palm center.  Pixel (row i, column j) is tested at its center
    (j + 0.5, i + 0.5), and each shape only on the pixels of its
    bounding box widened by one pixel, since no pixel outside that box
    can pass the shape's test.  A non-finite coordinate or a negative
    or non-finite radius raises DataError.
    """
    palm_center = np.asarray(palm_center, dtype=float)
    fingertips = np.asarray(fingertips, dtype=float)
    radii = (palm_radius_mm, finger_radius_mm)
    if not (np.isfinite(palm_center).all() and np.isfinite(fingertips).all()
            and all(0.0 <= r < math.inf for r in radii)):
        raise DataError(
            f"render geometry must be finite with radii >= 0: palm {palm_center.tolist()}, "
            f"tips {fingertips.tolist()}, radii {radii}"
        )
    scale = size / (2.0 * WINDOW_MM)

    def to_px(p):
        return np.array([(p[0] + WINDOW_MM) * scale, (p[1] + WINDOW_MM) * scale])

    def window(lo, hi):
        """Canvas pixels k whose centers k + 0.5 lie in [lo, hi], widened by one."""
        return slice(max(math.ceil(lo - 0.5) - 1, 0), min(math.floor(hi - 0.5) + 2, size))

    def paint(lo, hi, inside):
        """OR `inside(xs, ys)` into the mask over the window of the box lo..hi."""
        cols, rows = window(lo[0], hi[0]), window(lo[1], hi[1])
        if cols.start < cols.stop and rows.start < rows.stop:
            xs = np.arange(cols.start, cols.stop) + 0.5
            ys = np.arange(rows.start, rows.stop)[:, None] + 0.5
            mask[rows, cols] |= inside(xs, ys)

    mask = np.zeros((size, size), dtype=bool)

    c = to_px(palm_center)
    r = palm_radius_mm * scale
    paint(c - r, c + r, lambda xs, ys: (xs - c[0]) ** 2 + (ys - c[1]) ** 2 <= r * r)

    fr = finger_radius_mm * scale
    for tip in fingertips:
        t = to_px(tip)
        seg = t - c
        seg_len2 = float(seg @ seg)
        if seg_len2 < 1e-12:
            continue

        def capsule(xs, ys):
            u = np.clip(((xs - c[0]) * seg[0] + (ys - c[1]) * seg[1]) / seg_len2, 0.0, 1.0)
            dx = xs - (c[0] + u * seg[0])
            dy = ys - (c[1] + u * seg[1])
            return dx * dx + dy * dy <= fr * fr

        paint(np.minimum(c, t) - fr, np.maximum(c, t) + fr, capsule)
    return mask.view(np.uint8) * np.uint8(255)


def generate_synthetic(
    templates=None,
    subjects=13,
    reps=20,
    seed=0,
    translation_mm=100.0,
    image_size=240,
):
    """Deterministic synthetic dataset of subjects x gestures x reps samples.

    Samples are generated in (subject, gesture, repetition) order from a
    single seeded stream with a fixed number of draws per sample, so a
    given seed always yields bit-identical data.
    """
    if templates is None:
        templates = default_templates()
    if min(subjects, reps, image_size) < 1:
        raise ValueError("subjects, reps and image_size must be >= 1")
    rng = np.random.default_rng(seed)
    samples = []
    for s in range(subjects):
        hand_scale = rng.uniform(*SUBJECT_SCALE_RANGE)
        for tpl in templates:
            middle_len = hand_scale * float(np.linalg.norm(tpl.offsets[2]))
            palm_radius = 0.40 * middle_len
            finger_radius = 0.10 * middle_len
            for r in range(reps):
                translation = rng.uniform(-translation_mm, translation_mm, size=3)
                rot = random_rotation(rng, tpl.rot_noise_rad)
                noise = rng.normal(0.0, tpl.pos_noise_mm or 0.0, size=(5, 3))
                local = tpl.offsets * hand_scale + noise
                world = translation + (rot @ local[tpl.extended].T).T
                middle_pos = int(np.sum(tpl.extended[:2]))  # rank of finger 2 among extended
                frame = HandFrame(
                    palm_center=translation,
                    palm_normal=rot @ np.array([0.0, 0.0, 1.0]),
                    hand_direction=rot @ np.array([0.0, 1.0, 0.0]),
                    fingertips=world,
                    middle_index=middle_pos,
                )
                img = render_silhouette(
                    translation, world, palm_radius, finger_radius, size=image_size
                )
                samples.append(
                    Sample(subject=s, gesture=tpl.gesture_id, rep=r, frame=frame, images=[img])
                )
    return samples


# ---------------------------------------------------------------------------
# Manifest I/O


def save_dataset(samples, out_dir):
    """Write frames, images and a dataset.json manifest under out_dir."""
    frames_dir = os.path.join(out_dir, "frames")
    images_dir = os.path.join(out_dir, "images")
    os.makedirs(frames_dir, exist_ok=True)
    os.makedirs(images_dir, exist_ok=True)
    records = []
    for sample in sorted(samples, key=Sample.sort_key):
        sid = sample.sample_id
        frame_rel = f"frames/{sid}.json"
        save_frame(sample.frame, os.path.join(out_dir, frame_rel))
        image_rels = []
        for k, img in enumerate(sample.images):
            rel = f"images/{sid}_{k}.pgm"
            write_pgm(img, os.path.join(out_dir, rel))
            image_rels.append(rel)
        records.append(
            {
                "subject": sample.subject,
                "gesture": sample.gesture,
                "rep": sample.rep,
                "frame": frame_rel,
                "images": image_rels,
            }
        )
    manifest_path = os.path.join(out_dir, MANIFEST_NAME)
    jsonio.dump_path({"version": 1, "samples": records}, manifest_path)
    return manifest_path


def load_dataset(manifest_path):
    """Load every sample referenced by a manifest.

    Any missing referenced file is a hard error naming every missing
    path, and a manifest with no samples raises InsufficientData.
    Samples come back sorted by (subject, gesture, repetition).
    """
    if os.path.isdir(manifest_path):
        manifest_path = os.path.join(manifest_path, MANIFEST_NAME)
    manifest = jsonio.load_path(manifest_path)
    if not isinstance(manifest, dict) or "samples" not in manifest:
        raise ParseError(f"{manifest_path}: not a dataset manifest")
    if manifest.get("version") != 1:
        raise SchemaVersionMismatch(
            f"unsupported manifest version {manifest.get('version')!r}"
        )

    records = _manifest_records(manifest["samples"], manifest_path)
    if not records:
        raise InsufficientData(f"{manifest_path}: the manifest lists no samples")
    base = os.path.dirname(os.path.abspath(manifest_path))
    missing = [
        rel
        for *_, frame, images in records
        for rel in [frame] + images
        if not os.path.isfile(os.path.join(base, rel))
    ]
    if missing:
        raise MissingFile("missing dataset files: " + ", ".join(missing))

    samples = []
    for subject, gesture, rep, frame_rel, image_rels in records:
        frame = load_frame(os.path.join(base, frame_rel))
        images = [read_pgm(os.path.join(base, rel)) for rel in image_rels]
        try:
            samples.append(Sample(subject, gesture, rep, frame, images))
        except ValueError as exc:  # gesture id or image count out of range
            raise ParseError(f"{manifest_path}: {exc}") from exc
    samples.sort(key=Sample.sort_key)
    return samples


def _manifest_records(records, manifest_path):
    """(subject, gesture, rep, frame path, image paths) per manifest record.

    Identifiers must be JSON integers and paths strings; anything else
    raises ParseError.
    """
    if not isinstance(records, list):
        raise ParseError(f"{manifest_path}: samples must be a list, got {records!r}")
    out = []
    for k, rec in enumerate(records):
        try:
            ids = [rec[key] for key in ("subject", "gesture", "rep")]
            frame, images = rec["frame"], rec["images"]
        except (KeyError, TypeError) as exc:
            raise ParseError(f"{manifest_path}: sample {k} is not a full record: {exc!r}") from exc
        if not all(isinstance(v, int) and not isinstance(v, bool) for v in ids):
            raise ParseError(f"{manifest_path}: sample {k} ids must be integers, got {ids!r}")
        if not isinstance(images, list) or not all(isinstance(p, str) for p in [frame] + images):
            raise ParseError(f"{manifest_path}: sample {k} paths must be strings")
        out.append((*ids, frame, images))
    return out


def dataset_summary(samples):
    """Sample counts keyed by (subject, gesture)."""
    counts = {}
    for s in samples:
        key = (s.subject, s.gesture)
        counts[key] = counts.get(key, 0) + 1
    return counts


# ---------------------------------------------------------------------------
# Splitting


def _shuffled_classes(labels, seed):
    """Row indices of each class in np.unique order, each shuffled by one
    seeded stream (one permutation draw per class)."""
    labels = np.asarray(labels)
    rng = np.random.default_rng(seed)
    for cls in np.unique(labels):
        rows = np.flatnonzero(labels == cls)
        yield rows[rng.permutation(len(rows))]


def split_indices(labels, train_fraction, seed):
    """Seeded stratified train/test index split.

    Each gesture class is shuffled separately and the first
    floor(train_fraction * n) of its n samples go to train, so every
    class keeps the same share in both parts.  Returned index arrays are
    sorted ascending.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must be in (0, 1)")
    train = []
    for rows in _shuffled_classes(labels, seed):
        train.extend(rows[: int(math.floor(train_fraction * len(rows)))].tolist())
    train_idx = np.array(sorted(train), dtype=int)
    test_mask = np.ones(len(labels), dtype=bool)
    test_mask[train_idx] = False
    return train_idx, np.flatnonzero(test_mask)


def stratified_folds(labels, folds, seed):
    """Fold index per sample: seeded shuffle within each class, then
    round-robin assignment so every fold sees every class."""
    assignment = np.empty(len(labels), dtype=int)
    for rows in _shuffled_classes(labels, seed):
        assignment[rows] = np.arange(len(rows)) % folds
    return assignment
