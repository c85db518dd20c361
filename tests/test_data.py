import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import synth_digests
from gesturelab.data import (
    GestureTemplate,
    Sample,
    dataset_summary,
    default_templates,
    generate_synthetic,
    load_dataset,
    render_silhouette,
    save_dataset,
    split_indices,
)
from gesturelab.errors import (
    DataError,
    InsufficientData,
    MissingFile,
    ParseError,
    SchemaVersionMismatch,
)
from gesturelab.image import UndistortionMap, read_pgm
from gesturelab.jsonio import dump_path, load_path
from gesturelab.tracking import FeatureMask, extract_tracking_features
from oracles import render_loops

ADT = FeatureMask.parse("ang+dist+tip")


# ---------------------------------------------------------------------------
# Templates


def test_default_templates_are_ten_distinct_masks():
    templates = default_templates()
    assert len(templates) == 10
    masks = {tuple(t.extended.tolist()) for t in templates}
    assert len(masks) == 10
    assert all(t.extended[2] for t in templates)


def test_template_requires_middle_finger():
    offs = np.tile([0.0, 90.0, 0.0], (5, 1))
    with pytest.raises(ValueError):
        GestureTemplate(0, offs, [1, 1, 0, 1, 1])


def test_template_offset_bounds():
    offs = np.tile([0.0, 200.0, 0.0], (5, 1))
    with pytest.raises(ValueError):
        GestureTemplate(0, offs, [1, 1, 1, 1, 1])


# ---------------------------------------------------------------------------
# Generation


def test_generation_shape_and_ids():
    samples = generate_synthetic(subjects=3, reps=4, seed=5)
    assert len(samples) == 3 * 10 * 4
    counts = dataset_summary(samples)
    assert len(counts) == 30
    assert set(counts.values()) == {4}
    assert samples[0].sample_id == "s00_g0_r00"


def test_generation_deterministic():
    a = generate_synthetic(subjects=2, reps=2, seed=42)
    b = generate_synthetic(subjects=2, reps=2, seed=42)
    for x, z in zip(a, b):
        assert np.array_equal(x.frame.fingertips, z.frame.fingertips)
        assert np.array_equal(x.images[0], z.images[0])
    c = generate_synthetic(subjects=2, reps=2, seed=43)
    assert not np.array_equal(a[0].frame.fingertips, c[0].frame.fingertips)


def test_zero_noise_reps_have_identical_features():
    templates = default_templates(pos_noise_mm=0.0, rot_noise_deg=0.0)
    samples = generate_synthetic(templates, subjects=1, reps=3, seed=9)
    by_gesture = {}
    for s in samples:
        by_gesture.setdefault(s.gesture, []).append(s)
    for reps in by_gesture.values():
        base = extract_tracking_features(reps[0].frame).vector()
        for other in reps[1:]:
            vec = extract_tracking_features(other.frame).vector()
            assert np.abs(base - vec).max() < 1e-9


def test_images_consistent_with_frames():
    samples = generate_synthetic(subjects=1, reps=2, seed=3)
    for s in samples:
        img = s.images[0]
        assert img.shape == (240, 240)
        assert set(np.unique(img)) <= {0, 255}
        assert (img > 0).sum() > 100  # a hand is actually drawn
        # more extended fingers -> more foreground, loosely: check middle-only
        # gesture is smaller than the open palm
    area = {s.gesture: (s.images[0] > 0).sum() for s in samples}
    assert area[0] < area[4]


def test_generation_rejects_empty_images():
    for size in (0, -3):
        with pytest.raises(ValueError):
            generate_synthetic(subjects=1, reps=1, image_size=size)


def test_synthesis_matches_committed_digests():
    record = json.loads(synth_digests.DIGEST_PATH.read_text())
    assert synth_digests.compute() == record["cases"], (
        f"synthesized bytes differ from {synth_digests.DIGEST_PATH.name}, written with numpy "
        f"{record['numpy']} (this is numpy {np.__version__}); if the change is intended, "
        "regenerate it with `PYTHONPATH=src python tests/synth_digests.py`"
    )


# ---------------------------------------------------------------------------
# Silhouette rendering

# Canvas coordinates in mm: the default window is [-250, 250], so these
# reach off the canvas and straddle its edges.
COORD = st.one_of(
    st.floats(-400.0, 400.0),
    st.sampled_from([-250.0, 250.0]).flatmap(lambda edge: st.floats(edge - 60.0, edge + 60.0)),
)
RADIUS = st.one_of(st.just(0.0), st.floats(0.0, 150.0))


@st.composite
def hands(draw):
    """(palm center, fingertips, palm radius, finger radius) in mm, with
    free, axis-parallel and zero-length fingers."""
    center = [draw(COORD), draw(COORD), draw(COORD)]
    tips = []
    for _ in range(draw(st.integers(0, 5))):
        tip = [draw(COORD), draw(COORD), draw(COORD)]
        kind = draw(st.sampled_from(["free", "along x", "along y", "zero length"]))
        if kind == "along x":
            tip[1] = center[1]
        elif kind == "along y":
            tip[0] = center[0]
        elif kind == "zero length":
            tip[:2] = center[:2]
        tips.append(tip)
    return np.array(center), np.array(tips).reshape(-1, 3), draw(RADIUS), draw(RADIUS)


def _hand(center, tips, palm_radius, finger_radius):
    return np.array(center, float), np.array(tips, float).reshape(-1, 3), palm_radius, finger_radius


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(hand=hands(), size=st.integers(1, 64))
@example(  # a synthetic-sized hand near the middle
    hand=_hand([12.0, -30.0, 4.0], [[-40, 20, 9], [-10, 60, 0], [12, 66, -5], [40, 50, 2]], 38.0, 9.5),
    size=240,
)
@example(  # straddling a corner, with an axis-parallel and a zero-length finger
    hand=_hand([244.0, -247.5, 0.0], [[300, -247.5, 0], [244, -180, 0], [244, -247.5, 9]], 30.0, 8.0),
    size=240,
)
@example(  # palm off the canvas, fingers reaching onto it
    hand=_hand([-300.0, 120.0, 0.0], [[-200, 140, 0], [-260, 260, 0]], 45.0, 12.0),
    size=240,
)
@example(hand=_hand([0.0, 0.0, 0.0], [[0, 80, 0], [80, 0, 0]], 0.0, 0.0), size=240)
def test_render_matches_per_pixel_oracle(hand, size):
    assert render_silhouette(*hand, size=size).tobytes() == render_loops(*hand, size=size).tobytes()


def test_render_rejects_bad_geometry():
    good = (np.zeros(3), np.array([[0.0, 80.0, 0.0]]), 38.0, 9.5)
    cases = {
        "nan palm center": (np.array([np.nan, 0.0, 0.0]),) + good[1:],
        "infinite fingertip": (good[0], np.array([[np.inf, 80.0, 0.0]]), 38.0, 9.5),
        "nan fingertip depth": (good[0], np.array([[0.0, 80.0, np.nan]]), 38.0, 9.5),
        "negative palm radius": good[:2] + (-38.0, 9.5),
        "negative finger radius": good[:2] + (38.0, -1.0),
        "nan finger radius": good[:2] + (38.0, np.nan),
        "infinite palm radius": good[:2] + (np.inf, 9.5),
    }
    for name, args in cases.items():
        with pytest.raises(DataError):
            render_silhouette(*args, size=32)
            pytest.fail(f"{name}: no DataError")
    assert render_silhouette(*good, size=32).any()


def test_nearest_centroid_baseline_separates_classes():
    samples = generate_synthetic(subjects=3, reps=8, seed=11)
    feats = np.array([extract_tracking_features(s.frame).vector(ADT) for s in samples])
    labels = np.array([s.gesture for s in samples])
    train_idx, test_idx = split_indices(labels, 0.5, seed=1)
    centroids = {}
    for cls in np.unique(labels):
        centroids[cls] = feats[train_idx][labels[train_idx] == cls].mean(axis=0)
    correct = 0
    for i in test_idx:
        best = min(centroids, key=lambda c: np.linalg.norm(feats[i] - centroids[c]))
        correct += best == labels[i]
    assert correct / len(test_idx) >= 0.90


# ---------------------------------------------------------------------------
# Manifest round-trip


def test_save_load_roundtrip(tmp_path):
    samples = generate_synthetic(subjects=1, reps=2, seed=8)
    manifest = save_dataset(samples, tmp_path / "ds")
    loaded = load_dataset(manifest)
    assert len(loaded) == len(samples)
    for a, b in zip(sorted(samples, key=Sample.sort_key), loaded):
        assert a.sample_id == b.sample_id
        assert np.array_equal(a.frame.fingertips, b.frame.fingertips)
        assert np.array_equal(a.frame.palm_center, b.frame.palm_center)
        assert a.frame.middle_index == b.frame.middle_index
        assert np.array_equal(a.images[0], b.images[0])


def test_load_accepts_directory(tmp_path):
    samples = generate_synthetic(subjects=1, reps=1, seed=8)
    save_dataset(samples, tmp_path / "ds")
    assert len(load_dataset(tmp_path / "ds")) == 10


def test_empty_manifest_is_insufficient_data(tmp_path):
    path = tmp_path / "dataset.json"
    dump_path({"version": 1, "samples": []}, path)
    with pytest.raises(InsufficientData, match="no samples"):
        load_dataset(path)


def test_failed_dump_leaves_existing_file_unchanged(tmp_path):
    # A non-finite value is refused before the file is opened, so an
    # earlier file at the path survives and no empty file is left behind.
    path = tmp_path / "model.json"
    dump_path({"c": 10.0}, path)
    before = path.read_bytes()
    for bad in (float("inf"), float("nan")):
        with pytest.raises(ValueError):
            dump_path({"c": bad}, path)
        assert path.read_bytes() == before
        with pytest.raises(ValueError):
            dump_path({"c": bad}, tmp_path / "absent.json")
        assert not (tmp_path / "absent.json").exists()


def test_missing_files_all_reported(tmp_path):
    path = tmp_path / "dataset.json"
    dump_path(
        {
            "version": 1,
            "samples": [
                {"subject": 0, "gesture": 0, "rep": 0, "frame": "f0.json", "images": ["i0.pgm"]}
            ],
        },
        path,
    )
    with pytest.raises(MissingFile) as err:
        load_dataset(path)
    assert "f0.json" in str(err.value)
    assert "i0.pgm" in str(err.value)


@pytest.mark.parametrize("load", [read_pgm, UndistortionMap.load, load_path])
def test_unreadable_input_paths_raise_typed_errors(load, tmp_path):
    with pytest.raises(MissingFile):
        load(tmp_path / "absent")
    with pytest.raises(DataError, match="cannot read") as err:  # a directory
        load(tmp_path)
    assert not isinstance(err.value, MissingFile)


def test_version_mismatch(tmp_path):
    path = tmp_path / "dataset.json"
    dump_path({"version": 2, "samples": []}, path)
    with pytest.raises(SchemaVersionMismatch):
        load_dataset(path)


def test_parse_error_on_garbage(tmp_path):
    save_dataset(generate_synthetic(subjects=1, reps=1, seed=2, image_size=32), tmp_path / "ds")
    frame = sorted((tmp_path / "ds" / "frames").iterdir())[0]
    frame.write_bytes(b'{"palm_center": \xff}')
    cases = {
        "malformed json": (b"{not json", tmp_path / "dataset.json"),
        "invalid utf-8 manifest": (b'{"version": 1, "samples": [\xff]}', tmp_path / "dataset.json"),
        "invalid utf-8 frame": (None, tmp_path / "ds"),
        "frame path not a string": (
            b'{"version": 1, "samples": [{"subject": 0, "gesture": 0, "rep": 0, "frame": 5, '
            b'"images": []}]}',
            tmp_path / "dataset.json",
        ),
        "samples not a list": (b'{"version": 1, "samples": 7}', tmp_path / "dataset.json"),
    }
    for name, (content, path) in cases.items():
        if content is not None:
            path.write_bytes(content)
        with pytest.raises(ParseError):
            load_dataset(path)
            pytest.fail(f"{name}: no ParseError")


# ---------------------------------------------------------------------------
# Splitting


def test_split_paper_shape_arithmetic():
    labels = np.repeat(np.arange(10), 260)  # 2600 samples, 260 per gesture
    train, test = split_indices(labels, 0.8, seed=0)
    assert len(train) == 2080 and len(test) == 520
    for cls in range(10):
        assert (labels[train] == cls).sum() == 208
        assert (labels[test] == cls).sum() == 52


def test_split_single_class_floor():
    labels = np.zeros(10, dtype=int)
    train, test = split_indices(labels, 0.8, seed=0)
    assert len(train) == 8 and len(test) == 2


def test_split_disjoint_exhaustive(rng):
    labels = rng.integers(0, 5, size=173)
    train, test = split_indices(labels, 0.7, seed=4)
    assert len(set(train) & set(test)) == 0
    assert len(train) + len(test) == len(labels)


def test_split_determinism_and_seed_sensitivity():
    labels = np.repeat(np.arange(5), 20)
    a1, _ = split_indices(labels, 0.8, seed=7)
    a2, _ = split_indices(labels, 0.8, seed=7)
    b, _ = split_indices(labels, 0.8, seed=8)
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, b)


def test_split_stratified_proportions(rng):
    labels = np.concatenate([np.zeros(31), np.ones(17), np.full(9, 2)]).astype(int)
    train, _ = split_indices(labels, 0.6, seed=2)
    for cls, n in ((0, 31), (1, 17), (2, 9)):
        expected = int(np.floor(0.6 * n))
        assert (labels[train] == cls).sum() == expected
