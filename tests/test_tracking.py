import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_random_frame
from gesturelab.errors import DegenerateHand, GestureLabError, MissingMiddleFinger
from gesturelab.geometry import rotation_matrix
from gesturelab.tracking import (
    FeatureMask,
    HandFrame,
    compute_angle_features,
    compute_distance_features,
    compute_elevation_features,
    compute_scale,
    compute_tip_distances,
    extract_tracking_features,
    frame_from_dict,
    frame_to_dict,
    load_frame,
    project_to_palm_plane,
    save_frame,
    signed_inplane_angle,
)
from oracles import tracking_loops


def flat_frame(tips, middle=0):
    """Palm at origin, normal +z, direction +y."""
    return HandFrame(
        palm_center=[0.0, 0.0, 0.0],
        palm_normal=[0.0, 0.0, 1.0],
        hand_direction=[0.0, 1.0, 0.0],
        fingertips=tips,
        middle_index=middle if tips else None,
    )


# ---------------------------------------------------------------------------
# Scale


def test_scale_axis_aligned():
    frame = flat_frame([[0.0, 80.0, 0.0]])
    assert compute_scale(frame) == 80.0


def test_scale_345_triangle():
    frame = flat_frame([[3.0, 4.0, 0.0]])
    assert compute_scale(frame) == pytest.approx(5.0, abs=0)


def test_scale_degenerate():
    frame = HandFrame(
        palm_center=[10.0, 10.0, 10.0],
        palm_normal=[0.0, 0.0, 1.0],
        hand_direction=[0.0, 1.0, 0.0],
        fingertips=[[10.0, 10.0, 10.0]],
        middle_index=0,
    )
    with pytest.raises(DegenerateHand):
        compute_scale(frame)


def test_scale_requires_middle_finger():
    frame = HandFrame(
        palm_center=[0.0, 0.0, 0.0],
        palm_normal=[0.0, 0.0, 1.0],
        hand_direction=[0.0, 1.0, 0.0],
        fingertips=[[0.0, 80.0, 0.0]],
        middle_index=None,
    )
    with pytest.raises(MissingMiddleFinger):
        compute_scale(frame)


# ---------------------------------------------------------------------------
# Projection


def test_project_point_above_center():
    frame = HandFrame([0, 0, 0], [0, 1, 0], [0, 0, 1], [], None)
    from gesturelab.tracking import project_to_palm_plane

    assert np.allclose(project_to_palm_plane([0.0, 5.0, 0.0], frame), [0, 0, 0])


def test_project_idempotent_on_plane():
    from gesturelab.tracking import project_to_palm_plane

    frame = flat_frame([])
    p = np.array([3.0, 7.0, 0.0])
    assert np.array_equal(project_to_palm_plane(p, frame), p)


def test_project_axis_aligned_normal():
    from gesturelab.tracking import project_to_palm_plane

    frame = flat_frame([])
    assert np.allclose(project_to_palm_plane([3.0, 7.0, 2.0], frame), [3.0, 7.0, 0.0])


def test_projection_residual_random(rng):
    from gesturelab.tracking import project_to_palm_plane

    for _ in range(50):
        frame = make_random_frame(rng)
        p = rng.uniform(-200, 200, size=3)
        proj = project_to_palm_plane(p, frame)
        assert abs(np.dot(proj - frame.palm_center, frame.palm_normal)) < 1e-9


# ---------------------------------------------------------------------------
# Angles


def test_angle_along_hand_direction_is_midpoint():
    frame = flat_frame([[0.0, 80.0, 0.0]])
    angles, assignment = compute_angle_features(frame)
    assert angles[0] == pytest.approx(0.75, abs=1e-12)
    assert assignment[0] == 0 and assignment[1] is None


def test_angle_empty_frame():
    frame = flat_frame([])
    angles, assignment = compute_angle_features(frame)
    assert np.array_equal(angles, np.zeros(5))
    assert assignment == [None] * 5


def test_angle_endpoints_and_ordering():
    # raw angles -pi/2, 0, +pi/2 land on 0.5 / 0.75 / 1.0 in ascending slots
    frame = flat_frame([[0.0, 80.0, 0.0], [-80.0, 0.0, 0.0], [80.0, 0.0, 0.0]])
    angles, assignment = compute_angle_features(frame)
    assert np.allclose(angles[:3], [0.5, 0.75, 1.0], atol=1e-12)
    assert np.array_equal(angles[3:], [0.0, 0.0])
    assert assignment[:3] == [2, 0, 1]  # +x tip, +y tip, -x tip


def test_angle_clamps_outside_range():
    # 135 degrees behind the hand direction clamps to the top of the range
    frame = flat_frame([[-80.0, -80.0, 0.0]])
    angles, _ = compute_angle_features(frame)
    assert angles[0] == 1.0


def test_angle_degenerate_projection():
    frame = flat_frame([[0.0, 0.0, 50.0]])  # projects exactly onto the palm center
    with pytest.raises(DegenerateHand):
        compute_angle_features(frame)


def test_signed_angle_equals_np_cross_formulation(rng):
    got, expected = [], []
    for _ in range(1000):
        frame = make_random_frame(rng)
        h = frame.hand_direction
        for tip in frame.fingertips:
            u = project_to_palm_plane(tip, frame) - frame.palm_center
            ang = math.atan2(np.dot(frame.palm_normal, np.cross(h, u)), np.dot(h, u))
            expected.append(math.pi if ang == -math.pi else ang)
            got.append(signed_inplane_angle(tip, frame))
    assert np.array(got).tobytes() == np.array(expected).tobytes()


# ---------------------------------------------------------------------------
# Distances and elevations


def test_distance_of_scale_finger_is_one():
    frame = flat_frame([[0.0, 80.0, 0.0], [40.0, 0.0, 0.0]])
    scale = compute_scale(frame)
    _, assignment = compute_angle_features(frame)
    d = compute_distance_features(frame, assignment, scale)
    # slot of the middle finger (tip 0) carries exactly 1.0
    middle_slot = assignment.index(0)
    assert d[middle_slot] == 1.0
    assert d[assignment.index(1)] == pytest.approx(0.5, abs=1e-12)
    assert np.array_equal(d[2:], np.zeros(3))


def test_elevation_signs():
    scale = 80.0
    frame = flat_frame(
        [[0.0, 80.0, 0.0], [30.0, 30.0, 80.0], [-30.0, 30.0, -40.0]]
    )
    _, assignment = compute_angle_features(frame)
    e = compute_elevation_features(frame, assignment, scale)
    by_tip = {tip: slot for slot, tip in enumerate(assignment) if tip is not None}
    assert e[by_tip[0]] == 0.0
    assert e[by_tip[1]] == pytest.approx(1.0, abs=1e-12)
    assert e[by_tip[2]] == pytest.approx(-0.5, abs=1e-12)


# ---------------------------------------------------------------------------
# Tip distances


def test_tip_distances_coincident():
    frame = flat_frame([[10.0, 10.0, 0.0]] * 5)
    assert np.array_equal(compute_tip_distances(frame, 80.0), np.zeros(10))


def test_tip_distances_two_tips():
    frame = flat_frame([[0.0, 80.0, 0.0], [0.0, 40.0, 0.0]])
    values = compute_tip_distances(frame, 80.0)
    assert np.array_equal(values[:9], np.zeros(9))
    assert values[9] == pytest.approx(0.5, abs=1e-12)


def test_tip_distances_collinear_multiset():
    s = 80.0
    tips = [[0.0, k * s, 0.0] for k in range(5)]
    frame = flat_frame(tips, middle=1)
    values = compute_tip_distances(frame, s)
    # brute-force oracle: enumerate pairs, sort
    expected = sorted(
        np.linalg.norm(np.subtract(tips[i], tips[j])) / s
        for i in range(5)
        for j in range(i + 1, 5)
    )
    assert np.allclose(values, expected, atol=1e-12)
    assert np.allclose(expected, [1, 1, 1, 1, 2, 2, 2, 3, 3, 4])


def test_tip_distances_sorted_random(rng):
    for _ in range(50):
        frame = make_random_frame(rng, n_tips=int(rng.integers(1, 6)))
        values = compute_tip_distances(frame, 80.0)
        assert len(values) == 10
        assert np.all(np.diff(values) >= 0)


# ---------------------------------------------------------------------------
# Full extraction


def test_extract_segment_lengths(rng):
    frame = make_random_frame(rng)
    feats = extract_tracking_features(frame)
    assert len(feats.angles) == 5
    assert len(feats.distances) == 5
    assert len(feats.elevations) == 5
    assert len(feats.tip_distances) == 10
    assert feats.scale > 0


def test_extract_mask_dimensions(rng):
    frame = make_random_frame(rng)
    feats = extract_tracking_features(frame)
    assert feats.vector(FeatureMask.parse("ang+dist+tip")).shape == (20,)
    assert feats.vector(FeatureMask.parse("ang+dist+elev+tip")).shape == (25,)
    assert feats.vector(FeatureMask.parse("adt")).shape == (20,)
    assert feats.vector(FeatureMask.parse("dist")).shape == (5,)


def test_extract_empty_frame_is_total():
    frame = flat_frame([])
    feats = extract_tracking_features(frame)
    assert np.array_equal(feats.vector(), np.zeros(25))


def test_extract_requires_middle_when_tips_present():
    frame = HandFrame([0, 0, 0], [0, 0, 1], [0, 1, 0], [[0.0, 80.0, 0.0]], None)
    with pytest.raises(MissingMiddleFinger):
        extract_tracking_features(frame)


def test_mask_length_is_pure_function_of_mask():
    cases = {
        "ang": 5,
        "dist": 5,
        "elev": 5,
        "tip": 10,
        "ang+dist+elev": 15,
        "ang+dist+tip": 20,
        "ang+dist+elev+tip": 25,
        "none": 0,
    }
    for text, dims in cases.items():
        assert FeatureMask.parse(text).dims() == dims


def test_mask_parse_rejects_unknown():
    with pytest.raises(ValueError):
        FeatureMask.parse("ang+bogus")


# ---------------------------------------------------------------------------
# Invariance properties


def transform_frame(frame, rot, shift):
    return HandFrame(
        palm_center=rot @ frame.palm_center + shift,
        palm_normal=rot @ frame.palm_normal,
        hand_direction=rot @ frame.hand_direction,
        fingertips=(rot @ frame.fingertips.T).T + shift,
        middle_index=frame.middle_index,
    )


def test_rigid_motion_invariance(rng):
    for _ in range(100):
        frame = make_random_frame(rng, n_tips=int(rng.integers(1, 6)))
        rot = rotation_matrix(rng.normal(size=3), rng.uniform(0, 2 * np.pi))
        shift = rng.uniform(-200.0, 200.0, size=3)
        base = extract_tracking_features(frame).vector()
        moved = extract_tracking_features(transform_frame(frame, rot, shift)).vector()
        assert np.abs(base - moved).max() < 1e-9


def test_uniform_scaling_invariance(rng):
    for _ in range(100):
        frame = make_random_frame(rng, n_tips=int(rng.integers(1, 6)))
        lam = rng.uniform(0.2, 5.0)
        scaled = HandFrame(
            palm_center=frame.palm_center,
            palm_normal=frame.palm_normal,
            hand_direction=frame.hand_direction,
            fingertips=frame.palm_center + lam * (frame.fingertips - frame.palm_center),
            middle_index=frame.middle_index,
        )
        base = extract_tracking_features(frame)
        other = extract_tracking_features(scaled)
        for name in ("distances", "elevations", "tip_distances"):
            assert np.abs(getattr(base, name) - getattr(other, name)).max() < 1e-9


def test_angle_slots_valid_or_exact_zero(rng):
    for _ in range(100):
        frame = make_random_frame(rng, n_tips=int(rng.integers(0, 6)))
        feats = extract_tracking_features(frame)
        for slot, value in enumerate(feats.angles):
            if value == 0.0:
                assert feats.distances[slot] == 0.0
                assert feats.elevations[slot] == 0.0
            else:
                assert 0.5 <= value <= 1.0


# ---------------------------------------------------------------------------
# Per-finger oracle

coordinates = st.floats(-150.0, 150.0, allow_nan=False)


@st.composite
def oracle_frames(draw):
    """Rotated, shifted frames with 0-5 fingertips and any middle index.
    A tip is free, exactly at the palm center, on the palm normal through
    it, or a copy of the previous tip, so degenerate frames come up."""
    rot = np.eye(3)
    for axis in np.eye(3):
        rot = rot @ rotation_matrix(axis, draw(st.floats(-math.pi, math.pi)))
    center = np.array([draw(coordinates) for _ in range(3)]) * 2.0
    normal = rot @ np.array([0.0, 0.0, 1.0])
    tips = []
    for _ in range(draw(st.sampled_from(range(6)))):
        kind = draw(st.sampled_from(["free"] * 9 + ["center", "normal", "copy"]))
        if kind == "center":
            tips.append(center.copy())
        elif kind == "normal":
            tips.append(center + draw(coordinates) * normal)
        elif kind == "copy" and tips:
            tips.append(tips[-1].copy())
        else:
            tips.append(center + np.array([draw(coordinates) for _ in range(3)]))
    middle = draw(st.integers(-1, len(tips) - 1))  # -1: no middle fingertip
    return HandFrame(
        palm_center=center,
        palm_normal=normal,
        hand_direction=rot @ np.array([0.0, 1.0, 0.0]),
        fingertips=np.array(tips).reshape(len(tips), 3),
        middle_index=None if middle < 0 else middle,
    )


@settings(derandomize=True, deadline=None, database=None, max_examples=600)
@given(frame=oracle_frames())
def test_extract_matches_per_finger_oracle(frame):
    try:
        expected = tracking_loops(frame)
    except GestureLabError as exc:
        with pytest.raises(GestureLabError) as raised:
            extract_tracking_features(frame)
        assert type(raised.value) is type(exc) and str(raised.value) == str(exc)
        return
    assert extract_tracking_features(frame).vector().tobytes() == expected.tobytes()


# ---------------------------------------------------------------------------
# Frame JSON round-trip


def test_frame_json_roundtrip(tmp_path, rng):
    frame = make_random_frame(rng)
    path = tmp_path / "frame.json"
    save_frame(frame, path)
    loaded = load_frame(path)
    assert np.array_equal(loaded.palm_center, frame.palm_center)
    assert np.array_equal(loaded.fingertips, frame.fingertips)
    assert loaded.middle_index == frame.middle_index


def test_frame_dict_bad_record():
    from gesturelab.errors import ParseError

    with pytest.raises(ParseError):
        frame_from_dict({"palm_center": [0, 0, 0]})


@pytest.mark.parametrize("field", ["palm_center", "palm_normal", "hand_direction", "fingertips"])
def test_frame_rejects_non_finite_values(rng, field):
    from gesturelab.errors import ParseError

    record = frame_to_dict(make_random_frame(rng))
    values = np.array(record[field], dtype=float)
    values.flat[-1] = np.nan
    record[field] = values.tolist()
    with pytest.raises(ParseError, match=f"{field} must be finite"):
        frame_from_dict(record)
