import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from gesturelab import image
from gesturelab.data import generate_synthetic
from gesturelab.errors import DataError, GeometryError, MapSizeMismatch, ParseError
from gesturelab.image import (
    HogParams,
    ImagePipelineConfig,
    UndistortionMap,
    binarize,
    compute_hog,
    crop_to_foreground,
    extract_image_features,
    hog_length,
    otsu_threshold,
    read_pgm,
    resize_bilinear,
    undistort,
    write_pgm,
)
from gesturelab.image import _hog_geometry
from oracles import hog_loops, otsu_bruteforce, resize_loops, undistort_loops
from output_digests import _barrel_map as digest_map, _gray_images


# ---------------------------------------------------------------------------
# PGM I/O


def test_pgm_roundtrip(tmp_path, rng):
    img = rng.integers(0, 256, size=(13, 17)).astype(np.uint8)
    path = tmp_path / "img.pgm"
    write_pgm(img, path)
    assert np.array_equal(read_pgm(path), img)


def test_pgm_comment_header(tmp_path):
    img = np.arange(6, dtype=np.uint8).reshape(2, 3)
    path = tmp_path / "img.pgm"
    path.write_bytes(b"P5\n# a comment\n3 2\n255\n" + img.tobytes())
    assert np.array_equal(read_pgm(path), img)


def test_pgm_rejects_bad_magic(tmp_path):
    cases = {
        "ascii magic": b"P2\n2 2\n255\n....",
        "negative size": b"P5\n-2 -3\n255\n" + bytes(6),
        "zero width": b"P5\n0 5\n255\n",
    }
    path = tmp_path / "img.pgm"
    for name, content in cases.items():
        path.write_bytes(content)
        with pytest.raises(ParseError):
            read_pgm(path)
            pytest.fail(f"{name}: no ParseError")


# ---------------------------------------------------------------------------
# Undistortion


def test_identity_map_is_bit_exact(rng):
    img = rng.integers(0, 256, size=(24, 31)).astype(np.uint8)
    umap = UndistortionMap.identity(5, 9)
    assert np.array_equal(undistort(img, umap, (31, 24)), img)


def test_lattice_point_lookup():
    img = np.array([[10, 20], [30, 40]], dtype=np.uint8)
    umap = UndistortionMap.identity(2, 2)
    assert np.array_equal(undistort(img, umap, (2, 2)), img)


def test_midpoint_interpolation():
    raw = np.array([[10, 20]], dtype=np.uint8)
    samples = np.full((2, 2, 2), 0.0)
    samples[..., 0] = 0.5  # halfway between the two source pixels
    out = undistort(raw, UndistortionMap(samples), (1, 1))
    assert out[0, 0] == 15


def test_invalid_map_region_yields_zero(rng):
    img = rng.integers(1, 256, size=(16, 16)).astype(np.uint8)
    umap = UndistortionMap.identity(4, 4)
    umap.samples[0, 0] = (-1.0, -1.0)
    out = undistort(img, umap, (16, 16))
    # pixels interpolating the invalid corner are zeroed, the rest populated
    assert out[0, 0] == 0
    assert out[-1, -1] == img[-1, -1]


def _barrel_map(grid=16, strength=0.12):
    """Barrel-style map with invalid points at the four corners and one inside."""
    us = np.linspace(0.0, 1.0, grid)
    uu, vv = np.meshgrid(us, us)
    scale = 1.0 - strength * ((uu - 0.5) ** 2 + (vv - 0.5) ** 2)
    samples = np.stack([0.5 + (uu - 0.5) * scale, 0.5 + (vv - 0.5) * scale], axis=2)
    for y, x in ((0, 0), (0, grid - 1), (grid - 1, 0), (grid - 1, grid - 1), (5, 9)):
        samples[y, x] = -1.0
    return UndistortionMap(samples)


def _assert_matches_oracle(raw, umap, out_size):
    """undistort(raw) against the per-pixel oracle; `raw` must be >= 1, so
    that exactly the invalid pixels are 0.  Returns the oracle's mask."""
    out = undistort(raw, umap, out_size)
    expected, invalid = undistort_loops(raw, umap.samples, out_size)
    assert np.array_equal(out == 0, invalid)
    rounded = np.rint(expected)
    # A value within 1e-9 of a half-integer may round either way.
    near_half = np.abs(expected - np.floor(expected) - 0.5) < 1e-9
    differs = out.astype(float) != rounded
    assert not (differs & ~near_half).any()
    assert np.abs(out - rounded)[differs].max(initial=0.0) <= 1.0
    return invalid


@pytest.mark.parametrize("out_size", [(240, 240), (61, 37)])
def test_undistort_matches_per_pixel_oracle(rng, out_size):
    raw = rng.integers(1, 256, size=(200, 180)).astype(np.uint8)  # valid pixels stay >= 1
    invalid = _assert_matches_oracle(raw, _barrel_map(), out_size)
    assert invalid.any() and not invalid.all()


def test_undistort_follows_in_place_map_edits(rng):
    umap = _barrel_map()
    sources = [rng.integers(1, 256, size=shape).astype(np.uint8) for shape in ((50, 40), (31, 47))]
    masks = []
    for edit in range(3):
        if edit == 1:
            umap.samples[7, 3] = -1.0  # a new invalid point
        elif edit == 2:
            umap.samples[7, 3] = (0.2, 0.9)  # valid again, elsewhere
        for out_size in ((30, 20), (17, 23)):
            for raw in sources:
                masks.append(_assert_matches_oracle(raw, umap, out_size))
    assert not np.array_equal(masks[0], masks[4])  # the edit reached the mask
    assert np.array_equal(masks[0], masks[8])


@st.composite
def calibration_maps(draw):
    """2x2 to 8x8 grids of points in [0, 1]^2, some set invalid."""
    shape = (draw(st.integers(2, 8)), draw(st.integers(2, 8)))
    samples = draw(hnp.arrays(float, shape + (2,), elements=st.floats(0.0, 1.0)))
    samples[draw(hnp.arrays(bool, shape))] = -1.0
    return UndistortionMap(samples)


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(
    umap=calibration_maps(),
    raw=hnp.arrays(np.uint8, st.tuples(st.integers(1, 30), st.integers(1, 30)), elements=st.integers(1, 255)),
    out_size=st.tuples(st.integers(1, 40), st.integers(1, 40)),
)
def test_undistort_taps_match_per_pixel_oracle(umap, raw, out_size):
    _assert_matches_oracle(raw, umap, out_size)


def _full_frame(raw, umap, out_size):
    """undistort(raw) computed over every output pixel."""
    samples = np.ascontiguousarray(umap.samples, dtype=float)
    taps, _, _ = image._undistort_taps(samples.tobytes(), samples.shape, out_size, raw.shape)
    return np.rint(image._apply_taps(raw, taps)).astype(np.uint8)


@st.composite
def sparse_sources(draw):
    """1 to 30 px sources of zeros holding 0 to 3 random nonzero rectangles."""
    h, w = draw(st.integers(1, 30)), draw(st.integers(1, 30))
    raw = np.zeros((h, w), np.uint8)
    for _ in range(draw(st.integers(0, 3))):
        r0, c0 = draw(st.integers(0, h - 1)), draw(st.integers(0, w - 1))
        r1, c1 = draw(st.integers(r0 + 1, h)), draw(st.integers(c0 + 1, w))
        raw[r0:r1, c0:c1] = draw(hnp.arrays(np.uint8, (r1 - r0, c1 - c0), elements=st.integers(1, 255)))
    return raw


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(umap=calibration_maps(), raw=sparse_sources(), out_size=st.tuples(st.integers(1, 40), st.integers(1, 40)))
def test_undistort_of_zero_background_matches_full_frame(umap, raw, out_size):
    assert np.array_equal(undistort(raw, umap, out_size), _full_frame(raw, umap, out_size))


def _box_source(rows, cols, shape=(20, 24), seed=5):
    raw = np.zeros(shape, np.uint8)
    raw[rows, cols] = np.random.default_rng(seed).integers(1, 256, size=raw[rows, cols].shape)
    return raw


LEFT_HALF_MAP = UndistortionMap(UndistortionMap.identity(4, 4).samples * [0.4, 1.0])

SPARSE_CASES = {
    "all zero": (_box_source(slice(0), slice(0)), _barrel_map()),
    "top-left pixel": (_box_source(0, 0), _barrel_map()),
    "top-right pixel": (_box_source(0, -1), _barrel_map()),
    "bottom-left pixel": (_box_source(-1, 0), _barrel_map()),
    "bottom-right pixel": (_box_source(-1, -1), _barrel_map()),
    "box on 1 border": (_box_source(slice(0, 6), slice(5, 11)), _barrel_map()),
    "box on 2 borders": (_box_source(slice(14, 20), slice(0, 9)), _barrel_map()),
    "box on 3 borders": (_box_source(slice(3, 20), slice(0, 24)), _barrel_map()),
    "box on 4 borders": (_box_source(slice(0, 20), slice(0, 24)), _barrel_map()),
    "box the map never samples": (_box_source(slice(4, 15), slice(14, 24)), LEFT_HALF_MAP),
}


@pytest.mark.parametrize("case", SPARSE_CASES)
@pytest.mark.parametrize("out_size", [(17, 13), (40, 40)])
def test_undistort_of_sparse_cases_matches_full_frame(case, out_size):
    raw, umap = SPARSE_CASES[case]
    out = undistort(raw, umap, out_size)
    assert np.array_equal(out, _full_frame(raw, umap, out_size))
    if case == "box the map never samples":
        assert raw.any() and not out.any()


def test_undistort_samples_only_the_hand_window(monkeypatch):
    # Silhouettes: the window that can read the hand is under a quarter
    # of the output; a gray capture's nonzero box is the whole frame, so
    # every output pixel is sampled.
    samples = generate_synthetic(subjects=1, reps=2, seed=17)
    silhouettes = [s.images[0] for s in samples]
    umap, out_size = digest_map(), (240, 240)
    undistort(silhouettes[0], umap, out_size)  # builds the taps before the spy
    asked = []
    apply_taps = image._apply_taps

    def spy(img, taps):
        asked.append(taps[0][0].size)
        return apply_taps(img, taps)

    monkeypatch.setattr(image, "_apply_taps", spy)
    for img in silhouettes:
        undistort(img, umap, out_size)
    assert len(silhouettes) == 20 and len(asked) <= 20
    assert sum(asked) < 0.25 * 20 * 240 * 240
    asked.clear()
    for img in _gray_images(samples):
        undistort(img, umap, out_size)
    assert asked == [240 * 240] * 20


def test_map_too_small():
    img = np.zeros((4, 4), dtype=np.uint8)
    samples = np.zeros((1, 3, 2))
    with pytest.raises(MapSizeMismatch):
        undistort(img, UndistortionMap(samples), (4, 4))


def test_map_file_roundtrip(tmp_path):
    umap = UndistortionMap.identity(6, 4)
    umap.samples[1, 2] = (-1.0, -1.0)
    path = tmp_path / "map.lmum"
    umap.save(path)
    loaded = UndistortionMap.load(path)
    assert loaded.grid_width == 6 and loaded.grid_height == 4
    assert np.array_equal(loaded.samples, umap.samples.astype("<f4").astype(float))


def _map_bytes(samples):
    """LMUM file content for a (grid_h, grid_w, 2) sample array."""
    samples = np.asarray(samples, dtype="<f4")
    gh, gw, _ = samples.shape
    return b"LMUM" + struct.pack("<II", gw, gh) + samples.tobytes()


def _identity_with(value):
    samples = UndistortionMap.identity(3, 3).samples
    samples[1, 1, 0] = value
    return samples


def test_map_file_magic(tmp_path):
    cases = {
        "bad magic": b"XXXX" + b"\0" * 16,
        "short header": b"LMUM\x01\x00",
        "value 2.0": _map_bytes(_identity_with(2.0)),
        "value inf": _map_bytes(_identity_with(np.inf)),
        "value nan": _map_bytes(_identity_with(np.nan)),
        "trailing bytes": _map_bytes(UndistortionMap.identity(4, 3).samples) + bytes(8),
    }
    path = tmp_path / "map.lmum"
    for name, content in cases.items():
        path.write_bytes(content)
        with pytest.raises(ParseError):
            UndistortionMap.load(path)
            pytest.fail(f"{name}: no ParseError")


# ---------------------------------------------------------------------------
# Binarization


def test_fixed_threshold_above():
    img = np.full((4, 4), 100, np.uint8)
    assert np.all(binarize(img, 50) == 255)


def test_fixed_threshold_below():
    img = np.full((4, 4), 100, np.uint8)
    assert np.all(binarize(img, 150) == 0)


def test_binarize_two_valued_and_idempotent(rng):
    img = rng.integers(0, 256, size=(20, 20)).astype(np.uint8)
    for threshold in (None, 1, 128, 255):
        out = binarize(img, threshold)
        assert set(np.unique(out)) <= {0, 255}
        if threshold is not None:
            assert np.array_equal(binarize(out, threshold), out)


def test_otsu_bimodal_split():
    img = np.array([[40] * 8 + [200] * 8] * 4, dtype=np.uint8)
    t = otsu_threshold(img)
    assert 40 < t <= 200
    out = binarize(img)
    assert np.all(out[img == 40] == 0)
    assert np.all(out[img == 200] == 255)


def test_otsu_matches_bruteforce(rng):
    for _ in range(20):
        img = rng.integers(0, 256, size=(12, 12)).astype(np.uint8)
        assert otsu_threshold(img) == otsu_bruteforce(img) + 1


def _otsu_input(shape, kind, layout, seed):
    """An image of `shape` and `kind`, as a view laid out as `layout` names."""
    h, w = shape
    rng = np.random.default_rng(seed)
    if kind == "blocky":  # runs of random length over a few values: many uniform 8-pixel words
        values = rng.choice(256, size=rng.integers(1, 5), replace=False)
        runs = rng.integers(1, 25, size=h * w)
        pixels = np.repeat(rng.choice(values, size=h * w), runs)[: h * w]
    else:
        pixels = np.clip(np.rint(rng.normal(rng.uniform(0, 255), rng.uniform(1, 40), h * w)), 0, 255)
    img = pixels.astype(np.uint8).reshape(h, w)
    if layout == "strided":
        base = np.zeros((2 * h, w + 3), np.uint8)
        base[::2, 1 : w + 1] = img
        view = base[::2, 1 : w + 1]
    elif layout == "transposed":
        view = np.ascontiguousarray(img.T).T
    elif layout == "odd_offset":
        buf = np.zeros(h * w + 16, np.uint8)
        start = 1 if buf.ctypes.data % 2 == 0 else 0
        view = buf[start : start + h * w].reshape(h, w)
        view[...] = img
        assert view.ctypes.data % 2 == 1
    else:
        view = img
    assert np.array_equal(view, img)
    return view


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(
    shape=st.tuples(st.integers(1, 40), st.integers(1, 41)),
    kind=st.sampled_from(["blocky", "gray"]),
    layout=st.sampled_from(["contiguous", "strided", "transposed", "odd_offset"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_otsu_matches_bruteforce_on_any_layout(shape, kind, layout, seed):
    # Shapes from 1x1 up give n < 8 and every n mod 8; blocky images hold
    # uniform 8-pixel words, gray ones hardly any.
    img = _otsu_input(shape, kind, layout, seed)
    assert otsu_threshold(img) == otsu_bruteforce(img) + 1


def test_otsu_separates_two_valued_images(rng):
    for _ in range(50):
        a, b = sorted(rng.choice(256, size=2, replace=False))
        frac = rng.uniform(0.05, 0.95)
        n = 400
        values = np.where(rng.random(n) < frac, a, b).astype(np.uint8)
        if len(np.unique(values)) < 2:
            values[0] = a
            values[1] = b
        img = values.reshape(20, 20)
        out = binarize(img)
        assert np.all(out[img == a] == 0)
        assert np.all(out[img == b] == 255)


# ---------------------------------------------------------------------------
# Crop and resize


def test_crop_single_pixel():
    img = np.zeros((20, 20), np.uint8)
    img[10, 10] = 255
    assert crop_to_foreground(img, 0).shape == (1, 1)


def test_crop_all_zero_returns_input():
    img = np.zeros((5, 7), np.uint8)
    out = crop_to_foreground(img, 3)
    assert np.array_equal(out, img)
    assert out.shape == (5, 7)


def test_crop_margin_window():
    img = np.zeros((16, 16), np.uint8)
    img[5:9, 2:5] = 255  # nonzero rows 5..8, cols 2..4
    out = crop_to_foreground(img, 1)
    assert out.shape == (6, 5)  # rows 4..9 x cols 1..5
    assert np.array_equal(out, img[4:10, 1:6])


def test_crop_rejects_negative_margin():
    img = np.zeros((20, 20), np.uint8)
    img[10, 10] = 255  # a margin of -1 would leave a 0 x 0 crop
    with pytest.raises(ValueError, match="margin"):
        crop_to_foreground(img, -1)


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(
    img=hnp.arrays(np.uint8, st.tuples(st.integers(1, 40), st.integers(1, 40)),
                   elements=st.sampled_from([0, 0, 0, 1, 128, 255])),
    margin=st.integers(0, 6),
)
def test_crop_matches_nonzero_bounding_box(img, margin):
    rows, cols = np.nonzero(img)
    if rows.size == 0:
        expected = img
    else:
        expected = img[max(rows.min() - margin, 0) : rows.max() + margin + 1,
                       max(cols.min() - margin, 0) : cols.max() + margin + 1]
    assert np.array_equal(crop_to_foreground(img, margin), expected)


def test_resize_identity_bit_exact(rng):
    img = rng.integers(0, 256, size=(15, 11)).astype(np.uint8)
    assert np.array_equal(resize_bilinear(img, (11, 15)), img)


def test_resize_constant_stays_constant():
    img = np.full((6, 9), 123, np.uint8)
    out = resize_bilinear(img, (17, 4))
    assert np.all(out == 123)
    assert out.shape == (4, 17)


def test_resize_monotone_row():
    img = np.array([[0, 255]], dtype=np.uint8)
    out = resize_bilinear(img, (4, 1))
    assert np.array_equal(out, [[0, 85, 170, 255]])
    assert np.all(np.diff(out[0].astype(int)) >= 0)


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(
    in_shape=st.tuples(st.integers(1, 300), st.integers(1, 300)),
    out_size=st.tuples(st.integers(1, 100), st.integers(1, 100)),
    seed=st.integers(0, 2**32 - 1),
)
def test_resize_matches_per_pixel_oracle(in_shape, out_size, seed):
    img = np.random.default_rng(seed).integers(0, 256, size=in_shape).astype(np.uint8)
    assert resize_bilinear(img, out_size).tobytes() == resize_loops(img, out_size).tobytes()


# ---------------------------------------------------------------------------
# HOG


def test_hog_constant_image_is_zero():
    img = np.full((64, 64), 200, np.uint8)
    assert np.array_equal(compute_hog(img), np.zeros(1764))


def test_hog_default_length():
    img = np.zeros((64, 64), np.uint8)
    assert len(compute_hog(img)) == 7 * 7 * 2 * 2 * 9 == 1764
    assert _hog_geometry(64, 64, HogParams()) == (8, 8, 7, 7)


@pytest.mark.parametrize(
    "size,params",
    [
        ((64, 64), HogParams()),
        ((64, 64), HogParams(cell_size=16)),
        ((32, 48), HogParams(cell_size=8, block_cells=2)),
        ((40, 40), HogParams(cell_size=10, block_cells=3, bins=6)),
        ((64, 32), HogParams(cell_size=8, block_cells=2, block_stride=2)),
    ],
)
def test_hog_length_formula(size, params, rng):
    w, h = size
    img = rng.integers(0, 256, size=(h, w)).astype(np.uint8)
    desc = compute_hog(img, params)
    _, _, blocks_x, blocks_y = _hog_geometry(w, h, params)
    assert len(desc) == hog_length(w, h, params)
    assert len(desc) == blocks_x * blocks_y * params.block_cells**2 * params.bins


def test_hog_geometry_error():
    img = np.zeros((60, 64), np.uint8)
    with pytest.raises(GeometryError):
        compute_hog(img, HogParams(cell_size=8))
    with pytest.raises(GeometryError):
        compute_hog(np.zeros((8, 8), np.uint8), HogParams(cell_size=8, block_cells=2))


def test_hog_step_edge_votes_horizontal_bin():
    img = np.zeros((16, 16), np.uint8)
    img[:, 8:] = 255
    desc = compute_hog(img, HogParams(cell_size=8, block_cells=2))
    block = desc.reshape(2, 2, 9)  # one block of 2x2 cells
    for cy in range(2):
        for cx in range(2):
            assert block[cy, cx, 0] == pytest.approx(0.5, abs=1e-12)
            assert np.array_equal(block[cy, cx, 1:], np.zeros(8))


def test_hog_values_in_unit_interval_and_block_norms(rng):
    params = HogParams()
    for _ in range(10):
        img = rng.integers(0, 256, size=(64, 64)).astype(np.uint8)
        desc = compute_hog(img, params)
        assert desc.min() >= 0.0
        assert desc.max() <= 1.0
        per_block = desc.reshape(-1, params.block_cells**2 * params.bins)
        norms = np.linalg.norm(per_block, axis=1)
        assert norms.max() <= 1.0 + 1e-6


@pytest.mark.parametrize(
    "params", [HogParams(), HogParams(cell_size=4, block_cells=3, block_stride=2, bins=6, clip=0.1)]
)
def test_hog_matches_per_block_oracle(rng, params):
    images = [rng.integers(0, 256, size=(64, 64)).astype(np.uint8) for _ in range(3)]
    images += [np.zeros((64, 64), np.uint8), np.full((64, 64), 200, np.uint8)]
    # Binarized, cropped and resized silhouettes: most gradients are zero.
    for sample in generate_synthetic(subjects=1, reps=1, seed=3)[:4]:
        cropped = crop_to_foreground(binarize(sample.images[0]), 4)
        images.append(resize_bilinear(cropped, (64, 64)))
    # The only nonzero gradients sit on the columns either side of a cell border.
    border = np.zeros((64, 64), np.uint8)
    border[:, 24:] = 90
    images.append(border)
    for img in images:
        assert compute_hog(img, params).tobytes() == hog_loops(img, params).tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_hog_rejects_non_finite_pixels(bad):
    img = np.zeros((64, 64))
    img[10, 20] = bad
    with pytest.raises(DataError):
        compute_hog(img)


def test_hog_rejects_overflowing_pixel_values():
    # Finite values whose block norm (a 1e300 square) or whose gradients
    # (halves of +-1e308) overflow: no descriptor, and no RuntimeWarning.
    square = np.zeros((64, 64))
    square[20:40, 20:40] = 1e300
    halves = np.full((64, 64), 1e308)
    halves[:, 32:] = -1e308
    for img in (square, halves):
        with pytest.raises(DataError):
            compute_hog(img)


def test_hog_contrast_invariance(rng):
    img = (2 * rng.integers(0, 128, size=(64, 64))).astype(np.uint8)  # even values
    half = (img // 2).astype(np.uint8)
    a = compute_hog(img)
    b = compute_hog(half)
    assert np.abs(a - b).max() < 1e-6


# ---------------------------------------------------------------------------
# Pipeline


def test_extract_image_features_both_images(rng):
    img = rng.integers(0, 256, size=(100, 100)).astype(np.uint8)
    cfg = ImagePipelineConfig()
    single = extract_image_features([img], cfg)
    assert single.shape == (1764,)
    cfg_both = ImagePipelineConfig(use_both_images=True)
    both = extract_image_features([img, img], cfg_both)
    assert both.shape == (3528,)
    assert np.array_equal(both[:1764], both[1764:])
    assert cfg_both.descriptor_length() == 3528


def test_extract_image_features_with_map(rng):
    img = rng.integers(0, 256, size=(60, 60)).astype(np.uint8)
    cfg = ImagePipelineConfig(undistort_size=(60, 60))
    umap = UndistortionMap.identity(6, 6)
    with_map = extract_image_features([img], cfg, umap)
    without = extract_image_features([img], cfg)
    assert np.array_equal(with_map, without)  # identity map is a no-op


def test_pipeline_calls_each_stage_by_module_attribute(monkeypatch, rng):
    """The benchmark's tracer times the image stages by swapping these
    module attributes, so the pipeline must call each stage through them."""
    stages = ("undistort", "binarize", "crop_to_foreground", "resize_bilinear", "compute_hog")
    calls = dict.fromkeys(stages, 0)
    for name in stages:
        def counted(*args, _name=name, _stage=getattr(image, name), **kwargs):
            calls[_name] += 1
            return _stage(*args, **kwargs)

        monkeypatch.setattr(image, name, counted)
    imgs = [rng.integers(0, 256, size=(60, 60)).astype(np.uint8) for _ in range(2)]
    cfg = ImagePipelineConfig(undistort_size=(60, 60), use_both_images=True)
    extract_image_features(imgs, cfg, UndistortionMap.identity(6, 6))
    assert calls == dict.fromkeys(stages, 2)
