"""Property tests for the binary file parsers: PGM images and LMUM maps.

For arbitrary bytes after a valid or corrupted header, a loader either
returns finite, well-formed data or raises ParseError; no other
exception escapes.  Examples are derandomized so reruns test the same
inputs.
"""

import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gesturelab.errors import ParseError
from gesturelab.image import MAP_MAGIC, UndistortionMap, read_pgm

FUZZ = settings(derandomize=True, deadline=None, database=None, max_examples=300)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


pgm_headers = st.one_of(
    st.builds(
        lambda w, h, maxval: b"P5\n%d %d\n%d\n" % (w, h, maxval),
        st.integers(-3, 6),
        st.integers(-3, 6),
        st.sampled_from([0, 255, 256]),
    ),
    st.sampled_from([b"P5\n# comment\n2 2\n255\n", b"P2\n2 2\n255\n", b"P5 2", b""]),
    st.binary(max_size=16),
)


@FUZZ
@given(header=pgm_headers, body=st.binary(max_size=48))
def test_read_pgm_returns_image_or_parse_error(fuzz_dir, header, body):
    path = fuzz_dir / "fuzz.pgm"
    path.write_bytes(header + body)
    try:
        img = read_pgm(path)
    except ParseError:
        return
    assert img.dtype == np.uint8 and img.ndim == 2 and img.size > 0


map_headers = st.one_of(
    st.builds(
        lambda w, h: MAP_MAGIC + struct.pack("<II", w, h),
        st.integers(0, 3),
        st.integers(0, 3),
    ),
    st.builds(lambda rest: MAP_MAGIC + rest, st.binary(max_size=10)),
    st.binary(max_size=12),
)
map_values = st.one_of(
    st.floats(0.0, 1.0, width=32),
    st.just(-1.0),
    st.floats(width=32),
)
map_bodies = st.one_of(
    st.lists(map_values, max_size=24).map(lambda v: np.array(v, dtype="<f4").tobytes()),
    st.binary(max_size=96),
)


@FUZZ
@given(header=map_headers, body=map_bodies)
def test_map_load_returns_finite_map_or_parse_error(fuzz_dir, header, body):
    path = fuzz_dir / "fuzz.lmum"
    path.write_bytes(header + body)
    try:
        umap = UndistortionMap.load(path)
    except ParseError:
        return
    samples = umap.samples
    assert samples.ndim == 3 and samples.shape[2] == 2
    assert np.isfinite(samples).all()
    invalid = np.all(samples == -1.0, axis=2)
    assert ((samples >= 0.0) & (samples <= 1.0)).all(axis=2)[~invalid].all()
