"""Property tests for the input parsers.

For arbitrary bytes after a valid or corrupted header, the binary
loaders (PGM images, LMUM maps) either return finite, well-formed data
or raise ParseError.  For arbitrary arrays in a feature archive, the `.npz` loader returns
finite, consistent arrays or raises DataError.  For a valid hand-frame,
model, dataset-manifest or config record with one field deleted or replaced by arbitrary JSON, or
for an arbitrary JSON document, the record loaders either return finite
data or raise a GestureLabError (a DataError for data files, a
ConfigError for configs).  No other exception escapes.  Examples are
derandomized so reruns test the same inputs.
"""

import copy
import json
import math
import struct
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from conftest import make_random_frame
from gesturelab import jsonio
from gesturelab.cli import _read_feature_store
from gesturelab.data import generate_synthetic, load_dataset, save_dataset
from gesturelab.errors import ConfigError, DataError, ParseError
from gesturelab.harness import ExperimentConfig, config_from_dict
from gesturelab.fusion import FusionConfig, fit_pca
from gesturelab.image import MAP_MAGIC, UndistortionMap, read_pgm
from gesturelab.svm import (
    KernelParams,
    Preprocessing,
    model_from_dict,
    model_to_dict,
    train_multiclass,
)
from gesturelab.tracking import FeatureMask, frame_from_dict, frame_to_dict

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


# ---------------------------------------------------------------------------
# JSON records: hand frames and model.json

json_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from([10**400, -(10**400)]),  # overflow a float
    st.floats(),  # nan and inf included
    st.text(max_size=4),
)
json_values = st.recursive(
    json_leaves,
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.text(max_size=4), kids, max_size=3),
    max_leaves=8,
)
_DELETE = object()


def _paths(value, prefix=()):
    """Key paths to every dict entry and to each list's first item."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list) and value:
        items = [(0, value[0])]
    else:
        return []
    out = []
    for key, child in items:
        out.append(prefix + (key,))
        out.extend(_paths(child, prefix + (key,)))
    return out


def _edited(record, path, value=_DELETE):
    record = copy.deepcopy(record)
    parent = record
    for key in path[:-1]:
        parent = parent[key]
    if value is _DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return record


def documents(record):
    """`record` with one field deleted or replaced, or any JSON value."""
    paths = st.sampled_from(_paths(record))
    return st.one_of(
        st.builds(_edited, st.just(record), paths),
        st.builds(_edited, st.just(record), paths, json_leaves | json_values),
        json_values,
    )


def _all_finite(*values):
    return all(np.isfinite(np.asarray(v, dtype=float)).all() for v in values)


def _valid_model_record():
    rng = np.random.default_rng(11)
    mask = FeatureMask.parse("ang")
    raw = rng.normal(size=(9, mask.dims() + 2))
    pre = Preprocessing(FusionConfig(mask=mask, hog_weight=2.0, hog_dim=2))
    pre.pca = fit_pca(pre.apply(raw), n_components=3)
    labels = np.repeat([0, 1, 2], 3)
    model = train_multiclass(pre.apply(raw), labels, KernelParams(1.0, 0.5), preprocessing=pre)
    return model_to_dict(model)


VALID_FRAME = frame_to_dict(make_random_frame(np.random.default_rng(5)))
VALID_MODEL = _valid_model_record()


@FUZZ
@given(record=documents(VALID_FRAME))
def test_frame_from_dict_returns_finite_frame_or_data_error(record):
    try:
        frame = frame_from_dict(record)
    except DataError:
        return
    assert _all_finite(frame.palm_center, frame.palm_normal, frame.hand_direction, frame.fingertips)


@FUZZ
@given(record=documents(VALID_MODEL))
def test_model_from_dict_returns_finite_model_or_data_error(record):
    try:
        model = model_from_dict(record)
    except DataError:
        return
    assert model.coef.shape == (len(model.support_vectors), model.n_pairs)
    assert _all_finite(
        model.support_vectors, model.coef, model.bias, model.params.c, model.params.gamma
    )
    pre = model.preprocessing
    if pre is not None:
        assert _all_finite(pre.fusion.hog_weight)
        if pre.pca is not None:
            pca = pre.pca
            assert _all_finite(pca.mean, pca.components, pca.variances, pca.retained_fraction)


# ---------------------------------------------------------------------------
# Dataset manifests and experiment configs


@pytest.fixture(scope="module")
def dataset_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("dataset")
    save_dataset(generate_synthetic(subjects=1, reps=1, seed=3, image_size=32)[:2], root)
    return root


@FUZZ
@given(data=st.data())
def test_load_dataset_returns_finite_samples_or_data_error(dataset_root, data):
    record = data.draw(documents(jsonio.load_path(dataset_root / "dataset.json")))
    path = dataset_root / "fuzz.json"  # beside dataset.json, so its relative paths resolve
    path.write_text(json.dumps(record))
    try:
        samples = load_dataset(path)
    except DataError:
        return
    for sample in samples:
        assert all(isinstance(v, int) for v in (sample.subject, sample.gesture, sample.rep))
        frame = sample.frame
        assert _all_finite(frame.palm_center, frame.palm_normal, frame.hand_direction, frame.fingertips)
        assert all(img.dtype == np.uint8 and img.ndim == 2 for img in sample.images)


def _numbers(value):
    if isinstance(value, dict):
        return [n for v in value.values() for n in _numbers(v)]
    if isinstance(value, (list, tuple)):
        return [n for v in value for n in _numbers(v)]
    return [value] if isinstance(value, (int, float)) else []


VALID_CONFIG = json.loads(jsonio.dumps(asdict(ExperimentConfig())))


@FUZZ
@given(record=documents(VALID_CONFIG))
def test_config_from_dict_returns_finite_config_or_config_error(record):
    try:
        cfg = config_from_dict(record)
    except ConfigError:
        return
    assert all(isinstance(n, int) or math.isfinite(n) for n in _numbers(asdict(cfg)))
    assert all(isinstance(getattr(cfg, key), tuple) for key in ("k_values", "retentions", "c_grid"))


@FUZZ
@given(
    k_values=st.lists(st.integers(0, 50).map(float) | st.floats(0, 1e6), min_size=1),
    retentions=st.lists(st.just(1.0) | st.floats(0, 1, exclude_min=True), min_size=1),
    c_grid=st.lists(st.integers(1, 1000).map(float) | st.floats(1e-6, 1e6), min_size=1),
)
def test_config_floats_stay_floats_through_json(k_values, retentions, c_grid):
    cfg = config_from_dict(
        dict(VALID_CONFIG, k_values=k_values, retentions=retentions, c_grid=c_grid)
    )
    again = config_from_dict(json.loads(jsonio.dumps(asdict(cfg))))
    typed = [(type(n), n) for n in _numbers(asdict(cfg))]
    assert [(type(n), n) for n in _numbers(asdict(again))] == typed


# ---------------------------------------------------------------------------
# Feature archives (.npz)

@st.composite
def feature_archives(draw):
    """Arrays of any dtype under the archive's names, each left out, of any
    shape or of the shape that n rows need."""
    n = draw(st.integers(0, 4))
    any_shape = hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4)
    dtypes = st.sampled_from(["<f8", "<i8", "<u1", "|b1", "<U2"])
    archive = {}
    for name, shape in (("tracking", (n, 25)), ("hog", (n, 3)), ("labels", (n,)),
                        ("sample_ids", (n,))):
        kind = draw(st.sampled_from(["rows", "any", "rows", "absent", "rows"]))
        if kind != "absent":
            archive[name] = draw(hnp.arrays(draw(dtypes), draw(any_shape) if kind == "any" else shape))
    return archive


@FUZZ
@given(arrays=feature_archives())
def test_read_feature_store_returns_consistent_store_or_data_error(fuzz_dir, arrays):
    path = fuzz_dir / "fuzz.npz"
    np.savez(path, **arrays)
    try:
        store = _read_feature_store(path)
    except DataError:
        return
    n = len(store.tracking)
    assert store.tracking.shape == (n, 25) and np.isfinite(store.tracking).all()
    assert store.labels.shape == (n,) and store.labels.dtype.kind in "iu"
    assert ((store.labels >= 0) & (store.labels < 10)).all()
    assert len(store.sample_ids) == n
    if store.hog is not None:
        assert store.hog.ndim == 2 and len(store.hog) == n and np.isfinite(store.hog).all()
