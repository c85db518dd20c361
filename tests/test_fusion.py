import numpy as np
import pytest

from gesturelab.errors import DegenerateData, DimensionMismatch, LayoutMismatch, ParseError
from gesturelab.fusion import RANK_TOL, FusionConfig, PcaModel, fit_pca, fuse_matrix
from gesturelab.jsonio import dump_path, load_path
from gesturelab.svm import (
    KernelParams,
    Preprocessing,
    model_from_dict,
    model_to_dict,
    rbf_kernel_matrix,
    train_multiclass,
)
from gesturelab.tracking import FeatureMask
from oracles import jacobi_eigh

ADT = FeatureMask.parse("ang+dist+tip")


# ---------------------------------------------------------------------------
# Fusion


def test_fuse_dimensions_and_unscaled_hog(rng):
    cfg = FusionConfig(mask=ADT, hog_weight=1.0, hog_dim=1764)
    t = rng.normal(size=20)
    h = rng.normal(size=1764)
    fused = fuse_matrix(t, h, cfg)
    assert fused.shape == (1784,)
    assert np.array_equal(fused[:20], t)
    assert np.array_equal(fused[20:], h)


def test_fuse_zero_weight_annihilates():
    cfg = FusionConfig(mask=ADT, hog_weight=0.0, hog_dim=8)
    fused = fuse_matrix(np.ones(20), np.ones(8), cfg)
    assert np.array_equal(fused[20:], np.zeros(8))


def test_fuse_weight_scales_linearly(rng):
    h = rng.normal(size=16)
    t = rng.normal(size=20)
    one = fuse_matrix(t, h, FusionConfig(mask=ADT, hog_weight=1.0, hog_dim=16))
    five = fuse_matrix(t, h, FusionConfig(mask=ADT, hog_weight=5.0, hog_dim=16))
    assert np.array_equal(five[20:], 5.0 * one[20:])
    assert np.array_equal(five[:20], one[:20])


def test_fuse_is_linear_in_hog_segment(rng):
    cfg = FusionConfig(mask=ADT, hog_weight=3.0, hog_dim=12)
    t = rng.normal(size=20)
    h = rng.normal(size=12)
    with_h = fuse_matrix(t, h, cfg)
    without = fuse_matrix(t, np.zeros(12), cfg)
    assert np.allclose(with_h - without, np.concatenate([np.zeros(20), 3.0 * h]), atol=0)


def test_fuse_layout_mismatch():
    cfg = FusionConfig(mask=ADT, hog_weight=1.0, hog_dim=8)
    with pytest.raises(LayoutMismatch):
        fuse_matrix(np.zeros(19), np.zeros(8), cfg)
    with pytest.raises(LayoutMismatch):
        fuse_matrix(np.zeros(20), np.zeros(9), cfg)
    with pytest.raises(LayoutMismatch):
        fuse_matrix(np.zeros((4, 20)), np.zeros((3, 8)), cfg)


def test_fusion_segments_layout():
    cfg = FusionConfig(mask=ADT, hog_weight=2.0, hog_dim=100)
    assert cfg.total_dim == 120


def test_fusion_config_roundtrip():
    cfg = FusionConfig(mask=ADT, hog_weight=4.0, hog_dim=1764)
    assert FusionConfig.from_dict(cfg.to_dict()) == cfg


def test_rbf_weighting_equivalence(rng):
    # kernel on K-scaled fused vectors == anisotropic split-segment kernel
    cfg1 = FusionConfig(mask=ADT, hog_weight=1.0, hog_dim=30)
    for _ in range(50):
        k = rng.uniform(0.0, 9.0)
        gamma = rng.uniform(0.01, 1.0)
        cfgk = FusionConfig(mask=ADT, hog_weight=k, hog_dim=30)
        t1, t2 = rng.normal(size=(2, 20))
        h1, h2 = rng.normal(size=(2, 30))
        a, b = fuse_matrix([t1, t2], [h1, h2], cfgk)
        lhs = rbf_kernel_matrix([a], [b], gamma)[0, 0]
        dt = np.sum((t1 - t2) ** 2)
        dh = np.sum((h1 - h2) ** 2)
        rhs = np.exp(-gamma * (dt + k * k * dh))
        assert abs(lhs - rhs) < 1e-12
        assert cfg1.total_dim == cfgk.total_dim


# ---------------------------------------------------------------------------
# PCA fitting


def test_pca_single_axis():
    x = np.zeros((40, 4))
    x[:, 2] = np.linspace(-3, 3, 40)
    model = fit_pca(x, retained_fraction=0.8)
    assert model.n_components == 1
    assert np.allclose(np.abs(model.components[0]), [0, 0, 1, 0], atol=1e-12)
    assert model.components[0, 2] > 0  # sign convention


def test_pca_lossless_reconstruction(rng):
    data = rng.normal(size=(30, 8))
    model = fit_pca(data, retained_fraction=1.0)
    assert model.n_components == 8  # full-rank random data
    recon = model.transform(data) @ model.components + model.mean
    assert np.abs(recon - data).max() < 1e-8


def test_pca_matches_jacobi_oracle(rng):
    for _ in range(5):
        n, d = int(rng.integers(20, 60)), int(rng.integers(3, 12))
        data = rng.normal(size=(n, d)) @ np.diag(rng.uniform(0.2, 3.0, size=d))
        model = fit_pca(data, retained_fraction=1.0)
        centered = data - data.mean(axis=0)
        cov = centered.T @ centered / (n - 1)
        vals, vecs = jacobi_eigh(cov)
        k = model.n_components
        assert np.abs(model.variances - vals[:k]).max() < 1e-8
        for i in range(k):
            # same subspace direction up to sign
            assert abs(abs(np.dot(model.components[i], vecs[:, i])) - 1.0) < 1e-8


def test_pca_gram_path_matches_covariance_path(rng):
    data = rng.normal(size=(10, 40))  # d > n exercises the Gram branch
    model = fit_pca(data, retained_fraction=1.0)
    centered = data - data.mean(axis=0)
    cov = centered.T @ centered / (len(data) - 1)
    vals, _ = jacobi_eigh(cov)
    k = model.n_components
    assert k == 9  # rank of 10 centered rows
    assert np.abs(model.variances - vals[:k]).max() < 1e-8
    eye = model.components @ model.components.T
    assert np.abs(eye - np.eye(k)).max() < 1e-8
    recon = model.transform(data) @ model.components + model.mean
    assert np.abs(recon - data).max() < 1e-8


def test_pca_retention_minimality(rng):
    for _ in range(10):
        data = rng.normal(size=(50, 10)) @ np.diag(rng.uniform(0.1, 4.0, size=10))
        fraction = rng.uniform(0.5, 0.99)
        model = fit_pca(data, retained_fraction=fraction)
        centered = data - data.mean(axis=0)
        cov = centered.T @ centered / (len(data) - 1)
        vals = np.sort(np.linalg.eigvalsh(cov))[::-1]
        total = vals.sum()
        k = model.n_components
        assert vals[:k].sum() / total >= fraction - 1e-12
        if k > 1:
            assert vals[: k - 1].sum() / total < fraction


def test_pca_records_retained_variance(rng):
    data = rng.normal(size=(60, 8)) @ np.diag(rng.uniform(0.1, 4.0, size=8))
    total = np.var(data, axis=0, ddof=1).sum()
    for fraction in (0.5, 0.8, 0.95):
        model = fit_pca(data, retained_fraction=fraction)
        assert model.retained_fraction == pytest.approx(model.variances.sum() / total, abs=1e-12)
        assert model.retained_fraction >= fraction
    model = fit_pca(data, n_components=3)
    assert model.retained_fraction == pytest.approx(model.variances.sum() / total, abs=1e-12)


def test_pca_orthonormal_components(rng):
    data = rng.normal(size=(60, 12))
    model = fit_pca(data, retained_fraction=0.9)
    eye = model.components @ model.components.T
    assert np.abs(eye - np.eye(model.n_components)).max() < 1e-8


def test_pca_transformed_covariance_is_diagonal(rng):
    data = rng.normal(size=(200, 6)) @ rng.normal(size=(6, 6))
    model = fit_pca(data, retained_fraction=1.0)
    z = model.transform(data)
    cov = z.T @ z / (len(z) - 1)  # transform centers the data
    for i in range(model.n_components):
        assert cov[i, i] == pytest.approx(model.variances[i], rel=1e-6)
        for j in range(i + 1, model.n_components):
            assert abs(cov[i, j]) < 1e-6 * max(model.variances[0], 1.0)


def test_pca_row_order_invariance(rng):
    data = rng.normal(size=(40, 7))
    model_a = fit_pca(data, retained_fraction=0.9)
    model_b = fit_pca(data[rng.permutation(len(data))], retained_fraction=0.9)
    assert model_a.n_components == model_b.n_components
    assert np.abs(model_a.mean - model_b.mean).max() < 1e-8
    assert np.abs(model_a.components - model_b.components).max() < 1e-8
    assert np.abs(model_a.variances - model_b.variances).max() < 1e-8


def test_pca_degenerate_data():
    data = np.tile([1.0, 2.0, 3.0], (10, 1))
    with pytest.raises(DegenerateData):
        fit_pca(data, retained_fraction=0.8)


def test_pca_component_count_mode(rng):
    data = rng.normal(size=(50, 10))
    model = fit_pca(data, n_components=3)
    assert model.n_components == 3
    with pytest.raises(ValueError):
        fit_pca(data)
    with pytest.raises(ValueError):
        fit_pca(data, retained_fraction=0.8, n_components=3)


# ---------------------------------------------------------------------------
# PCA transform


def test_transform_of_mean_is_zero(rng):
    data = rng.normal(size=(30, 5))
    model = fit_pca(data, retained_fraction=1.0)
    assert np.abs(model.transform(model.mean)).max() < 1e-12


def test_transform_of_component_is_basis_vector(rng):
    data = rng.normal(size=(30, 5))
    model = fit_pca(data, retained_fraction=1.0)
    z = model.transform(model.mean + model.components[0])
    expected = np.zeros(model.n_components)
    expected[0] = 1.0
    assert np.abs(z - expected).max() < 1e-10


def test_transform_dimension_mismatch(rng):
    data = rng.normal(size=(30, 5))
    model = fit_pca(data, retained_fraction=1.0)
    with pytest.raises(DimensionMismatch):
        model.transform(np.zeros(6))


# ---------------------------------------------------------------------------
# Serialization


def test_pca_serialization_bit_faithful(tmp_path, rng):
    data = rng.normal(size=(25, 6))
    model = fit_pca(data, retained_fraction=0.95)
    path = tmp_path / "pca.json"
    dump_path(model.to_dict(), path)
    loaded = PcaModel.from_dict(load_path(path))
    assert np.array_equal(loaded.mean, model.mean)
    assert np.array_equal(loaded.components, model.components)
    assert np.array_equal(loaded.variances, model.variances)
    assert loaded.retained_fraction == model.retained_fraction


def test_pca_serialization_version_check(tmp_path, rng):
    from gesturelab.errors import SchemaVersionMismatch

    model = fit_pca(rng.normal(size=(10, 3)), retained_fraction=1.0)
    data = model.to_dict()
    data["version"] = 2
    with pytest.raises(SchemaVersionMismatch):
        PcaModel.from_dict(data)


def _pca_model_record(rng):
    """model.json record of an SVM trained on the PCA coordinates of fused rows."""
    mask = FeatureMask.parse("ang+tip")
    raw = rng.normal(size=(20, mask.dims() + 4))
    layout = FusionConfig(mask=mask, hog_weight=1.0, hog_dim=4)
    pre = Preprocessing(fusion=layout, pca=fit_pca(raw, retained_fraction=1.0))
    labels = np.repeat([0, 1], 10)
    model = train_multiclass(pre.apply(raw), labels, KernelParams(1.0, 0.1), preprocessing=pre)
    return model_to_dict(model)


def test_model_rejects_pca_variances_fit_pca_cannot_produce(rng):
    def set_last(v, value):
        v[-1] = value

    edits = {
        "negative": lambda v: set_last(v, -1.0),
        "zero": lambda v: set_last(v, 0.0),
        "increasing": lambda v: set_last(v, 2.0 * v[0]),
        "below the rank tolerance": lambda v: set_last(v, 0.1 * RANK_TOL * v[0]),
    }
    assert model_from_dict(_pca_model_record(rng))  # the unedited record loads
    for name, edit in edits.items():
        record = _pca_model_record(rng)
        edit(record["preprocessing"]["pca"]["variances"])
        with pytest.raises(ParseError, match="variances"):
            model_from_dict(record)
            pytest.fail(f"{name}: no ParseError")


def test_model_rejects_non_orthonormal_pca_components(rng):
    def scale_first(c, factor):
        c[0] = [factor * x for x in c[0]]

    def copy_first(c):
        c[1] = list(c[0])

    edits = {
        "row scaled by 10": lambda c: scale_first(c, 10.0),
        "row scaled by 1 + 1e-9": lambda c: scale_first(c, 1.0 + 1e-9),
        "two equal rows": copy_first,
    }
    for name, edit in edits.items():
        record = _pca_model_record(rng)
        edit(record["preprocessing"]["pca"]["components"])
        with pytest.raises(ParseError, match="orthonormal"):
            model_from_dict(record)
            pytest.fail(f"{name}: no ParseError")


def test_model_rejects_widths_its_preprocessing_cannot_give(rng):
    # The fused layout is the PCA input, and the PCA output (without PCA,
    # the layout) is the support vectors' width.  A record that breaks
    # either would load and fail only when it classifies.
    raw = rng.normal(size=(20, ADT.dims() + 4))
    labels = np.repeat([0, 1], 10)
    plain = Preprocessing(fusion=FusionConfig(mask=ADT, hog_weight=0.5, hog_dim=4))
    pca = Preprocessing(fusion=plain.fusion, pca=fit_pca(plain.apply(raw), n_components=3))
    edits = [
        (pca, lambda r: r["preprocessing"]["fusion"].update(mask="ang+dist"), "PCA takes 24 dims"),
        (pca, lambda r: r["preprocessing"].update(pca=None), "support vectors have 3 dims"),
        (plain, lambda r: r["preprocessing"]["fusion"].update(hog_dim=5), "preprocessing gives 25"),
    ]
    for pre, edit, match in edits:
        model = train_multiclass(pre.apply(raw), labels, KernelParams(1.0, 0.1), preprocessing=pre)
        record = model_to_dict(model)
        assert model_from_dict(record)  # unedited, it loads
        edit(record)
        with pytest.raises(ParseError, match=match):
            model_from_dict(record)


def test_gram_route_pca_with_a_wide_spectrum_loads():
    # d > n takes the Gram route, whose components lose orthogonality as
    # the kept variances spread: here by far more than d * eps.
    data = np.random.default_rng(4).normal(size=(30, 40)) * np.logspace(0, -6, 40)
    model = fit_pca(data, retained_fraction=1.0)
    error = np.abs(model.components @ model.components.T - np.eye(model.n_components)).max()
    assert model.variances[-1] < 1e-8 * model.variances[0] and error > 1e-10
    loaded = PcaModel.from_dict(model.to_dict())
    assert np.array_equal(loaded.components, model.components)
