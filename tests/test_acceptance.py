"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  The end-to-end criterion (7) builds the full default
synthetic dataset and takes a few minutes; everything else is fast.
"""

import time

import numpy as np
import pytest

from conftest import make_random_frame, solve_one
from gesturelab.data import generate_synthetic
from gesturelab.fusion import FusionConfig, fit_pca, fuse_matrix
from gesturelab.geometry import rotation_matrix
from gesturelab.harness import (
    ExperimentConfig,
    SyntheticSpec,
    build_feature_store,
    emit_report,
    load_samples,
    run_experiment,
)
from gesturelab.image import (
    HogParams,
    UndistortionMap,
    binarize,
    compute_hog,
    hog_length,
    undistort,
)
from gesturelab.svm import (
    KernelParams,
    classify,
    rbf_kernel_matrix,
    train_multiclass,
)
from gesturelab.tracking import FeatureMask, HandFrame, extract_tracking_features
from oracles import dual_objective, jacobi_eigh, svm_dual_solve_pg

ADT = FeatureMask.parse("ang+dist+tip")
ADET = FeatureMask.parse("ang+dist+elev+tip")


def _report(criterion, elapsed, detail):
    print(f"[acceptance] criterion {criterion} PASS ({elapsed:.1f}s): {detail}")


# ---------------------------------------------------------------------------
# 1. Structural counts and dimensionalities


def test_criterion_1_structure():
    start = time.time()
    samples = generate_synthetic(subjects=2, reps=3, seed=31)
    store = build_feature_store(
        samples, ExperimentConfig(synthetic=SyntheticSpec(subjects=2, reps=3, seed=31))
    )
    model = train_multiclass(
        store.tracking[:, ADT.column_indices()],
        store.labels,
        KernelParams(c=10.0, gamma=0.5),
    )
    assert model.n_pairs == 45
    assert len(set(model.pairs)) == 45

    frame = samples[0].frame
    feats = extract_tracking_features(frame)
    assert feats.vector(ADT).shape == (20,)
    assert feats.vector(ADET).shape == (25,)

    assert store.hog.shape[1] == 1764
    fused = fuse_matrix(
        store.tracking[:, ADT.column_indices()],
        store.hog,
        FusionConfig(mask=ADT, hog_weight=1.0, hog_dim=1764),
    )
    assert fused.shape[1] == 20 + 1764
    elapsed = time.time() - start
    assert elapsed < 60.0
    _report(1, elapsed, "45 pair models; dims 20 / 25 / 1784")


# ---------------------------------------------------------------------------
# 2. Geometric-feature invariance


def test_criterion_2_invariance():
    start = time.time()
    rng = np.random.default_rng(2024)
    worst_rigid = 0.0
    worst_scale = 0.0
    for _ in range(1000):
        frame = make_random_frame(rng, n_tips=int(rng.integers(1, 6)))
        base = extract_tracking_features(frame)
        base_vec = base.vector()

        rot = rotation_matrix(rng.normal(size=3), rng.uniform(0.0, 2 * np.pi))
        shift = rng.uniform(-200.0, 200.0, size=3)
        moved = HandFrame(
            palm_center=rot @ frame.palm_center + shift,
            palm_normal=rot @ frame.palm_normal,
            hand_direction=rot @ frame.hand_direction,
            fingertips=(rot @ frame.fingertips.T).T + shift,
            middle_index=frame.middle_index,
        )
        worst_rigid = max(
            worst_rigid,
            float(np.abs(extract_tracking_features(moved).vector() - base_vec).max()),
        )

        lam = rng.uniform(0.2, 5.0)
        scaled = HandFrame(
            palm_center=frame.palm_center,
            palm_normal=frame.palm_normal,
            hand_direction=frame.hand_direction,
            fingertips=frame.palm_center + lam * (frame.fingertips - frame.palm_center),
            middle_index=frame.middle_index,
        )
        other = extract_tracking_features(scaled)
        for name in ("distances", "elevations", "tip_distances"):
            worst_scale = max(
                worst_scale,
                float(np.abs(getattr(base, name) - getattr(other, name)).max()),
            )
    assert worst_rigid < 1e-9
    assert worst_scale < 1e-9
    elapsed = time.time() - start
    assert elapsed < 10.0
    _report(2, elapsed, f"1000 frames: rigid {worst_rigid:.1e}, scale {worst_scale:.1e}")


# ---------------------------------------------------------------------------
# 3. PCA against the Jacobi oracle


def test_criterion_3_pca_oracle():
    start = time.time()
    rng = np.random.default_rng(3)
    for trial in range(20):
        n = int(rng.integers(5, 61))
        d = int(rng.integers(2, 61))
        data = rng.normal(size=(n, d)) * rng.uniform(0.5, 2.0, size=d)
        model = fit_pca(data, retained_fraction=1.0)
        centered = data - data.mean(axis=0)
        cov = centered.T @ centered / (n - 1)
        vals, vecs = jacobi_eigh(cov)
        k = model.n_components
        assert np.abs(model.variances - vals[:k]).max() < 1e-8

        # grouped subspace projectors are gap-insensitive
        groups = []
        group = [0]
        for i in range(1, k):
            if vals[i - 1] - vals[i] > 1e-6 * max(vals[0], 1.0):
                groups.append(group)
                group = []
            group.append(i)
        groups.append(group)
        for group in groups:
            ours = model.components[group].T @ model.components[group]
            theirs = vecs[:, group] @ vecs[:, group].T
            assert np.abs(ours - theirs).max() < 1e-8

        # minimality of variance-retention selection
        fraction = float(rng.uniform(0.5, 0.99))
        small = fit_pca(data, retained_fraction=fraction)
        total = vals.sum()
        kk = small.n_components
        assert vals[:kk].sum() / total >= fraction - 1e-12
        if kk > 1:
            assert vals[: kk - 1].sum() / total < fraction
    elapsed = time.time() - start
    assert elapsed < 30.0
    _report(3, elapsed, "20 matrices: eigenvalues, projectors, minimal retention")


# ---------------------------------------------------------------------------
# 4. SMO against the projected-gradient oracle


def test_criterion_4_svm_oracle():
    start = time.time()
    rng = np.random.default_rng(4)
    worst = 0.0
    for trial in range(50):
        n = int(rng.integers(4, 13))
        d = int(rng.integers(1, 5))
        X = rng.normal(size=(n, d))
        y = np.concatenate([[1.0, -1.0], rng.choice([1.0, -1.0], size=n - 2)])
        c = float(rng.uniform(0.5, 10.0))
        gamma = float(rng.uniform(0.1, 2.0))
        K = rbf_kernel_matrix(X, X, gamma)
        np.fill_diagonal(K, 1.0)

        result = solve_one(K, y, c, tol=1e-6)
        assert result.converged
        assert result.alpha.min() >= 0.0
        assert result.alpha.max() <= c + 1e-8
        assert abs(np.dot(result.alpha, y)) <= 1e-8

        alpha_pg = svm_dual_solve_pg(K, y, c)
        gap = abs(dual_objective(K, y, result.alpha) - dual_objective(K, y, alpha_pg))
        worst = max(worst, gap)
        assert gap < 1e-4
    elapsed = time.time() - start
    assert elapsed < 120.0
    _report(4, elapsed, f"50 instances: worst objective gap {worst:.1e}")


# ---------------------------------------------------------------------------
# 5. Kernel identity under segment weighting


def test_criterion_5_kernel_weighting_identity():
    start = time.time()
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(100):
        k = float(rng.uniform(0.0, 9.0))
        gamma = float(rng.uniform(0.005, 0.5))
        cfg = FusionConfig(mask=ADT, hog_weight=k, hog_dim=50)
        t1, t2 = rng.normal(size=(2, 20))
        h1, h2 = rng.normal(size=(2, 50))
        lhs = rbf_kernel_matrix(
            [np.concatenate([t1, k * h1])], [np.concatenate([t2, k * h2])], gamma
        )[0, 0]
        rhs = float(
            np.exp(-gamma * (np.sum((t1 - t2) ** 2) + k * k * np.sum((h1 - h2) ** 2)))
        )
        worst = max(worst, abs(lhs - rhs))
        assert abs(lhs - rhs) < 1e-12
        assert cfg.total_dim == 70
    elapsed = time.time() - start
    _report(5, elapsed, f"100 pairs: worst kernel deviation {worst:.1e}")


# ---------------------------------------------------------------------------
# 6. Isometry checks


def test_criterion_6_isometries():
    start = time.time()
    samples = generate_synthetic(subjects=2, reps=3, seed=66)
    cfg = ExperimentConfig(synthetic=SyntheticSpec(subjects=2, reps=3, seed=66))
    store = build_feature_store(samples, cfg)
    tracking = store.tracking[:, ADT.column_indices()]
    fusion = FusionConfig(mask=ADT, hog_weight=1.0, hog_dim=store.hog.shape[1])
    fused = fuse_matrix(tracking, store.hog, fusion)
    labels = store.labels
    train = np.arange(len(labels)) % 3 != 0
    test = ~train
    params = KernelParams(c=10.0, gamma=0.02)

    # retention-1.0 PCA is an isometric change of basis of the data span
    pca = fit_pca(fused, retained_fraction=1.0)
    projected = pca.transform(fused)
    k_raw = rbf_kernel_matrix(fused, fused, params.gamma)
    k_pca = rbf_kernel_matrix(projected, projected, params.gamma)
    assert np.abs(k_raw - k_pca).max() < 1e-10

    model_raw = train_multiclass(fused[train], labels[train], params)
    model_pca = train_multiclass(projected[train], labels[train], params)
    pred_raw = classify(model_raw, fused[test])[0]
    pred_pca = classify(model_pca, projected[test])[0]
    assert np.array_equal(pred_raw, pred_pca)

    # zero fusion weight annihilates the HOG segment entirely
    zeroed = fuse_matrix(tracking, store.hog, FusionConfig(mask=ADT, hog_weight=0.0, hog_dim=store.hog.shape[1]))
    params_t = KernelParams(c=10.0, gamma=0.5)
    model_zero = train_multiclass(zeroed[train], labels[train], params_t)
    model_track = train_multiclass(tracking[train], labels[train], params_t)
    pred_zero = classify(model_zero, zeroed[test])[0]
    pred_track = classify(model_track, tracking[test])[0]
    assert np.array_equal(pred_zero, pred_track)
    elapsed = time.time() - start
    _report(6, elapsed, "PCA(1.0) kernels equal to 1e-10; K=0 equals tracking-only")


# ---------------------------------------------------------------------------
# 7. Synthetic end-to-end fusion ordering


@pytest.fixture(scope="module")
def full_store():
    cfg = ExperimentConfig(synthetic=SyntheticSpec())  # 13 x 10 x 20, seeded
    samples = load_samples(cfg)
    assert len(samples) == 2600
    return build_feature_store(samples, cfg)


def test_criterion_7_end_to_end(full_store):
    start = time.time()
    protocol = dict(
        c_grid=(10.0,),
        gamma_grid=(0.02, 0.5),
        folds=2,
        repetitions=10,
        train_fraction=0.8,
        seed=20240811,
    )
    runs = {
        "tracking": ExperimentConfig(features="ang+dist+tip", use_hog=False, **protocol),
        "hog": ExperimentConfig(features="none", use_hog=True, k_values=(1.0,), **protocol),
        "fused": ExperimentConfig(
            features="ang+dist+tip", use_hog=True, k_values=(1.0,), **protocol
        ),
    }
    means = {}
    for name, cfg in runs.items():
        report = run_experiment(cfg, store=full_store)
        cell = report.cells[0]
        assert len(cell.accuracies) == 10
        assert all(len(rows) == 520 for rows in cell.predictions)
        assert np.all(cell.confusion.sum(axis=1) == 10 * 52)
        means[name] = cell.mean_accuracy

    assert means["tracking"] >= 0.85
    assert means["hog"] >= means["tracking"] - 0.05
    assert means["fused"] >= max(means["tracking"], means["hog"]) - 0.01
    assert means["fused"] >= 0.95
    elapsed = time.time() - start
    assert elapsed < 1200.0
    _report(
        7,
        elapsed,
        "mean accuracies: tracking {tracking:.4f}, hog {hog:.4f}, fused {fused:.4f}".format(
            **means
        ),
    )


# ---------------------------------------------------------------------------
# 8. Protocol reproduction shape


def test_criterion_8_protocol_shape(tmp_path):
    start = time.time()
    cfg = ExperimentConfig(
        synthetic=SyntheticSpec(subjects=2, reps=4, seed=88),
        features="ang+dist+tip",
        use_hog=False,
        c_grid=(10.0,),
        gamma_grid=(0.5,),
        folds=2,
        repetitions=50,
        seed=1234,
    )
    samples = load_samples(cfg)
    store = build_feature_store(samples, cfg)

    report_a = run_experiment(cfg, store=store)
    emit_report(report_a, tmp_path / "a")
    report_b = run_experiment(cfg, store=store)
    emit_report(report_b, tmp_path / "b")

    lines = (tmp_path / "a" / "report.csv").read_text().strip().split("\n")
    rows = [line.split(",") for line in lines[1:]]
    rep_rows = [r for r in rows if r[3] != "mean"]
    mean_rows = [r for r in rows if r[3] == "mean"]
    assert len(rep_rows) == 50
    assert len(mean_rows) == 1
    accs = [float(r[4]) for r in rep_rows]
    assert abs(float(mean_rows[0][4]) - np.mean(accs)) <= 1e-12

    import os

    files_a = sorted(os.listdir(tmp_path / "a"))
    files_b = sorted(os.listdir(tmp_path / "b"))
    assert files_a == files_b
    for name in files_a:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    elapsed = time.time() - start
    _report(8, elapsed, "50 rows + exact mean; byte-identical reruns")


# ---------------------------------------------------------------------------
# 9. Image pipeline goldens


def test_criterion_9_image_goldens():
    start = time.time()
    rng = np.random.default_rng(9)

    img = rng.integers(0, 256, size=(40, 56)).astype(np.uint8)
    assert np.array_equal(undistort(img, UndistortionMap.identity(7, 5), (56, 40)), img)

    assert np.array_equal(compute_hog(np.full((64, 64), 9, np.uint8)), np.zeros(1764))

    combos = [
        ((64, 64), HogParams()),
        ((64, 64), HogParams(cell_size=16)),
        ((32, 48), HogParams()),
        ((40, 40), HogParams(cell_size=10, block_cells=3, bins=6)),
        ((64, 32), HogParams(block_stride=2)),
    ]
    for (w, h), params in combos:
        probe = rng.integers(0, 256, size=(h, w)).astype(np.uint8)
        assert len(compute_hog(probe, params)) == hog_length(w, h, params)

    for _ in range(50):
        a, b = sorted(rng.choice(256, size=2, replace=False))
        values = np.where(rng.random(400) < rng.uniform(0.05, 0.95), a, b).astype(np.uint8)
        values[:2] = (a, b)  # both classes always present
        two_valued = values.reshape(20, 20)
        out = binarize(two_valued)
        assert np.all(out[two_valued == a] == 0)
        assert np.all(out[two_valued == b] == 255)
    elapsed = time.time() - start
    assert elapsed < 10.0
    _report(9, elapsed, "identity map, zero HOG, 5 length combos, 50 Otsu splits")
