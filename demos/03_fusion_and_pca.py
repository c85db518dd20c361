"""Weighted fusion of tracking and image features, then PCA.

Shows how the fusion weight reshapes the RBF geometry, and how
variance-based retention picks the component count.
"""

import numpy as np

from gesturelab import FeatureMask, FusionConfig, fit_pca, fuse_matrix, rbf_kernel_matrix
from gesturelab.harness import ExperimentConfig, SyntheticSpec, build_feature_store, load_samples

cfg = ExperimentConfig(synthetic=SyntheticSpec(subjects=2, reps=5, seed=15))
store = build_feature_store(load_samples(cfg), cfg)
mask = FeatureMask.parse("ang+dist+tip")
tracking = store.tracking[:, mask.column_indices()]
print("tracking block:", tracking.shape, " hog block:", store.hog.shape)

# The fused vector is [tracking segments, K * HOG].  Because the RBF
# kernel sees only squared distances, K acts as a per-segment scale:
#   k(fused1, fused2) = exp(-gamma * (|dt|^2 + K^2 |dh|^2))
gamma = 0.02
x0t, x1t = tracking[0], tracking[1]
x0h, x1h = store.hog[0], store.hog[1]
dt = np.sum((x0t - x1t) ** 2)
dh = np.sum((x0h - x1h) ** 2)
print("\nsquared distances: tracking %.3f, hog %.3f" % (dt, dh))
for k in (0.0, 1.0, 3.0, 5.0, 9.0):
    fused_cfg = FusionConfig(mask=mask, hog_weight=k, hog_dim=store.hog.shape[1])
    fused_pair = fuse_matrix([x0t, x1t], [x0h, x1h], fused_cfg)
    value = rbf_kernel_matrix(fused_pair[:1], fused_pair[1:], gamma)[0, 0]
    predicted = np.exp(-gamma * (dt + k * k * dh))
    print(f"K={k}: kernel {value:.6f} (split-segment form {predicted:.6f})")

# PCA on the weighted fused matrix.  Retention picks the smallest
# component count whose cumulative variance meets the threshold.
fused_cfg = FusionConfig(mask=mask, hog_weight=1.0, hog_dim=store.hog.shape[1])
fused = fuse_matrix(tracking, store.hog, fused_cfg)
print("\nfused matrix:", fused.shape)
for fraction in (0.6, 0.8, 0.9, 0.99, 1.0):
    model = fit_pca(fused, retained_fraction=fraction)
    kept = model.variances.sum()
    print(
        f"retain {fraction:4.2f} -> {model.n_components:3d} components "
        f"({kept:.1f} of the variance mass)"
    )

# Retention 1.0 is an orthogonal change of basis: pairwise distances,
# and hence RBF kernels, are untouched.
full = fit_pca(fused, retained_fraction=1.0)
projected = full.transform(fused)
d_raw = np.linalg.norm(fused[3] - fused[11])
d_pca = np.linalg.norm(projected[3] - projected[11])
print(f"\ndistance preserved by full-rank PCA: {d_raw:.9f} vs {d_pca:.9f}")
