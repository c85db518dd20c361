"""Weighted feature fusion and principal-component reduction.

Fusion concatenates the selected tracking segments with the image
descriptor scaled by a nonnegative weight.  Because the RBF kernel
depends only on squared distances, scaling the image segment by K is
equivalent to an anisotropic kernel with per-segment scales (1, K^2):
the weight controls how much the image features contribute relative to
the geometric ones.

PCA is fit on the already-weighted training matrix; components are kept
until a requested fraction of the total variance is retained (or until
a requested component count, for sensitivity checks).  Features are
deliberately not standardized first: z-scoring would cancel the fusion
weight.
"""

from dataclasses import dataclass, field

import numpy as np

from . import jsonio
from .errors import (
    DegenerateData,
    DimensionMismatch,
    LayoutMismatch,
    SchemaVersionMismatch,
)
from .tracking import FeatureMask

# Eigenvalues below RANK_TOL * largest are treated as numerical zeros.
RANK_TOL = 1e-12


@dataclass(frozen=True)
class FusionConfig:
    """Layout of the fused vector: tracking segments then weighted HOG."""

    mask: FeatureMask = field(default_factory=FeatureMask)
    hog_weight: float = 1.0
    hog_dim: int = 0

    def __post_init__(self):
        if not 0.0 <= self.hog_weight < np.inf:
            raise ValueError("hog_weight must be finite and >= 0")
        if self.hog_dim < 0:
            raise ValueError("hog_dim must be >= 0")

    @property
    def tracking_dim(self):
        return self.mask.dims()

    @property
    def total_dim(self):
        return self.tracking_dim + self.hog_dim

    def to_dict(self):
        return {
            "mask": self.mask.label(),
            "hog_weight": float(self.hog_weight),
            "hog_dim": int(self.hog_dim),
        }

    @classmethod
    def from_dict(cls, data):
        return cls(
            mask=FeatureMask.parse(data["mask"]),
            hog_weight=jsonio.number(data["hog_weight"]),
            hog_dim=jsonio.integer(data["hog_dim"]),
        )


def fuse_matrix(tracking, hog, cfg):
    """Fused rows [selected tracking segments, hog_weight * HOG].

    `tracking` and `hog` are one vector each or stacks with equal leading shapes.
    """
    t = np.asarray(tracking, dtype=float)
    h = np.asarray(hog, dtype=float)
    if min(t.ndim, h.ndim) == 0 or t.shape[:-1] != h.shape[:-1]:
        raise LayoutMismatch("tracking and hog must have matching rows")
    if t.shape[-1] != cfg.tracking_dim or h.shape[-1] != cfg.hog_dim:
        raise LayoutMismatch(
            f"segments {t.shape[-1]}+{h.shape[-1]} do not match layout "
            f"{cfg.tracking_dim}+{cfg.hog_dim}"
        )
    # One allocation: fusing a store is the largest transient of an experiment.
    out = np.empty(t.shape[:-1] + (t.shape[-1] + h.shape[-1],))
    out[..., : t.shape[-1]] = t
    np.multiply(cfg.hog_weight, h, out=out[..., t.shape[-1] :])
    return out


# ---------------------------------------------------------------------------
# PCA


@dataclass
class PcaModel:
    """Fitted principal components: row-orthonormal, variance-ordered."""

    mean: np.ndarray
    components: np.ndarray  # (k, d)
    variances: np.ndarray  # (k,), non-increasing
    retained_fraction: float  # variance share the kept components carry

    @property
    def n_components(self):
        return self.components.shape[0]

    @property
    def input_dim(self):
        return self.components.shape[1]

    def transform(self, x):
        """Coordinates of x on the components: (x - mean) @ components.T.

        An (n, 1, d) stack is projected one row at a time, so each row
        gets the same bits alone or in any batch.
        """
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.input_dim:
            raise DimensionMismatch(
                f"input has {x.shape[-1]} dims, model expects {self.input_dim}"
            )
        return (x - self.mean) @ self.components.T

    def to_dict(self):
        return {
            "version": 1,
            "mean": self.mean.tolist(),
            "components": self.components.tolist(),
            "variances": self.variances.tolist(),
            "retained_fraction": float(self.retained_fraction),
        }

    @classmethod
    def from_dict(cls, data):
        if data.get("version") != 1:
            raise SchemaVersionMismatch(
                f"unsupported PCA model version {data.get('version')!r}"
            )
        model = cls(
            mean=jsonio.numbers(data["mean"], 1),
            components=jsonio.numbers(data["components"], 2),
            variances=jsonio.numbers(data["variances"], 1),
            retained_fraction=jsonio.number(data["retained_fraction"]),
        )
        if (model.components.ndim != 2 or model.mean.shape != (model.input_dim,)
                or model.variances.shape != (model.n_components,)):
            shapes = (model.mean.shape, model.components.shape, model.variances.shape)
            raise ValueError(f"PCA mean, components and variances of shapes {shapes}")
        if not 0.0 < model.retained_fraction <= 1.0:
            raise ValueError(f"retained fraction {model.retained_fraction!r} is not in (0, 1]")
        numbers = (model.mean, model.components, model.variances, model.retained_fraction)
        if not all(np.isfinite(x).all() for x in numbers):
            raise ValueError("PCA model holds a non-finite number")
        # fit_pca keeps only variances of at least RANK_TOL * the largest, in
        # descending order.  Its rows are unit and orthogonal to d * eps, but
        # the Gram route's map-back loses orthogonality in proportion to
        # largest / sqrt(v_i * v_j): the tolerance scales with both.
        v = model.variances
        if not ((v > 0.0).all() and (np.diff(v) <= 0.0).all() and v[-1] >= v[0] * RANK_TOL):
            raise ValueError(
                f"PCA variances must be positive, non-increasing and at least {RANK_TOL:g} "
                f"of the largest: {v.tolist()}"
            )
        spread = np.sqrt(v[0] / v)
        tol = 64 * model.input_dim * np.finfo(float).eps * np.outer(spread, spread)
        with np.errstate(over="ignore", invalid="ignore"):
            error = np.abs(model.components @ model.components.T - np.eye(len(v)))
        if not (error <= tol).all():
            raise ValueError(f"PCA components are not row-orthonormal (error {error.max():.3g})")
        return model


def fit_pca(data, retained_fraction=None, n_components=None):
    """Fit a PCA model on the rows of `data`.

    Exactly one of `retained_fraction` (select the smallest component
    count whose cumulative variance fraction meets the threshold) or
    `n_components` (fixed count, capped at the rank) must be given.
    The model records the variance share its components actually keep,
    which can exceed the requested fraction.
    Components carry a deterministic sign: the largest-magnitude entry
    of each is positive.  Equal eigenvalues keep the solver's order
    (stable sort by descending eigenvalue).
    """
    if (retained_fraction is None) == (n_components is None):
        raise ValueError("give exactly one of retained_fraction or n_components")
    if retained_fraction is not None and not 0.0 < retained_fraction <= 1.0:
        raise ValueError("retained_fraction must be in (0, 1]")
    data = np.asarray(data, dtype=float)
    if data.ndim != 2 or data.shape[0] < 2:
        raise ValueError("data must be an (n, d) matrix with n >= 2")
    n, d = data.shape

    mean = data.mean(axis=0)
    centered = data - mean
    gram_route = d > n
    if gram_route:
        # Work on the smaller Gram matrix; it shares the nonzero spectrum.
        eigvals, eigvecs = np.linalg.eigh(centered @ centered.T / (n - 1))
    else:
        eigvals, eigvecs = np.linalg.eigh(centered.T @ centered / (n - 1))

    order = np.argsort(-eigvals, kind="stable")
    eigvals = np.clip(eigvals[order], 0.0, None)
    if eigvals[0] <= 0.0:
        raise DegenerateData("data has zero total variance (all rows identical)")
    eigvals[eigvals < eigvals[0] * RANK_TOL] = 0.0
    rank = int(np.count_nonzero(eigvals))

    cumulative = np.cumsum(eigvals)
    total = cumulative[-1]
    if n_components is not None:
        if n_components < 1:
            raise ValueError("n_components must be >= 1")
        k = min(n_components, rank)
    else:
        target = retained_fraction * total
        k = int(np.searchsorted(cumulative, target, side="left")) + 1
        k = min(k, rank)

    if gram_route:
        # Only the kept components are mapped back to the d input dims;
        # their eigenvalues are positive, as k <= rank.
        components = np.zeros((k, d))
        for row, i in zip(components, order[:k]):
            vec = centered.T @ eigvecs[:, i]
            norm = np.linalg.norm(vec)
            if norm > 0:
                row[:] = vec / norm
    else:
        components = eigvecs.T[order[:k]]
    for row in components:
        if row[np.argmax(np.abs(row))] < 0:
            row *= -1.0
    return PcaModel(
        mean=mean,
        components=components,
        variances=eigvals[:k].copy(),
        retained_fraction=float(cumulative[k - 1] / total),
    )
