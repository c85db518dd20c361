"""Soft-margin RBF support-vector machines trained with an SMO solver.

Binary models solve the standard dual

    minimize    0.5 a' Q a - sum(a)      with Q_ij = y_i y_j K(x_i, x_j)
    subject to  y' a = 0,  0 <= a_i <= C

by sequential minimal optimization with maximal-violating-pair working
set selection.  The multi-class wrapper trains one binary model per
unordered class pair and predicts by majority vote; ties are broken by
the largest sum of absolute decision values over the pairs involving
each tied class, then by class order.  Hyper-parameters are selected by
grid search with stratified k-fold cross-validation.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from . import jsonio
from .data import stratified_folds
from .errors import (
    DimensionMismatch,
    InsufficientData,
    NumericalError,
    ParseError,
    SchemaVersionMismatch,
    SingleClassData,
)
from .fusion import FusionConfig, PcaModel, fuse_matrix

DEFAULT_TOL = 1e-3
DEFAULT_MAX_ITER = 1_000_000
SV_EPS = 1e-8
# Relative tolerance of the dual equality y'a = 0, in units of c * n.
EQUALITY_RTOL = 1e-12


@dataclass(frozen=True)
class KernelParams:
    """RBF-SVM hyper-parameters: soft-margin penalty and kernel width."""

    c: float
    gamma: float

    def __post_init__(self):
        if not self.c > 0:
            raise ValueError("c must be > 0")
        if not self.gamma > 0:
            raise ValueError("gamma must be > 0")


def rbf_kernel(x, y, gamma):
    """exp(-gamma * ||x - y||^2) for a single pair of vectors."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise DimensionMismatch(f"vector shapes differ: {x.shape} vs {y.shape}")
    if not gamma > 0:
        raise ValueError("gamma must be > 0")
    diff = x - y
    return float(np.exp(-gamma * np.dot(diff, diff)))


def rbf_kernel_matrix(X, Y, gamma):
    """Kernel matrix between the rows of X and Y."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    if X.shape[1] != Y.shape[1]:
        raise DimensionMismatch(f"row dims differ: {X.shape[1]} vs {Y.shape[1]}")
    sq = (
        (X * X).sum(axis=1)[:, None]
        + (Y * Y).sum(axis=1)[None, :]
        - 2.0 * (X @ Y.T)
    )
    np.clip(sq, 0.0, None, out=sq)
    return np.exp(-gamma * sq)


@dataclass
class SmoResult:
    alpha: np.ndarray
    bias: float
    converged: bool
    iterations: int


def smo_solve(kernel, y, c, tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER):
    """Solve the SVM dual for labels y in {-1, +1}.

    `kernel` is the dense (n, n) training kernel matrix, as LIBSVM's
    precomputed-kernel mode takes it.  Iterates two-variable updates on
    the maximal-violating pair until the KKT violation gap drops below
    `tol` or the iteration budget is spent.  Returns multipliers, the
    bias (averaged over free support vectors, or the midpoint of the
    feasible interval if none are free), a convergence flag, and the
    update count.  A non-finite or infeasible result (for example from
    a kernel holding NaN) raises NumericalError.
    """
    y = np.asarray(y, dtype=float)
    n = y.size
    kernel = np.asarray(kernel, dtype=float)
    if kernel.shape != (n, n):
        raise DimensionMismatch(f"kernel is {kernel.shape}, labels need ({n}, {n})")
    alpha = np.zeros(n)
    grad = -np.ones(n)  # gradient of the dual objective at alpha = 0
    pos = y > 0

    converged = False
    iterations = 0
    while iterations < max_iter:
        v = -y * grad
        up = (pos & (alpha < c)) | (~pos & (alpha > 0.0))
        low = (pos & (alpha > 0.0)) | (~pos & (alpha < c))
        if not up.any() or not low.any():
            converged = True
            break
        i = int(np.argmax(np.where(up, v, -np.inf)))
        j = int(np.argmin(np.where(low, v, np.inf)))
        if v[i] - v[j] <= tol:
            converged = True
            break

        row_i = kernel[i]
        row_j = kernel[j]
        curvature = max(row_i[i] + row_j[j] - 2.0 * row_i[j], 1e-12)
        step = (v[i] - v[j]) / curvature
        cap_i = (c - alpha[i]) if pos[i] else alpha[i]
        cap_j = alpha[j] if pos[j] else (c - alpha[j])
        step = min(step, cap_i, cap_j)

        alpha[i] = min(max(alpha[i] + y[i] * step, 0.0), c)
        alpha[j] = min(max(alpha[j] - y[j] * step, 0.0), c)
        grad += step * y * (row_i - row_j)
        iterations += 1

    v = -y * grad
    free = (alpha > 0.0) & (alpha < c)
    if free.any():
        bias = float(np.mean(v[free]))
    else:
        up = (pos & (alpha < c)) | (~pos & (alpha > 0.0))
        low = (pos & (alpha > 0.0)) | (~pos & (alpha < c))
        hi = v[up].max() if up.any() else 0.0
        lo = v[low].min() if low.any() else 0.0
        bias = float(0.5 * (hi + lo))

    # Dual feasibility must hold regardless of convergence.  Each update
    # keeps y'a = 0 up to rounding of terms no larger than c, so the
    # tolerance scales with c and n.
    if not (np.isfinite(alpha).all() and np.isfinite(bias)):
        raise NumericalError(f"SMO produced a non-finite solution after {iterations} updates")
    if alpha.min() < 0.0 or alpha.max() > c or abs(np.dot(alpha, y)) > EQUALITY_RTOL * c * n:
        raise NumericalError(f"SMO produced an infeasible dual solution after {iterations} updates")
    return SmoResult(alpha=alpha, bias=bias, converged=converged, iterations=iterations)


@dataclass
class BinarySvmModel:
    """Trained binary classifier: decision(x) = sum_i coef_i k(sv_i, x) + bias."""

    support_vectors: np.ndarray
    dual_coefs: np.ndarray  # alpha_i * y_i for support vectors
    bias: float
    params: KernelParams
    converged: bool = True


def train_binary(X, y, params, tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER):
    """Train a binary RBF SVM on rows of X with labels y in {-1, +1}.

    The training kernel is one dense n x n matrix from rbf_kernel_matrix
    (the function prediction uses) with its diagonal set to exactly 1.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    if X.ndim != 2 or len(X) != len(y):
        raise ValueError("X must be (n, d) with one label per row")
    if not (np.any(y > 0) and np.any(y < 0)):
        raise SingleClassData("binary training needs both labels present")
    y = np.where(y > 0, 1.0, -1.0)

    kernel = rbf_kernel_matrix(X, X, params.gamma)
    np.fill_diagonal(kernel, 1.0)
    result = smo_solve(kernel, y, params.c, tol=tol, max_iter=max_iter)

    sv = result.alpha > SV_EPS
    if not sv.any():
        sv = result.alpha > 0.0
    if not sv.any():
        sv[int(np.argmax(result.alpha))] = True
    return BinarySvmModel(
        support_vectors=X[sv].copy(),
        dual_coefs=(result.alpha * y)[sv].copy(),
        bias=result.bias,
        params=params,
        converged=result.converged,
    )


def decision_values(model, X):
    """Decision function of a binary model on one or many vectors."""
    X = np.asarray(X, dtype=float)
    single = X.ndim == 1
    X = np.atleast_2d(X)
    if X.shape[1] != model.support_vectors.shape[1]:
        raise DimensionMismatch(
            f"input has {X.shape[1]} dims, model expects {model.support_vectors.shape[1]}"
        )
    k = rbf_kernel_matrix(X, model.support_vectors, model.params.gamma)
    vals = k @ model.dual_coefs + model.bias
    return float(vals[0]) if single else vals


# ---------------------------------------------------------------------------
# One-vs-one multi-class wrapper


@dataclass
class Preprocessing:
    """Feature preprocessing baked into a trained multi-class model.

    Input vectors are the unweighted concatenation [tracking segments,
    raw HOG]; apply() splits one vector or a stack of them at the layout's
    tracking width, weights them with fuse_matrix and projects through
    PCA when fitted.
    """

    fusion: FusionConfig
    pca: PcaModel | None = None

    def apply(self, X):
        X = np.asarray(X, dtype=float)
        if X.shape[-1] != self.fusion.total_dim:
            raise DimensionMismatch(
                f"input has {X.shape[-1]} dims, preprocessing expects {self.fusion.total_dim}"
            )
        td = self.fusion.tracking_dim
        out = fuse_matrix(X[..., :td], X[..., td:], self.fusion)
        if self.pca is not None:
            out = self.pca.transform(out)
        return out


@dataclass
class MulticlassSvm:
    """One-vs-one ensemble over an ordered class list.

    `models` maps each (class_i, class_j) pair with i < j in class order
    to a binary model whose positive side is class_i.
    """

    classes: list
    models: dict
    preprocessing: Preprocessing | None = None

    @property
    def n_pairs(self):
        return len(self.models)

    def all_converged(self):
        return all(m.converged for m in self.models.values())


def class_pairs(classes):
    return [
        (classes[i], classes[j])
        for i in range(len(classes))
        for j in range(i + 1, len(classes))
    ]


def train_multiclass(
    X,
    labels,
    params,
    max_iter=DEFAULT_MAX_ITER,
    preprocessing=None,
):
    """Train one binary model per unordered class pair, in class-pair order.

    Pairs are trained one after another: the SMO loop holds the
    interpreter lock, so a thread pool over pairs does not pay.
    """
    X = np.asarray(X, dtype=float)
    labels = np.asarray(labels)
    classes = [c.item() if hasattr(c, "item") else c for c in np.unique(labels)]
    pairs = class_pairs(classes)
    models = {}
    for ci, cj in pairs:
        rows = np.flatnonzero((labels == ci) | (labels == cj))
        y = np.where(labels[rows] == ci, 1.0, -1.0)
        try:
            models[(ci, cj)] = train_binary(X[rows], y, params, max_iter=max_iter)
        except SingleClassData as exc:
            raise SingleClassData(f"class pair ({ci}, {cj}): {exc}") from exc
    return MulticlassSvm(classes=classes, models=models, preprocessing=preprocessing)


def vote_table(model, X):
    """Votes and absolute-margin sums per class for rows of X.

    Returns (votes, margins): integer (n, m) vote counts summing to
    m(m-1)/2 per row, and float (n, m) sums of |decision value| over the
    pairs involving each class.
    """
    X = np.asarray(X, dtype=float)
    X = np.atleast_2d(X)
    if model.preprocessing is not None:
        X = model.preprocessing.apply(X)
    index = {c: k for k, c in enumerate(model.classes)}
    votes = np.zeros((len(X), len(model.classes)), dtype=int)
    margins = np.zeros((len(X), len(model.classes)))
    for (ci, cj), binary in model.models.items():
        vals = decision_values(binary, X)
        first = vals >= 0.0  # decision 0 goes to the pair's first class
        ki, kj = index[ci], index[cj]
        votes[:, ki] += first
        votes[:, kj] += ~first
        margins[:, ki] += np.abs(vals)
        margins[:, kj] += np.abs(vals)
    return votes, margins


def classify(model, X):
    """Predicted labels plus the winner's vote count for rows of X.

    The winner has the most votes; among tied classes, the largest
    margin sum, then the first in class order.
    """
    votes, margins = vote_table(model, X)
    tied = votes == votes.max(axis=1, keepdims=True)
    winners = np.argmax(np.where(tied, margins, -np.inf), axis=1)
    labels = np.asarray(model.classes)[winners]
    return labels, votes[np.arange(len(votes)), winners]


def predict(model, X):
    """Predicted class label(s) by majority vote over all pairs."""
    labels, _ = classify(model, X)
    return labels[0].item() if np.ndim(X) == 1 else labels


# ---------------------------------------------------------------------------
# Grid search


def grid_search(X, labels, c_grid, gamma_grid, folds=10, seed=0):
    """Pick (C, gamma) by stratified k-fold cross-validated accuracy.

    Ties go to the smaller C, then the smaller gamma.  Classes with
    fewer samples than `folds` degrade the fold count to the smallest
    class size (leave-one-out per class) with a warning; classes with
    fewer than 2 samples are an error.  Returns the winning params and
    the CV table: one {"c", "gamma", "accuracy"} dict per grid point, in
    ascending C then gamma order, with the accuracy pooled over all
    held-out folds.
    """
    X = np.asarray(X, dtype=float)
    labels = np.asarray(labels)
    if len(c_grid) == 0 or len(gamma_grid) == 0:
        raise ValueError("parameter grids must be non-empty")
    if folds < 2:
        raise ValueError("folds must be >= 2")
    if len(labels) == 0:
        raise InsufficientData("training set is empty")
    _, counts = np.unique(labels, return_counts=True)
    min_count = int(counts.min())
    if min_count < 2:
        raise InsufficientData(
            f"smallest class has {min_count} sample(s); need at least 2 for CV"
        )
    if min_count < folds:
        warnings.warn(
            f"reducing folds from {folds} to {min_count} (smallest class size)",
            stacklevel=2,
        )
        folds = min_count

    fold_of = stratified_folds(labels, folds, seed)
    best = None
    table = []
    for c in sorted(c_grid):
        for gamma in sorted(gamma_grid):
            params = KernelParams(c=c, gamma=gamma)
            correct = 0
            for f in range(folds):
                train = fold_of != f
                held = ~train
                model = train_multiclass(X[train], labels[train], params)
                pred = predict(model, X[held])
                correct += int(np.sum(pred == labels[held]))
            accuracy = correct / len(labels)
            table.append({"c": c, "gamma": gamma, "accuracy": accuracy})
            if best is None or accuracy > best[0]:
                best = (accuracy, params)
    return best[1], table


# ---------------------------------------------------------------------------
# Serialization


def model_to_dict(model):
    pairs = []
    for (ci, cj), binary in model.models.items():
        pairs.append(
            {
                "first": ci,
                "second": cj,
                "support_vectors": binary.support_vectors.tolist(),
                "dual_coefs": binary.dual_coefs.tolist(),
                "bias": float(binary.bias),
                "c": float(binary.params.c),
                "gamma": float(binary.params.gamma),
                "converged": bool(binary.converged),
            }
        )
    pre = None
    if model.preprocessing is not None:
        pre = {
            "fusion": model.preprocessing.fusion.to_dict(),
            "pca": None
            if model.preprocessing.pca is None
            else model.preprocessing.pca.to_dict(),
        }
    return {
        "version": 1,
        "kind": "gesturelab-multiclass-svm",
        "classes": list(model.classes),
        "pairs": pairs,
        "preprocessing": pre,
    }


def model_from_dict(data):
    """Multi-class model from its model.json record.

    A missing or mistyped field, arrays whose shapes disagree, a pair
    naming an unlisted class and any non-finite number raise ParseError;
    a version other than 1 raises SchemaVersionMismatch.
    """
    try:
        if data.get("version") != 1:
            raise SchemaVersionMismatch(f"unsupported model version {data.get('version')!r}")
        classes = list(data["classes"])
        if not classes:
            raise ValueError("model lists no classes")
        models = {}
        for rec in data["pairs"]:
            pair = (rec["first"], rec["second"])
            binary = BinarySvmModel(
                support_vectors=np.asarray(rec["support_vectors"], dtype=float),
                dual_coefs=np.asarray(rec["dual_coefs"], dtype=float),
                bias=float(rec["bias"]),
                params=KernelParams(c=float(rec["c"]), gamma=float(rec["gamma"])),
                converged=bool(rec["converged"]),
            )
            sv, coefs = binary.support_vectors, binary.dual_coefs
            if not set(pair) <= set(classes):
                raise ValueError(f"pair {pair} names a class not in {classes}")
            if sv.ndim != 2 or coefs.shape != (len(sv),):
                raise ValueError(f"pair {pair}: {coefs.shape} coefficients, {sv.shape} vectors")
            numbers = (sv, coefs, binary.bias, binary.params.c, binary.params.gamma)
            if not all(np.isfinite(x).all() for x in numbers):
                raise ValueError(f"pair {pair} holds a non-finite number")
            models[pair] = binary
        pre = None
        if data.get("preprocessing") is not None:
            raw = data["preprocessing"]
            pre = Preprocessing(
                fusion=FusionConfig.from_dict(raw["fusion"]),
                pca=None if raw.get("pca") is None else PcaModel.from_dict(raw["pca"]),
            )
        return MulticlassSvm(classes=classes, models=models, preprocessing=pre)
    except (KeyError, TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise ParseError(f"invalid model record: {exc}") from exc


def save_model(model, path):
    jsonio.dump_path(model_to_dict(model), path)


def load_model(path):
    return model_from_dict(jsonio.load_path(path))
