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

Training is kernel-first, as in LIBSVM's precomputed-kernel mode: a
multi-class fit builds one Gram matrix over its rows and a grid search
one squared-distance matrix over its rows; every pair, fold and C then
indexes into that matrix instead of recomputing kernel entries.
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


def _squared_distances(X, Y):
    """|x|^2 + |y|^2 - 2 x.y between the rows of X and Y, clipped at 0."""
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
    return sq


def rbf_kernel_matrix(X, Y, gamma):
    """Kernel matrix between the rows of X and Y."""
    return np.exp(-gamma * _squared_distances(X, Y))


def _training_kernel(sq, gamma):
    """exp(-gamma * sq) of square distances, with its diagonal set to exactly 1."""
    kernel = np.exp(-gamma * sq)
    np.fill_diagonal(kernel, 1.0)
    return kernel


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
    pos = y > 0
    # v = -y * gradient of the dual objective, which is -1 at alpha = 0.
    v = y.copy()
    # Index sets of rows whose alpha may move up / down along y.  Only
    # alpha_i and alpha_j change per update, so only their entries move.
    up = (pos & (alpha < c)) | (~pos & (alpha > 0.0))
    low = (pos & (alpha > 0.0)) | (~pos & (alpha < c))
    # Scalar work per update runs on Python floats, which is cheaper than
    # numpy scalars and rounds the same (IEEE double).
    is_pos = pos.tolist()
    signs = y.tolist()

    converged = False
    iterations = 0
    while iterations < max_iter:
        if not up.any() or not low.any():
            converged = True
            break
        i = int(np.argmax(np.where(up, v, -np.inf)))
        j = int(np.argmin(np.where(low, v, np.inf)))
        gap = v.item(i) - v.item(j)
        if gap <= tol:
            converged = True
            break

        row_i = kernel[i]
        row_j = kernel[j]
        curvature = max(row_i.item(i) + row_j.item(j) - 2.0 * row_i.item(j), 1e-12)
        step = gap / curvature
        a_i, a_j = alpha.item(i), alpha.item(j)
        cap_i = (c - a_i) if is_pos[i] else a_i
        cap_j = a_j if is_pos[j] else (c - a_j)
        step = min(step, cap_i, cap_j)

        a_i = min(max(a_i + signs[i] * step, 0.0), c)
        a_j = min(max(a_j - signs[j] * step, 0.0), c)
        alpha[i], alpha[j] = a_i, a_j
        v -= step * (row_i - row_j)
        for k, a in ((i, a_i), (j, a_j)):
            if is_pos[k]:
                up[k], low[k] = a < c, a > 0.0
            else:
                up[k], low[k] = a > 0.0, a < c
        iterations += 1

    free = (alpha > 0.0) & (alpha < c)
    if free.any():
        bias = float(np.mean(v[free]))
    else:
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


def _fit_pair(kernel, y, c, max_iter, tol=DEFAULT_TOL):
    """SMO on one binary problem's training kernel.

    Returns (support mask, dual coefficients alpha_i * y_i of the support
    vectors, SmoResult).
    """
    result = smo_solve(kernel, y, c, tol=tol, max_iter=max_iter)
    sv = result.alpha > SV_EPS
    if not sv.any():
        sv = result.alpha > 0.0
    if not sv.any():
        sv[int(np.argmax(result.alpha))] = True
    return sv, (result.alpha * y)[sv], result


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

    kernel = _training_kernel(_squared_distances(X, X), params.gamma)
    sv, coefs, result = _fit_pair(kernel, y, params.c, max_iter, tol=tol)
    return BinarySvmModel(
        support_vectors=X[sv],
        dual_coefs=coefs,
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


def _classes(labels):
    return [c.item() if hasattr(c, "item") else c for c in np.unique(labels)]


def _pair_problems(labels, classes):
    """(pair, rows, y) per class pair in class-pair order: the rows of
    `labels` in the pair, and y = +1 for the pair's first class."""
    for ci, cj in class_pairs(classes):
        rows = np.flatnonzero((labels == ci) | (labels == cj))
        yield (ci, cj), rows, np.where(labels[rows] == ci, 1.0, -1.0)


def train_multiclass(
    X,
    labels,
    params,
    max_iter=DEFAULT_MAX_ITER,
    preprocessing=None,
):
    """Train one binary model per unordered class pair, in class-pair order.

    The kernel is built once per call: one n x n training Gram over the
    rows of X, with its diagonal set to exactly 1.  Each pair's SMO takes
    the pair's block of it, `kernel[np.ix_(rows, rows)]`.  Pairs are
    trained one after another: the SMO loop holds the interpreter lock,
    so a thread pool over pairs does not pay.
    """
    X = np.asarray(X, dtype=float)
    labels = np.asarray(labels)
    kernel = _training_kernel(_squared_distances(X, X), params.gamma)
    classes = _classes(labels)
    models = {}
    for pair, rows, y in _pair_problems(labels, classes):
        sv, coefs, result = _fit_pair(kernel[np.ix_(rows, rows)], y, params.c, max_iter)
        models[pair] = BinarySvmModel(
            support_vectors=X[rows[sv]],
            dual_coefs=coefs,
            bias=result.bias,
            params=params,
            converged=result.converged,
        )
    return MulticlassSvm(classes=classes, models=models, preprocessing=preprocessing)


def _vote(classes, n, pair_values):
    """One-vs-one vote over n rows from (pair, decision values) items.

    Decision 0 goes to the pair's first class.  Returns (votes, margins,
    winners): integer (n, m) vote counts, float (n, m) sums of
    |decision value| over the pairs involving each class, and each row's
    winning class index: the most votes, then among tied classes the
    largest margin sum, then the first in class order.
    """
    index = {c: k for k, c in enumerate(classes)}
    votes = np.zeros((n, len(classes)), dtype=int)
    margins = np.zeros((n, len(classes)))
    for (ci, cj), vals in pair_values:
        first = vals >= 0.0
        ki, kj = index[ci], index[cj]
        votes[:, ki] += first
        votes[:, kj] += ~first
        margins[:, ki] += np.abs(vals)
        margins[:, kj] += np.abs(vals)
    tied = votes == votes.max(axis=1, keepdims=True)
    winners = np.argmax(np.where(tied, margins, -np.inf), axis=1)
    return votes, margins, winners


def _model_vote(model, X):
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if model.preprocessing is not None:
        X = model.preprocessing.apply(X)
    values = ((pair, decision_values(binary, X)) for pair, binary in model.models.items())
    return _vote(model.classes, len(X), values)


def vote_table(model, X):
    """Votes and absolute-margin sums per class for rows of X.

    Returns (votes, margins): integer (n, m) vote counts summing to
    m(m-1)/2 per row, and float (n, m) sums of |decision value| over the
    pairs involving each class.
    """
    votes, margins, _ = _model_vote(model, X)
    return votes, margins


def classify(model, X):
    """Predicted labels plus the winner's vote count for rows of X.

    The winner has the most votes; among tied classes, the largest
    margin sum, then the first in class order.
    """
    votes, _, winners = _model_vote(model, X)
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

    The kernel is built once per call: squared distances between all
    rows of X, then one kernel exp(-gamma * D) per gamma with its
    diagonal set to 1.  Every fold, pair and C indexes that matrix: a
    pair's training kernel is K[np.ix_(rows, rows)] and its held-out
    decision values are K[np.ix_(held, support rows)] @ coefs + bias.
    The result equals training train_multiclass on each fold's rows and
    classifying the held-out rows.
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

    grid = [[KernelParams(c=c, gamma=g) for g in sorted(gamma_grid)] for c in sorted(c_grid)]
    fold_of = stratified_folds(labels, folds, seed)
    sq = _squared_distances(X, X)
    correct = np.zeros((len(grid), len(grid[0])), dtype=int)
    for g, gamma in enumerate(sorted(gamma_grid)):
        kernel = _training_kernel(sq, gamma)
        for f in range(folds):
            train = np.flatnonzero(fold_of != f)
            held = np.flatnonzero(fold_of == f)
            train_labels = labels[train]
            classes = _classes(train_labels)
            values = [[] for _ in grid]
            for pair, rows, y in _pair_problems(train_labels, classes):
                rows = train[rows]
                pair_kernel = kernel[np.ix_(rows, rows)]
                for k, row in enumerate(grid):
                    sv, coefs, result = _fit_pair(pair_kernel, y, row[g].c, DEFAULT_MAX_ITER)
                    held_kernel = kernel[np.ix_(held, rows[sv])]
                    values[k].append((pair, held_kernel @ coefs + result.bias))
            for k, pair_values in enumerate(values):
                _, _, winners = _vote(classes, len(held), pair_values)
                pred = np.asarray(classes)[winners]
                correct[k, g] += int(np.sum(pred == labels[held]))

    best = None
    table = []
    for k, row in enumerate(grid):
        for g, params in enumerate(row):
            accuracy = int(correct[k, g]) / len(labels)
            table.append({"c": params.c, "gamma": params.gamma, "accuracy": accuracy})
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
