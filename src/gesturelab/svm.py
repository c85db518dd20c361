"""Soft-margin one-vs-one RBF support-vector machines.

Each unordered class pair solves the binary SVM dual by SMO (`smo.py`);
the pairs of one fit are solved there together, in lockstep.  The pairs
form one model table, as in LIBSVM: each support vector stored once and
one coefficient column per pair, so the decision values of all pairs are
`K @ coef + bias`; the class list fixes the pairs, (classes[i],
classes[j]) for i < j in that order, as in LIBSVM.  Prediction is by
majority vote; ties are broken by the largest sum of absolute decision
values over the pairs involving each tied class, then by class order.
Hyper-parameters are selected by grid search with stratified k-fold
cross-validation.

Training is kernel-first, as in LIBSVM's precomputed-kernel mode: a
multi-class fit builds one Gram matrix over its rows and a grid search
one squared-distance matrix over its rows; every pair, fold and C then
indexes into that matrix instead of recomputing kernel entries.
"""

import itertools
import warnings
from dataclasses import dataclass

import numpy as np

from . import jsonio
from .data import stratified_folds
from .errors import DataError, DimensionMismatch, InsufficientData, NumericalError, ParseError
from .errors import SchemaVersionMismatch, SingleClassData
from .fusion import FusionConfig, PcaModel, fuse_matrix
from .smo import DEFAULT_MAX_ITER, DEFAULT_TOL, _smo_lockstep, smo_solve  # noqa: F401  (API)

SV_EPS = 1e-8


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
    """exp(-gamma * sq) of square distances, with its diagonal set to exactly 1.

    Entries lie in [0, 1], so a NaN sum means a NaN entry (from a row
    holding NaN or inf): NumericalError, before any SMO update.
    """
    kernel = np.exp(-gamma * sq)
    if not np.isfinite(kernel.sum()):
        raise NumericalError("training kernel holds a non-finite value")
    np.fill_diagonal(kernel, 1.0)
    return kernel


# ---------------------------------------------------------------------------
# One-vs-one model table


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
    """One-vs-one model as one table, in LIBSVM's layout.

    Each support vector is stored once, as a row of `support_vectors`
    (n_sv, d).  `coef` (n_sv, pairs) holds alpha_i * y_i of row i in
    each pair's column, zero where row i is not a support vector of that
    pair.  The pairs are `class_pairs(classes)`; pair p = (class_i,
    class_j) decides `kernel(x, support_vectors) @ coef[:, p] + bias[p]`,
    and a value >= 0 goes to class_i.  `params` holds the C and gamma
    every pair was trained with, and `converged` one flag per pair.
    """

    classes: list
    support_vectors: np.ndarray
    coef: np.ndarray
    bias: np.ndarray
    params: KernelParams
    converged: np.ndarray
    preprocessing: Preprocessing | None = None

    @property
    def pairs(self):
        return class_pairs(self.classes)

    @property
    def n_pairs(self):
        return len(self.pairs)

    def all_converged(self):
        return bool(np.all(self.converged))


def class_pairs(classes):
    return list(itertools.combinations(classes, 2))


def _classes(labels):
    return [c.item() if hasattr(c, "item") else c for c in np.unique(labels)]


def _fit_pairs(kernel, labels, classes, c, max_iter):
    """SMO on every class pair of one training kernel, in class-pair order.

    `kernel` is the (n, n) Gram matrix of the rows that `labels` labels.
    A pair trains on its rows with y = +1 for its first class; one
    (pairs, n) membership mask gives the padded rows and labels of all
    pairs, which `_smo_lockstep` solves together.  A pair's support
    vectors are the rows with alpha > SV_EPS, or with alpha > 0 if none
    exceeds SV_EPS.  Returns (coef, bias, converged): the (n, pairs)
    matrix of alpha_i * y_i of each pair's support vectors, zero
    elsewhere, and (pairs,) biases and convergence flags.
    """
    onehot = labels == np.asarray(classes)[:, None]
    first, second = np.triu_indices(len(classes), 1)  # class_pairs order
    flat = np.flatnonzero(onehot[first] | onehot[second])
    pp, kk = np.divmod(flat, len(labels))
    sizes = np.bincount(pp, minlength=len(first))
    index = np.zeros((len(first), sizes.max(initial=0)), dtype=np.intp)
    y = np.zeros(index.shape)
    # Flat slot of each (pair, row): the row's rank within its pair.
    slot = pp * index.shape[1] + np.arange(len(flat)) - (np.cumsum(sizes) - sizes)[pp]
    index.put(slot, kk)
    y.put(slot, np.where(onehot[first].ravel()[flat], 1.0, -1.0))
    result = _smo_lockstep(kernel, index, y, c, DEFAULT_TOL, max_iter)
    sv = result.alpha > SV_EPS
    sv |= (result.alpha > 0.0) & ~sv.any(axis=1, keepdims=True)
    pp, kk = np.nonzero(sv)
    coef = np.zeros((len(labels), len(first)))
    coef[index[pp, kk], pp] = (result.alpha * y)[pp, kk]
    return coef, result.bias, result.converged


def _training_rows(X, labels):
    """X as a float (n, d) array and labels as (n,), else DimensionMismatch;
    a NaN or infinite entry raises NumericalError before any distance uses it."""
    X = np.asarray(X, dtype=float)
    labels = np.asarray(labels)
    if X.ndim != 2 or labels.ndim != 1 or len(X) != len(labels):
        raise DimensionMismatch(f"X is {X.shape} and labels {labels.shape}; need (n, d) and (n,)")
    if not np.isfinite(X).all():
        raise NumericalError("training rows hold a non-finite value")
    return X, labels


def train_multiclass(X, labels, params, max_iter=DEFAULT_MAX_ITER, preprocessing=None):
    """Train every class pair on one Gram matrix and keep each support vector once.

    The Gram matrix is n x n over the rows of X, with its diagonal set
    to exactly 1.  X must be (n, d) with n labels, or DimensionMismatch
    is raised; fewer than 2 classes raise SingleClassData, and a row
    holding NaN or infinity NumericalError.
    """
    X, labels = _training_rows(X, labels)
    classes = _classes(labels)
    if len(classes) < 2:
        raise SingleClassData(f"training needs at least 2 classes, got {len(classes)}")
    kernel = _training_kernel(_squared_distances(X, X), params.gamma)
    coef, bias, converged = _fit_pairs(kernel, labels, classes, params.c, max_iter)
    keep = coef.any(axis=1)
    return MulticlassSvm(
        classes=classes, support_vectors=X[keep], coef=coef[keep],
        bias=bias, params=params, converged=converged, preprocessing=preprocessing,
    )


def _vote(m, values):
    """One-vs-one vote of m classes over the rows of an (n, class pairs) decision matrix.

    Decision 0 goes to the pair's first class.  Returns (votes, margins,
    winners): integer (n, m) vote counts, float (n, m) sums of
    |decision value| over the pairs involving each class, and each row's
    winning class index: the most votes, then among tied classes the
    largest margin sum, then the first in class order.  Entry [j, c] of
    the (m, m, n) win and |margin| tables is class c against class j, so
    the sum over j adds c's pairs one by one in pair order, as a loop would.
    """
    first, second = np.triu_indices(m, 1)
    wins = np.zeros((m, m, len(values)), dtype=bool)
    wins[second, first] = values.T >= 0.0
    wins[first, second] = values.T < 0.0
    margin = np.zeros(wins.shape)
    margin[second, first] = margin[first, second] = np.abs(values.T)
    votes, margins = wins.sum(axis=0).T, margin.sum(axis=0).T
    tied = votes == votes.max(axis=1, keepdims=True)
    winners = np.argmax(np.where(tied, margins, -np.inf), axis=1)
    return votes, margins, winners


def decision_table(model, X):
    """(n, pairs) decision values for one row or a stack of rows.

    Rows pass through the model's preprocessing first.  An input width
    other than the preprocessing's (without preprocessing, the support
    vectors', if there are any) raises DimensionMismatch, and a NaN or
    infinite input DataError.  A model with no support vectors decides
    by its biases alone.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if not np.isfinite(X).all():
        raise DataError("input rows hold a non-finite value")
    if model.preprocessing is not None:
        X = model.preprocessing.apply(X)
    sv = model.support_vectors
    kernel = rbf_kernel_matrix(X, sv, model.params.gamma) if len(sv) else np.empty((len(X), 0))
    return kernel @ model.coef + model.bias


def vote_table(model, X):
    """Votes and absolute-margin sums per class for rows of X.

    Returns (votes, margins): integer (n, m) vote counts summing to the
    pair count per row, and float (n, m) sums of |decision value| over
    the pairs involving each class.
    """
    votes, margins, _ = _vote(len(model.classes), decision_table(model, X))
    return votes, margins


def classify(model, X):
    """Predicted labels plus the winner's vote count for rows of X.

    The winner has the most votes; among tied classes, the largest
    margin sum, then the first in class order.
    """
    votes, _, winners = _vote(len(model.classes), decision_table(model, X))
    labels = np.asarray(model.classes)[winners]
    return labels, votes[np.arange(len(votes)), winners]


# ---------------------------------------------------------------------------
# Grid search


def grid_search(X, labels, c_grid, gamma_grid, folds=10, seed=0):
    """Pick (C, gamma) by stratified k-fold cross-validated accuracy.

    X must be (n, d) with n labels, as for train_multiclass.  Ties go
    to the smaller C, then the smaller gamma.  Classes with fewer
    samples than `folds` degrade the fold count to the smallest class
    size (leave-one-out per class) with a warning; classes with fewer
    than 2 samples are an error.  Returns the winning params and the CV
    table: one {"c", "gamma", "accuracy"} dict per grid point, in
    ascending C then gamma order, with the accuracy pooled over all
    held-out folds.

    One squared-distance matrix D over all rows of X gives one kernel
    K = exp(-gamma * D) per gamma, diagonal 1.  Every fold and C trains
    all pairs on K[train][:, train] and scores the held-out rows with
    K[held][:, train] @ coef + bias, as train_multiclass and classify
    would on the fold's rows.
    """
    X, labels = _training_rows(X, labels)
    if len(c_grid) == 0 or len(gamma_grid) == 0:
        raise ValueError("parameter grids must be non-empty")
    if folds < 2:
        raise ValueError("folds must be >= 2")
    if len(labels) == 0:
        raise InsufficientData("training set is empty")
    _, counts = np.unique(labels, return_counts=True)
    min_count = int(counts.min())
    if min_count < 2:
        raise InsufficientData(f"smallest class has {min_count} sample(s); need at least 2 for CV")
    if min_count < folds:
        warnings.warn(
            f"reducing folds from {folds} to {min_count} (smallest class size)", stacklevel=2
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
            classes = _classes(labels[train])
            train_kernel = kernel[np.ix_(train, train)]
            held_kernel = kernel[np.ix_(held, train)]
            for k, row in enumerate(grid):
                coef, bias, _ = _fit_pairs(
                    train_kernel, labels[train], classes, row[g].c, DEFAULT_MAX_ITER
                )
                _, _, winners = _vote(len(classes), held_kernel @ coef + bias)
                correct[k, g] += int(np.sum(np.asarray(classes)[winners] == labels[held]))

    points = [params for row in grid for params in row]
    accuracy = correct.ravel() / len(labels)
    table = [{"c": p.c, "gamma": p.gamma, "accuracy": float(a)} for p, a in zip(points, accuracy)]
    return points[int(accuracy.argmax())], table  # the first best wins ties


# ---------------------------------------------------------------------------
# Serialization


def model_to_dict(model):
    pre = None
    if model.preprocessing is not None:
        pre = {
            "fusion": model.preprocessing.fusion.to_dict(),
            "pca": None
            if model.preprocessing.pca is None
            else model.preprocessing.pca.to_dict(),
        }
    return {
        "version": 2,
        "kind": "gesturelab-multiclass-svm",
        "classes": list(model.classes),
        "c": float(model.params.c),
        "gamma": float(model.params.gamma),
        "pairs": [list(pair) for pair in model.pairs],
        "bias": model.bias.tolist(),
        "converged": model.converged.tolist(),
        "support_vectors": model.support_vectors.tolist(),
        "coef": model.coef.tolist(),
        "preprocessing": pre,
    }


def _v1_table(records):
    """(pairs, support_vectors, coef, bias, params, converged) from version-1
    per-pair records, each distinct support vector stored once.

    Every pair must carry the same C and gamma.
    """
    pairs, blocks, columns, params = [], [], [], set()
    for rec in records:
        vectors = jsonio.numbers(rec["support_vectors"], 2)
        coefs = jsonio.numbers(rec["dual_coefs"], 1)
        if vectors.ndim != 2 or coefs.shape != (len(vectors),):
            raise ValueError(f"pair record: {coefs.shape} coefficients, {vectors.shape} vectors")
        pairs.append((jsonio.integer(rec["first"]), jsonio.integer(rec["second"])))
        blocks.append(vectors)
        columns.append(coefs)
        params.add((jsonio.number(rec["c"]), jsonio.number(rec["gamma"])))
    if len(params) != 1:
        raise ValueError(f"pairs must share one C and gamma, got {sorted(params)}")
    vectors, inverse = np.unique(np.vstack(blocks), axis=0, return_inverse=True)
    inverse = inverse.reshape(-1)
    coef = np.zeros((len(vectors), len(pairs)))
    pair_of = np.repeat(np.arange(len(pairs)), [len(b) for b in blocks])
    np.add.at(coef, (inverse, pair_of), np.concatenate(columns))
    c, gamma = params.pop()
    bias = [jsonio.number(rec["bias"]) for rec in records]
    converged = [_flag(rec["converged"]) for rec in records]
    return pairs, vectors, coef, bias, KernelParams(c=c, gamma=gamma), converged


def _flag(value):
    """A JSON boolean; any other value raises TypeError."""
    if not isinstance(value, bool):
        raise TypeError(f"expected true or false, got {value!r}")
    return value


def model_from_dict(data):
    """Multi-class model from its model.json record, version 2 or 1.

    `classes` must be distinct integers, at least two, and the pairs
    exactly `class_pairs(classes)`.  A missing or mistyped field, any
    other pair list, arrays whose shapes disagree and any non-finite
    number raise ParseError, as do version-1 pairs that disagree on C or
    gamma; any other version raises SchemaVersionMismatch.
    """
    try:
        version = data.get("version")
        if version not in (1, 2):
            raise SchemaVersionMismatch(f"unsupported model version {version!r}")
        classes = [jsonio.integer(c) for c in data["classes"]]
        if version == 1:
            pairs, vectors, coef, bias, params, converged = _v1_table(data["pairs"])
        else:
            pairs = [tuple(map(jsonio.integer, pair)) for pair in data["pairs"]]
            vectors = jsonio.numbers(data["support_vectors"], 2)
            coef = jsonio.numbers(data["coef"], 2)
            bias = jsonio.numbers(data["bias"], 1)
            params = KernelParams(c=jsonio.number(data["c"]), gamma=jsonio.number(data["gamma"]))
            converged = [_flag(flag) for flag in data["converged"]]
        bias = np.asarray(bias, dtype=float)
        converged = np.array(converged, dtype=bool)
        if len(set(classes)) < max(len(classes), 2) or pairs != class_pairs(classes):
            raise ValueError(f"pairs must be those of >= 2 distinct classes in order: {classes}")
        pre = None
        if data.get("preprocessing") is not None:
            raw = data["preprocessing"]
            pre = Preprocessing(
                fusion=FusionConfig.from_dict(raw["fusion"]),
                pca=None if raw.get("pca") is None else PcaModel.from_dict(raw["pca"]),
            )
        n = len(pairs)
        if not len(vectors) and not len(coef):
            # No support vectors: JSON "[]" keeps neither the (0, d) nor the
            # (0, pairs) shape.  d is the preprocessing's output width, or 0.
            width = 0 if pre is None else pre.pca.n_components if pre.pca else pre.fusion.total_dim
            vectors, coef = np.empty((0, width)), np.empty((0, n))
        if vectors.ndim != 2 or coef.shape != (len(vectors), n):
            raise ValueError(f"{coef.shape} coefficients for {vectors.shape} vectors and {n} pairs")
        if bias.shape != (n,) or converged.shape != (n,):
            raise ValueError(f"{bias.shape} biases and {converged.shape} flags for {n} pairs")
        numbers = (vectors, coef, bias, params.c, params.gamma)
        if not all(np.isfinite(x).all() for x in numbers):
            raise ValueError("model holds a non-finite number")
        return MulticlassSvm(
            classes=classes,
            support_vectors=vectors,
            coef=coef,
            bias=bias,
            params=params,
            converged=converged,
            preprocessing=pre,
        )
    except (KeyError, TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise ParseError(f"invalid model record: {exc}") from exc


def save_model(model, path):
    jsonio.dump_path(model_to_dict(model), path)


def load_model(path):
    return model_from_dict(jsonio.load_path(path))
