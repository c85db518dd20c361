"""Soft-margin one-vs-one RBF support-vector machines.

Each unordered class pair solves the binary SVM dual by SMO (`smo.py`);
the pairs of one fit, or of many fits over one kernel or a stack of
them, are solved there together, in lockstep.  The pairs form one model
table, as in LIBSVM: each support vector stored once and
one coefficient column per pair, so the decision values of all pairs are
`K @ coef + bias`; the class list fixes the pairs, (classes[i],
classes[j]) for i < j in that order, as in LIBSVM.  Prediction is by
majority vote; ties are broken by the largest sum of absolute decision
values over the pairs involving each tied class, then by class order.
Hyper-parameters are selected by grid search with stratified k-fold
cross-validation.

Training is kernel-first, as in LIBSVM's precomputed-kernel mode: a
multi-class fit builds one Gram matrix over its rows and a grid search
one squared-distance matrix over its rows, then one kernel per gamma.
Every pair of every fold and C indexes that kernel by row id, with no
per-fold copy.  The experiment harness stacks the distance matrices of
several units (a cell, or a PCA repetition) as one (units x n, n)
array; all their grid searches (`_grid_searches`), then all their final
fits, go through `_train_and_vote`, which solves the fits of one gamma
in a few lockstep calls over one kernel stack and votes each from its
unit's kernel.  `grid_search` is `_grid_searches` of one unit.

Prediction runs training's code on its rows as an (n, 1, d) stack, so a
row gets the same decision values, bit for bit, alone or in a batch.
"""

import contextlib
import functools
import itertools
import warnings
from dataclasses import dataclass

import numpy as np

from . import jsonio
from .data import stratified_folds
from .errors import DataError, DimensionMismatch, GestureLabError, InsufficientData, NumericalError
from .errors import ParseError, SchemaVersionMismatch, SingleClassData
from .fusion import FusionConfig, PcaModel, fuse_matrix
from .smo import DEFAULT_MAX_ITER, DEFAULT_TOL, _smo_lockstep

SV_EPS = 1e-8
# Largest lockstep call of a grid search, in padded slots (pairs x width):
# a much wider state falls out of cache and costs more per iteration.
LOCKSTEP_SLOTS = 65_536
# Largest stack of unit kernels one batch holds, in entries (units x n x n);
# a larger unit runs alone.
STACK_ENTRIES = 2**21


@dataclass(frozen=True)
class KernelParams:
    """RBF-SVM hyper-parameters: soft-margin penalty and kernel width."""

    c: float
    gamma: float

    def __post_init__(self):
        if not 0 < self.c < np.inf:
            raise ValueError(f"c must be finite and > 0, got {self.c!r}")
        if not 0 < self.gamma < np.inf:
            raise ValueError(f"gamma must be finite and > 0, got {self.gamma!r}")


def _squared_distances(X, Y, out=None):
    """|x|^2 + |y|^2 - 2 x.y between the rows of X and Y, clipped at 0.

    Rows lie along the last axis, so X may be a stack: an (n, 1, d) X
    gives (n, 1, m) values, each row's products formed as if alone.
    The result is written to `out` when given, such as a slab of a stack.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    if X.shape[-1] != Y.shape[-1]:
        raise DimensionMismatch(f"row dims differ: {X.shape[-1]} vs {Y.shape[-1]}")
    sq = np.add((X * X).sum(axis=-1)[..., None], (Y * Y).sum(axis=-1), out=out)
    products = X @ Y.T
    products *= 2.0
    sq -= products
    return np.maximum(sq, 0.0, out=sq)  # clipped at 0; sq is never -0.0


def rbf_kernel_matrix(X, Y, gamma):
    """Kernel matrix between the rows of X and Y."""
    return np.exp(-gamma * _squared_distances(X, Y))


def _training_kernel(sq, gamma, out=None):
    """exp(-gamma * sq) of square distances, with its diagonal set to exactly 1,
    written to `out` when given.

    Entries lie in [0, 1], so a NaN sum means a NaN entry (from a row
    holding NaN or inf): NumericalError, before any SMO update.
    """
    kernel = np.multiply(sq, -gamma, out=out)
    np.exp(kernel, out=kernel)
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
    PCA when fitted, each step along the last axis.
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


@functools.lru_cache(maxsize=8)
def _pair_index(m):
    """Read-only (first, second) class indices of the pairs of m classes,
    in `class_pairs` order."""
    pairs = np.triu_indices(m, 1)
    for index in pairs:
        index.flags.writeable = False
    return pairs


def _classes(labels):
    return [c.item() if hasattr(c, "item") else c for c in np.unique(labels)]


def _fit_pairs(kernel, labels, fits, max_iter):
    """SMO on every class pair of several fits over a kernel stack, in one lockstep call.

    `kernel` stacks (n, n) Gram matrices of the n rows that `labels`
    labels, one per unit (`_slab`), and each fit is (unit, rows, c): its
    unit, the rows of that unit's kernel it trains on and its C.  A fit's
    pairs are those of its classes, in class-pair order; a pair trains
    on its rows with y = +1 for its first class.  One (pairs, rows)
    membership mask per fit gives the padded pair rows and labels, as
    row ids of the stack (padding is the unit's row 0), and
    `_smo_lockstep` solves the pairs of all fits together, each with its
    fit's C.  A pair's support vectors
    are the rows with alpha > SV_EPS, or with alpha > 0 if none exceeds
    SV_EPS.  Returns one (coef, bias, converged) per fit: the
    (len(rows), pairs) matrix of alpha_i * y_i of each pair's support
    vectors, zero elsewhere, and (pairs,) biases and convergence flags.
    """
    blocks = []
    for _, rows, _ in fits:
        fit_labels = labels[rows]
        onehot = fit_labels == np.asarray(_classes(fit_labels))[:, None]
        first, second = _pair_index(len(onehot))
        flat = np.flatnonzero(onehot[first] | onehot[second])
        pp, kk = np.divmod(flat, len(rows))
        sizes = np.bincount(pp, minlength=len(first))
        local = np.zeros((len(first), sizes.max(initial=0)), dtype=np.intp)
        y = np.zeros(local.shape)
        # Flat slot of each (pair, row): the row's rank within its pair.
        slot = pp * local.shape[1] + np.arange(len(flat)) - (np.cumsum(sizes) - sizes)[pp]
        local.put(slot, kk)
        y.put(slot, np.where(onehot[first].ravel()[flat], 1.0, -1.0))
        blocks.append((local, y))

    width, n = max(local.shape[1] for local, _ in blocks), kernel.shape[1]
    index = np.vstack([
        unit * n + np.pad(rows[local], ((0, 0), (0, width - local.shape[1])))
        for (unit, rows, _), (local, _) in zip(fits, blocks)
    ])
    y = np.vstack([np.pad(fit_y, ((0, 0), (0, width - fit_y.shape[1]))) for _, fit_y in blocks])
    c = np.repeat([c for _, _, c in fits], [len(local) for local, _ in blocks])
    result = _smo_lockstep(kernel, index, y, c, DEFAULT_TOL, max_iter)
    sv = result.alpha > SV_EPS
    sv |= (result.alpha > 0.0) & ~sv.any(axis=1, keepdims=True)

    out, start = [], 0
    for (_, rows, _), (local, fit_y) in zip(fits, blocks):
        end = start + len(local)
        pp, kk = np.nonzero(sv[start:end, : local.shape[1]])
        coef = np.zeros((len(rows), len(local)))
        coef[local[pp, kk], pp] = result.alpha[start + pp, kk] * fit_y[pp, kk]
        out.append((coef, result.bias[start:end], result.converged[start:end]))
        start = end
    return out


def _pair_shape(labels):
    """(pairs, width) of the one-vs-one problems over `labels`: the pair
    count and the row count of the largest pair.  Fewer than 2 classes
    raise SingleClassData."""
    counts = np.sort(np.unique(labels, return_counts=True)[1])
    if len(counts) < 2:
        raise SingleClassData(f"training needs at least 2 classes, got {len(counts)}")
    return len(counts) * (len(counts) - 1) // 2, int(counts[-2:].sum())


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
    fit = (0, np.arange(len(X)), params.c)
    [(coef, bias, converged)] = _fit_pairs(kernel, labels, [fit], max_iter)
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
    first, second = _pair_index(m)
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
    """(n, pairs) decision values for one row or an (n, d) matrix of rows.

    Rows pass through the model's preprocessing first.  Any other shape,
    or an input width other than the preprocessing's (without
    preprocessing, the support vectors', if there are any), raises
    DimensionMismatch, and a NaN or infinite input DataError.  A model
    with no support vectors decides by its biases alone.  The rows run
    through training's code as an (n, 1, d) stack, one product per row, so
    a row gets the same values, bit for bit, alone or in any batch.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.ndim != 2:
        raise DimensionMismatch(f"input is {X.shape}; need one row or an (n, d) matrix")
    if not np.isfinite(X).all():
        raise DataError("input rows hold a non-finite value")
    X = X[:, None, :]
    if model.preprocessing is not None:
        X = model.preprocessing.apply(X)
    sv = model.support_vectors
    kernel = rbf_kernel_matrix(X, sv, model.params.gamma) if len(sv) else np.empty((len(X), 1, 0))
    return (kernel @ model.coef + model.bias)[:, 0]


def classify(model, X):
    """Predicted labels plus the winner's vote count for rows of X.

    The winner has the most votes; among tied classes, the largest
    margin sum, then the first in class order.
    """
    votes, _, winners = _vote(len(model.classes), decision_table(model, X))
    labels = np.asarray(model.classes)[winners]
    return labels, votes[np.arange(len(votes)), winners]


# ---------------------------------------------------------------------------
# Grid searches and fits over a stack of unit kernels


def _slab(stack, unit):
    """The (n, n) matrix of `unit` in a (units * n, n) stack: rows unit * n onwards."""
    n = stack.shape[1]
    return stack[unit * n : (unit + 1) * n]


@contextlib.contextmanager
def _blame(unit):
    """Mark a GestureLabError raised inside with the `unit` it concerns."""
    try:
        yield
    except GestureLabError as exc:
        exc.unit = unit
        raise


def _kernel_stack(sq, units, gamma):
    """`_training_kernel` of the slabs `units` of a distance stack; other slabs unwritten."""
    kernel = np.empty_like(sq)
    for unit in units:
        with _blame(unit):
            _training_kernel(_slab(sq, unit), gamma, out=_slab(kernel, unit))
    return kernel


def _lockstep_calls(shapes):
    """Consecutive fits grouped into lockstep calls of at most
    LOCKSTEP_SLOTS padded slots: pairs times the widest pair.

    `shapes` holds each fit's `_pair_shape`; returns lists of fit indices.
    """
    calls, pairs, width = [[]], 0, 0
    for i, (fit_pairs, fit_width) in enumerate(shapes):
        if calls[-1] and (pairs + fit_pairs) * max(width, fit_width) > LOCKSTEP_SLOTS:
            calls.append([])
            pairs = width = 0
        calls[-1].append(i)
        pairs, width = pairs + fit_pairs, max(width, fit_width)
    return calls


def _train_and_vote(sq, labels, fits, max_iter):
    """Train each fit (unit, train, held, params), with train and held rows
    of its unit's slab of a squared-distance stack, and predict its rows held.

    The fits of one gamma share one kernel stack (one alive at a time) and
    lockstep calls of at most LOCKSTEP_SLOTS padded slots.  Each fit votes
    with K[held][:, train] @ coef + bias, as train_multiclass and classify
    would; consecutive fits on the same unit, train and held rows share the
    gather.  Returns (predicted labels, winners' votes, every pair converged)
    per fit, in order.  A fit with fewer than 2 classes raises
    SingleClassData carrying its `unit`, before any kernel is built.
    """
    shapes = []
    for unit, train, _, _ in fits:
        with _blame(unit):
            shapes.append(_pair_shape(labels[train]))
    out = [None] * len(fits)
    for gamma in sorted({params.gamma for *_, params in fits}):
        same = [i for i, (*_, params) in enumerate(fits) if params.gamma == gamma]
        kernel = _kernel_stack(sq, {fits[i][0] for i in same}, gamma)
        for call in _lockstep_calls([shapes[i] for i in same]):
            batch = [fits[same[i]] for i in call]
            pairs = [(unit, train, params.c) for unit, train, _, params in batch]
            solved = _fit_pairs(kernel, labels, pairs, max_iter)
            key = None
            for i, (unit, train, held, _), (coef, bias, converged) in zip(call, batch, solved):
                if key != (unit, id(train), id(held)):
                    key = (unit, id(train), id(held))
                    classes = np.asarray(_classes(labels[train]))
                    held_kernel = _slab(kernel, unit)[held].take(train, axis=1)  # K[held][:, train]
                votes, _, winners = _vote(len(classes), held_kernel @ coef + bias)
                won = votes[np.arange(len(held)), winners]
                out[same[i]] = (classes[winners], won, bool(np.all(converged)))
        del kernel  # one kernel stack alive at a time
    return out


def grid_search(X, labels, c_grid, gamma_grid, folds=10, seed=0, max_iter=DEFAULT_MAX_ITER):
    """Pick (C, gamma) by stratified k-fold cross-validated accuracy.

    X, labels and max_iter are as for train_multiclass.  Ties go
    to the smaller C, then the smaller gamma.  Classes with fewer
    samples than `folds` degrade the fold count to the smallest class
    size (leave-one-out per class) with a warning; classes with fewer
    than 2 samples are an error, and so is a single class
    (SingleClassData).  Returns (params, table, converged): the winning
    params, the CV table, one {"c", "gamma", "accuracy"} dict per grid
    point in ascending C then gamma order with the accuracy pooled over
    all held-out folds, and whether every fit converged.  The search is
    `_grid_searches` of one unit, the squared distances of all rows of X.
    """
    X, labels = _training_rows(X, labels)
    search = (0, np.arange(len(X)), seed)
    sq = _squared_distances(X, X)
    return _grid_searches(sq, labels, [search], c_grid, gamma_grid, folds, max_iter)[0]


def _grid_searches(sq, labels, searches, c_grid, gamma_grid, folds, max_iter):
    """grid_search for each (unit, rows, seed) of `searches`, on the rows
    `rows` of the unit's slab of a squared-distance stack.

    The fold x C x gamma fits of all searches go through one
    `_train_and_vote`, so each gamma's fits share a kernel stack and
    lockstep calls; each table is that of train_multiclass and classify on
    each fold's rows, and each also says if all its fits converged.  A
    GestureLabError of one search carries its `unit`.
    """
    if len(c_grid) == 0 or len(gamma_grid) == 0:
        raise ValueError("parameter grids must be non-empty")
    if folds < 2:
        raise ValueError("folds must be >= 2")
    points = [KernelParams(c=c, gamma=g) for c in sorted(c_grid) for g in sorted(gamma_grid)]
    parts = []  # the (train, held) rows of each search's folds
    for unit, rows, seed in searches:
        with _blame(unit):
            if len(rows) == 0:
                raise InsufficientData("training set is empty")
            min_count = int(np.unique(labels[rows], return_counts=True)[1].min())
            if min_count < 2:
                raise InsufficientData(
                    f"smallest class has {min_count} sample(s); need at least 2 for CV"
                )
        if min_count < folds:
            warnings.warn(
                f"reducing folds from {folds} to {min_count} (smallest class size)", stacklevel=3
            )
        count = min(folds, min_count)
        fold_of = stratified_folds(labels[rows], count, seed)
        parts.append([(rows[fold_of != f], rows[fold_of == f]) for f in range(count)])

    jobs = [(s, f, k) for s, split in enumerate(parts) for f in range(len(split))
            for k in range(len(points))]
    fits = [(searches[s][0], *parts[s][f], points[k]) for s, f, k in jobs]
    scored = _train_and_vote(sq, labels, fits, max_iter)
    correct = np.zeros((len(searches), len(points)), dtype=int)
    converged = np.ones(len(searches), dtype=bool)
    for (s, f, k), (predicted, _, fit_converged) in zip(jobs, scored):
        correct[s, k] += int(np.sum(predicted == labels[parts[s][f][1]]))
        converged[s] &= fit_converged
    found = []
    for s, (_, rows, _) in enumerate(searches):
        accuracy = correct[s] / len(rows)
        table = [
            {"c": p.c, "gamma": p.gamma, "accuracy": float(a)} for p, a in zip(points, accuracy)
        ]
        best = points[int(accuracy.argmax())]  # the first best wins ties
        found.append((best, table, bool(converged[s])))
    return found


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


def _flag(value):
    """A JSON boolean; any other value raises TypeError."""
    if not isinstance(value, bool):
        raise TypeError(f"expected true or false, got {value!r}")
    return value


def model_from_dict(data):
    """Multi-class model from its version-2 model.json record.

    `classes` must be distinct integers, at least two, and the pairs
    exactly `class_pairs(classes)`.  A missing or mistyped field, any
    other pair list, arrays whose shapes disagree, widths that disagree
    (the fused layout against the PCA input, the support vectors against
    the preprocessing's output) and any non-finite number raise
    ParseError; any other version raises SchemaVersionMismatch.
    """
    try:
        version = data.get("version")
        if version != 2:
            raise SchemaVersionMismatch(f"unsupported model version {version!r}")
        classes = [jsonio.integer(c) for c in data["classes"]]
        pairs = [tuple(map(jsonio.integer, pair)) for pair in data["pairs"]]
        vectors = jsonio.numbers(data["support_vectors"], 2)
        coef = jsonio.numbers(data["coef"], 2)
        bias = jsonio.numbers(data["bias"], 1)
        params = KernelParams(c=jsonio.number(data["c"]), gamma=jsonio.number(data["gamma"]))
        converged = np.array([_flag(flag) for flag in data["converged"]], dtype=bool)
        if len(set(classes)) < max(len(classes), 2) or pairs != class_pairs(classes):
            raise ValueError(f"pairs must be those of >= 2 distinct classes in order: {classes}")
        pre, width = None, 0  # width: the preprocessing's output width
        if data.get("preprocessing") is not None:
            raw = data["preprocessing"]
            pre = Preprocessing(
                fusion=FusionConfig.from_dict(raw["fusion"]),
                pca=None if raw.get("pca") is None else PcaModel.from_dict(raw["pca"]),
            )
            width = pre.fusion.total_dim
            if pre.pca is not None:
                if pre.pca.input_dim != width:
                    raise ValueError(f"PCA takes {pre.pca.input_dim} dims, the layout has {width}")
                width = pre.pca.n_components
        n = len(pairs)
        if not len(vectors) and not len(coef):
            # No support vectors: JSON "[]" keeps neither the (0, d) nor the
            # (0, pairs) shape.
            vectors, coef = np.empty((0, width)), np.empty((0, n))
        if vectors.ndim != 2 or coef.shape != (len(vectors), n):
            raise ValueError(f"{coef.shape} coefficients for {vectors.shape} vectors and {n} pairs")
        if pre is not None and vectors.shape[1] != width:
            raise ValueError(
                f"support vectors have {vectors.shape[1]} dims, preprocessing gives {width}"
            )
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
