import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import gesturelab.smo
import gesturelab.svm
from gesturelab.errors import (
    ConfigError,
    DataError,
    DimensionMismatch,
    InsufficientData,
    NumericalError,
    SchemaVersionMismatch,
    SingleClassData,
)
from gesturelab.fusion import FusionConfig, fit_pca
from gesturelab.svm import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    SV_EPS,
    KernelParams,
    MulticlassSvm,
    Preprocessing,
    _fit_pairs,
    _smo_lockstep,
    _vote,
    class_pairs,
    classify,
    decision_table,
    grid_search,
    load_model,
    model_from_dict,
    model_to_dict,
    rbf_kernel_matrix,
    save_model,
    smo_solve,
    train_multiclass,
)
from gesturelab.tracking import FeatureMask
from oracles import (
    dual_objective,
    jacobi_eigh,
    smo_reference,
    smo_reference_run,
    svm_dual_solve_pg,
    vote_reference,
)


def make_blobs(rng, centers, per_class=20, spread=0.4):
    X = np.vstack([rng.normal(c, spread, size=(per_class, len(c))) for c in centers])
    y = np.repeat(np.arange(len(centers)), per_class)
    return X, y


def train_two_class(X, y, params):
    """Two-class model whose one pair votes for its first class where y > 0."""
    return train_multiclass(X, np.where(np.asarray(y) > 0, 0, 1), params)


def pair_values(model, X):
    return decision_table(model, X)[:, 0]


def solve_binary(X, y, c, gamma, tol):
    """smo_solve on the training kernel of X, as one pair of train_multiclass
    solves it.  Returns (coef, bias): alpha_i * y_i of the support vectors
    (alpha > SV_EPS), zero elsewhere; decisions are
    rbf_kernel_matrix(rows, X, gamma) @ coef + bias."""
    y = np.asarray(y, dtype=float)
    K = rbf_kernel_matrix(X, X, gamma)
    np.fill_diagonal(K, 1.0)
    result = smo_solve(K, y, c, tol=tol)
    return np.where(result.alpha > SV_EPS, result.alpha * y, 0.0), result.bias


# ---------------------------------------------------------------------------
# Kernel


def kernel_value(x, y, gamma):
    """The kernel between two single vectors, as one entry of rbf_kernel_matrix."""
    return float(rbf_kernel_matrix([x], [y], gamma)[0, 0])


def test_rbf_kernel_identical_points():
    assert kernel_value([1.0, 2.0], [1.0, 2.0], 0.5) == 1.0


def test_rbf_kernel_unit_exponent():
    gamma = 0.25
    x = np.zeros(3)
    y = np.array([2.0, 0.0, 0.0])  # ||x-y||^2 = 4 = 1/gamma
    assert kernel_value(x, y, gamma) == pytest.approx(np.exp(-1.0), abs=1e-15)


def test_rbf_kernel_small_gamma_limit():
    x, y = np.zeros(2), np.ones(2)
    values = [kernel_value(x, y, g) for g in (1.0, 0.1, 0.01, 0.001)]
    assert np.all(np.diff(values) > 0)
    assert values[-1] > 0.99


def test_rbf_kernel_symmetry_and_range(rng):
    for _ in range(20):
        x, y = rng.normal(size=(2, 5))
        g = rng.uniform(0.01, 2.0)
        k = kernel_value(x, y, g)
        assert 0.0 < k <= 1.0
        assert k == kernel_value(y, x, g)


def test_rbf_kernel_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        kernel_value(np.zeros(3), np.zeros(4), 1.0)


def test_kernel_matrix_is_psd(rng):
    for _ in range(5):
        X = rng.normal(size=(int(rng.integers(5, 20)), 4))
        K = rbf_kernel_matrix(X, X, rng.uniform(0.05, 1.0))
        vals, _ = jacobi_eigh(K)
        assert vals.min() >= -1e-8
        assert np.abs(K - K.T).max() == 0.0


# ---------------------------------------------------------------------------
# Binary training


def test_two_point_instance():
    X = np.array([[0.0, 0.0], [1.0, 0.0]])
    y = np.array([1, -1])
    model = train_two_class(X, y, KernelParams(c=10.0, gamma=1.0))
    assert len(model.support_vectors) == 2
    vals = pair_values(model, X)
    assert np.all(np.sign(vals) == y)


def test_xor_with_rbf():
    X = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
    y = np.array([1, 1, -1, -1])
    model = train_two_class(X, y, KernelParams(c=1000.0, gamma=1.0))
    vals = pair_values(model, X)
    assert np.all(np.sign(vals) == y)


def test_single_class_rejected():
    with pytest.raises(SingleClassData):
        train_multiclass(np.zeros((3, 2)), np.array([1, 1, 1]), KernelParams(1.0, 1.0))


def test_train_multiclass_rejects_mismatched_labels():
    X = np.zeros((10, 2))
    for labels in (np.arange(8) % 2, np.arange(12) % 2, np.zeros((10, 1))):
        with pytest.raises(DimensionMismatch):
            train_multiclass(X, labels, KernelParams(1.0, 1.0))


def test_smo_matches_projected_gradient_oracle(rng):
    for _ in range(10):
        n = int(rng.integers(4, 13))
        d = int(rng.integers(1, 5))
        X = rng.normal(size=(n, d))
        y = np.concatenate([[1, -1], rng.choice([1.0, -1.0], size=n - 2)])
        c = float(rng.uniform(0.5, 10.0))
        gamma = float(rng.uniform(0.1, 2.0))
        K = rbf_kernel_matrix(X, X, gamma)
        result = smo_solve(K, y, c, tol=1e-6)
        alpha_pg = svm_dual_solve_pg(K, y, c)
        assert result.alpha.min() >= 0.0
        assert result.alpha.max() <= c + 1e-8
        assert abs(np.dot(result.alpha, y)) <= 1e-8
        smo_obj = dual_objective(K, y, result.alpha)
        pg_obj = dual_objective(K, y, alpha_pg)
        assert abs(smo_obj - pg_obj) < 1e-4


def test_smo_rejects_non_finite_kernel():
    y = np.array([1.0, -1.0, 1.0, -1.0])
    with pytest.raises(NumericalError):
        smo_solve(np.full((4, 4), np.nan), y, 1.0, max_iter=5)
    with pytest.raises(DimensionMismatch):
        smo_solve(np.eye(3), y, 1.0)


def test_non_finite_kernel_fails_before_any_update(monkeypatch, rng):
    # With the default budget a NaN kernel used to run 1,000,000 updates
    # before the epilogue caught it; now no solve may start.
    def no_solve(*args):
        raise AssertionError("SMO ran on a non-finite kernel")

    monkeypatch.setattr(gesturelab.smo, "_smo_lockstep", no_solve)
    monkeypatch.setattr(gesturelab.svm, "_smo_lockstep", no_solve)
    y = np.array([1.0, -1.0, 1.0, -1.0])
    for bad in (np.nan, np.inf):
        K = np.eye(4)
        K[1, 2] = bad
        with pytest.raises(NumericalError):
            smo_solve(K, y, 1.0)
        X, labels = make_blobs(rng, [(0.0, 0.0), (3.0, 0.0)], per_class=6)
        X[4, 1] = bad
        with pytest.raises(NumericalError):
            train_multiclass(X, labels, KernelParams(1.0, 1.0))
        with pytest.raises(NumericalError):
            grid_search(X, labels, [1.0, 10.0], [0.1, 1.0], folds=2, seed=0)


def test_smo_solve_rejects_bad_arguments():
    y = np.array([1.0, -1.0])
    for c in (np.nan, np.inf, 0.0, -1.0):
        with pytest.raises(ConfigError):
            smo_solve(np.eye(2), y, c)
    for labels in ([2.0, -3.0], [1.0, 0.0], [1.0, np.nan]):
        with pytest.raises(DataError):
            smo_solve(np.eye(2), labels, 1.0)
    with pytest.raises(InsufficientData):
        smo_solve(np.zeros((0, 0)), [], 1.0)


def seeded_smo_problems():
    """200 seeded problems (k, K, y, c, max_iter), n 4..120, C 0.1..1000:
    overlapping classes put most solutions on the C bound, and every 10th
    solve stops at its iteration budget."""
    rng = np.random.default_rng(2024)
    for k in range(200):
        n = int(rng.integers(4, 121))
        X = rng.normal(size=(n, int(rng.integers(1, 5))))
        y = np.where(X[:, 0] + rng.uniform(0.0, 1.5) * rng.normal(size=n) > 0, 1.0, -1.0)
        y[:2] = (1.0, -1.0)
        c = (0.1, 1.0, 10.0, 1000.0)[k % 4]
        K = rbf_kernel_matrix(X, X, rng.uniform(0.1, 2.0))
        np.fill_diagonal(K, 1.0)
        yield k, K, y, c, n if k % 10 == 9 else 20 * n


def test_smo_iterates_equal_reference_loop():
    # Unconverged iterates are compared too.
    at_bound = unconverged = 0
    for k, K, y, c, max_iter in seeded_smo_problems():
        result = smo_solve(K, y, c, max_iter=max_iter)
        alpha, bias, converged, iterations = smo_reference(K, y, c, 1e-3, max_iter)
        assert result.alpha.tobytes() == alpha.tobytes(), k
        assert (result.bias, result.converged, result.iterations) == (bias, converged, iterations), k
        at_bound += bool((alpha == c).any())
        unconverged += not converged
    assert at_bound >= 100 and unconverged >= 20


def test_smo_gap_is_final_kkt_violation():
    # The gap recomputed from alpha alone, with v = y - K @ (alpha * y).
    # The solver updates v once per iteration instead; both routes round
    # terms no larger than C over n rows and at most 20 n updates, so they
    # may differ by a few thousand ulps of C * n: allowed 1e-12 * C * n.
    for k, K, y, c, max_iter in seeded_smo_problems():
        result = smo_solve(K, y, c, max_iter=max_iter)
        alpha, pos = result.alpha, y > 0
        v = y - K @ (alpha * y)
        up = (pos & (alpha < c)) | (~pos & (alpha > 0.0))
        low = (pos & (alpha > 0.0)) | (~pos & (alpha < c))
        gap = v[up].max() - v[low].min() if up.any() and low.any() else 0.0
        assert abs(result.gap - gap) <= 1e-12 * c * len(y), k
        if result.converged:
            assert result.gap <= 1e-3, k


def lockstep_fits():
    """Seeded multi-class fits (k, K, labels, c): classes of 3 to 24 rows, so
    the pair problems differ in size, and at C = 1000 their iteration counts
    differ by up to 80x."""
    rng = np.random.default_rng(11)
    for k in range(6):
        m = int(rng.integers(3, 6))
        sizes = rng.integers(3, 25, size=m)
        centers = rng.normal(0.0, 1.0, size=(m, 2))
        X = np.vstack([rng.normal(ctr, 0.8, size=(s, 2)) for ctr, s in zip(centers, sizes)])
        labels = rng.permutation(np.repeat(np.arange(m), sizes))
        K = rbf_kernel_matrix(X, X, rng.uniform(0.2, 2.0))
        np.fill_diagonal(K, 1.0)
        yield k, K, labels, (1.0, 1000.0)[k % 2]


def padded(rows, signs):
    """(index, y) of _smo_lockstep: one row per problem, padded with y = 0."""
    index = np.zeros((len(rows), max(map(len, rows))), dtype=np.intp)
    y = np.zeros(index.shape)
    for p, (r, s) in enumerate(zip(rows, signs)):
        index[p, : len(r)], y[p, : len(r)] = r, s
    return index, y


def test_lockstep_pairs_equal_reference_per_pair():
    # _fit_pairs solves every pair of a fit in one lockstep loop; each pair
    # must still get the reference loop's result on its own block, bit for
    # bit, while the other pairs stop around it.  The second budget is the
    # median iteration count, so it stops about half the pairs.
    budget_hits = 0
    for k, K, labels, c in lockstep_fits():
        classes = list(np.unique(labels))
        pairs = class_pairs(classes)
        rows = [np.flatnonzero((labels == ci) | (labels == cj)) for ci, cj in pairs]
        signs = [np.where(labels[r] == ci, 1.0, -1.0) for r, (ci, _) in zip(rows, pairs)]
        blocks = [K[np.ix_(r, r)] for r in rows]

        def reference(max_iter):
            return [
                smo_reference_run(B, y, c, DEFAULT_TOL, max_iter) for B, y in zip(blocks, signs)
            ]

        counts = sorted(run[3] for run in reference(DEFAULT_MAX_ITER))
        assert len({len(r) for r in rows}) > 1 and counts[-1] - counts[0] >= 9, k
        # A budget of 0 or below runs no update and stops every pair.
        for max_iter in (DEFAULT_MAX_ITER, counts[len(counts) // 2], 0, -1):
            result = _smo_lockstep(K, *padded(rows, signs), c, DEFAULT_TOL, max_iter)
            [(coef, bias, converged)] = _fit_pairs(
                K, labels, [(0, np.arange(len(labels)), c)], max_iter
            )
            for p, run in enumerate(reference(max_iter)):
                alpha, b, conv, iterations, gap = run
                assert result.alpha[p, : len(rows[p])].tobytes() == alpha.tobytes(), (k, p)
                got = (result.bias[p], result.converged[p], result.iterations[p], result.gap[p])
                assert got == (b, conv, iterations, gap), (k, p)
                assert (bias[p], converged[p]) == (b, conv), (k, p)
                pair_coef = np.zeros(len(labels))
                pair_coef[rows[p]] = np.where(alpha > SV_EPS, alpha * signs[p], 0.0)
                assert coef[:, p].tobytes() == pair_coef.tobytes(), (k, p)
                budget_hits += not conv
    assert budget_hits >= 10


def test_lockstep_mixed_c_equals_reference_per_problem():
    # One call over problems with C from 0.1 to 1000 on random row subsets
    # of one kernel.  Their iteration counts differ by more than 10x, so
    # stopped problems stay frozen in the state until at most half are
    # live, and the state is then compacted; the median budget also stops
    # about half of them mid-run.  Each must still get the reference
    # loop's result on its own block, bit for bit.
    rng = np.random.default_rng(5)
    X = rng.normal(size=(90, 3))
    K = rbf_kernel_matrix(X, X, 0.7)
    np.fill_diagonal(K, 1.0)
    rows, signs = [], []
    for p in range(30):
        r = rng.choice(len(X), size=int(rng.integers(4, 60)), replace=False)
        s = np.where(X[r, 0] + rng.uniform(0.0, 1.5) * rng.normal(size=len(r)) > 0, 1.0, -1.0)
        s[:2] = (1.0, -1.0)
        rows.append(r)
        signs.append(s)
    c = np.array([(0.1, 1.0, 10.0, 100.0, 1000.0)[p % 5] for p in range(len(rows))])

    def reference(max_iter):
        return [
            smo_reference_run(K[np.ix_(r, r)], s, cp, DEFAULT_TOL, max_iter)
            for r, s, cp in zip(rows, signs, c)
        ]

    counts = sorted(run[3] for run in reference(DEFAULT_MAX_ITER))
    assert counts[-1] >= 10 * counts[0] > 0
    unconverged = 0
    for max_iter in (DEFAULT_MAX_ITER, counts[len(counts) // 2]):
        result = _smo_lockstep(K, *padded(rows, signs), c, DEFAULT_TOL, max_iter)
        for p, (alpha, bias, converged, iterations, gap) in enumerate(reference(max_iter)):
            assert result.alpha[p, : len(rows[p])].tobytes() == alpha.tobytes(), (max_iter, p)
            got = (result.bias[p], result.converged[p], result.iterations[p], result.gap[p])
            assert got == (bias, converged, iterations, gap), (max_iter, p)
            unconverged += not converged
    assert unconverged >= 5


def test_lockstep_raises_when_one_problem_is_infeasible():
    # The batched epilogue checks every problem: only the third, whose
    # kernel block holds NaN, fails, and the narrower ones (padded) pass.
    K = np.eye(9) + 0.1
    rows = [np.arange(0, 2), np.arange(2, 5), np.arange(5, 9)]
    signs = [np.array([1.0, -1.0]), np.array([1.0, -1.0, 1.0]), np.array([1.0, 1.0, -1.0, -1.0])]
    result = _smo_lockstep(K, *padded(rows, signs), 1.0, DEFAULT_TOL, 50)
    assert result.converged.all()
    K[6, 7] = K[7, 6] = np.nan
    with pytest.raises(NumericalError):
        _smo_lockstep(K, *padded(rows, signs), 1.0, DEFAULT_TOL, 50)
    with pytest.raises(NumericalError):
        _smo_lockstep(K, *padded(rows[::-1], signs[::-1]), 1.0, DEFAULT_TOL, 50)


def test_lockstep_over_a_kernel_stack_equals_each_kernel_alone():
    # Problems over a (4n, n) stack of kernels, each on the rows of one of
    # kernels 1-3 (row ids u * n + r, padded with u * n), solved in one
    # call: each gets its solve over its own (n, n) kernel, bit for bit,
    # also when the median budget stops about half of them.  Kernel 0 is
    # unused and never read; a non-finite kernel in use fails the call,
    # and the error names that kernel.
    rng = np.random.default_rng(17)
    n, kernels = 40, [np.full((40, 40), np.nan)]
    for u in range(1, 4):
        X = rng.normal(size=(n, 1 + u))
        kernels.append(rbf_kernel_matrix(X, X, 0.3 * u))
        np.fill_diagonal(kernels[-1], 1.0)
    stack = np.vstack(kernels)
    units, rows, signs = [], [], []
    for p in range(24):
        r = rng.choice(n, size=int(rng.integers(4, n)), replace=False)
        s = np.where(rng.normal(size=len(r)) > 0, 1.0, -1.0)
        s[:2] = (1.0, -1.0)
        units.append(1 + p % 3)
        rows.append(r)
        signs.append(s)
    c = np.array([(0.1, 1.0, 10.0, 100.0, 1000.0)[p % 5] for p in range(len(rows))])

    def alone(max_iter):
        return [
            _smo_lockstep(kernels[u], *padded([r], [s]), cp, DEFAULT_TOL, max_iter)
            for u, r, s, cp in zip(units, rows, signs, c)
        ]

    index, y = padded(rows, signs)
    index += n * np.array(units)[:, None]
    counts = sorted(int(run.iterations[0]) for run in alone(DEFAULT_MAX_ITER))
    assert counts[-1] >= 10 * counts[0] > 0
    unconverged = 0
    for max_iter in (DEFAULT_MAX_ITER, counts[len(counts) // 2]):
        result = _smo_lockstep(stack, index, y, c, DEFAULT_TOL, max_iter)
        for p, run in enumerate(alone(max_iter)):
            assert result.alpha[p, : len(rows[p])].tobytes() == run.alpha[0].tobytes(), p
            got = (result.bias[p], result.converged[p], result.iterations[p], result.gap[p])
            assert got == (run.bias[0], run.converged[0], run.iterations[0], run.gap[0]), p
            unconverged += not run.converged[0]
    assert unconverged >= 5
    stack[2 * n : 3 * n] = np.nan
    with pytest.raises(NumericalError) as failure:
        _smo_lockstep(stack, index, y, c, DEFAULT_TOL, 50)
    assert failure.value.unit == 2


def test_distance_and_kernel_slabs_equal_fresh_matrices(rng):
    # The harness writes each unit's squared distances, and each gamma's
    # kernel, into a slab of a preallocated stack.  Each slab must hold the
    # matrix a fresh |x|^2 + |y|^2 - 2 x.y, and a fresh exp(-gamma * sq)
    # with diagonal 1, would give, bit for bit.
    from gesturelab.svm import _kernel_stack, _slab, _squared_distances

    n = 30
    units = [rng.normal(size=(n, d)) * 10.0 for d in (2, 5, 40)]
    sq = np.empty((len(units) * n, n))
    for u, X in enumerate(units):
        _squared_distances(X, X, out=_slab(sq, u))
        norms = (X * X).sum(axis=1)
        fresh = norms[:, None] + norms[None, :] - 2.0 * (X @ X.T)
        np.clip(fresh, 0.0, None, out=fresh)
        assert _slab(sq, u).tobytes() == fresh.tobytes() == _squared_distances(X, X).tobytes()
    kernel = _kernel_stack(sq, [0, 2], 0.3)
    for u in (0, 2):
        fresh = np.exp(-0.3 * _slab(sq, u))
        np.fill_diagonal(fresh, 1.0)
        assert _slab(kernel, u).tobytes() == fresh.tobytes()


def test_smo_curvature_edge_cases_match_projected_gradient_oracle(rng):
    # Rows duplicated with opposite labels have a = K_ii + K_tt - 2 K_it = 0,
    # clamped to 1e-12; a linear kernel plus a constant has a diagonal other
    # than 1.  15 problems of each.
    for trial in range(30):
        n = int(rng.integers(4, 13))
        X = rng.normal(size=(n, int(rng.integers(1, 5))))
        y = np.concatenate([[1.0, -1.0], rng.choice([1.0, -1.0], size=n - 2)])
        if trial % 2 == 0:
            X[1] = X[0]
            K = rbf_kernel_matrix(X, X, float(rng.uniform(0.1, 2.0)))
            np.fill_diagonal(K, 1.0)
        else:
            K = X @ X.T + 0.5
        c = float(rng.uniform(0.5, 10.0))
        result = smo_solve(K, y, c, tol=1e-6)
        assert result.converged, trial
        alpha_pg = svm_dual_solve_pg(K, y, c)
        gap = abs(dual_objective(K, y, result.alpha) - dual_objective(K, y, alpha_pg))
        assert gap < 1e-4, trial


def test_free_support_vectors_sit_on_margin(rng):
    X, y01 = make_blobs(rng, [(0.0, 0.0), (4.0, 0.0)], per_class=20, spread=0.8)
    y = np.where(y01 == 0, 1, -1)
    coef, bias = solve_binary(X, y, c=5.0, gamma=0.3, tol=1e-8)
    coefs = np.abs(coef)
    free = (coefs > 1e-6) & (coefs < 5.0 - 1e-6)
    assert free.any()
    vals = rbf_kernel_matrix(X[free], X, 0.3) @ coef + bias
    assert np.abs(np.abs(vals) - 1.0).max() < 1e-6


def test_zero_slack_implies_perfect_training_accuracy(rng):
    X, y01 = make_blobs(rng, [(0.0, 0.0), (6.0, 0.0)], per_class=15)
    y = np.where(y01 == 0, 1, -1)
    coef, bias = solve_binary(X, y, c=100.0, gamma=0.5, tol=1e-5)
    vals = rbf_kernel_matrix(X, X, 0.5) @ coef + bias
    assert np.all(np.abs(vals) >= 1.0 - 1e-3)  # separated with zero slack
    assert np.all(np.sign(vals) == y)


# ---------------------------------------------------------------------------
# Decision values


def test_decision_matches_bruteforce_resummation(rng):
    # The per-pair reference for decision_table: each pair's value is the
    # sum of coef * k(sv, x) over that pair's own support vectors, plus
    # the pair's bias.
    X, y = make_blobs(rng, [(0.0, 0.0), (3.0, 1.0), (0.0, 3.0)], per_class=10)
    model = train_multiclass(X, y, KernelParams(c=2.0, gamma=0.4))
    probes = rng.normal(size=(20, 2))
    table = decision_table(model, probes)
    for row, values in zip(probes, table):
        for p, expected in enumerate(values):
            brute = sum(
                coef * np.exp(-model.params.gamma * np.dot(sv - row, sv - row))
                for coef, sv in zip(model.coef[:, p], model.support_vectors)
                if coef != 0.0
            )
            assert abs(brute + model.bias[p] - expected) < 1e-12


def test_decision_invariant_to_sv_permutation(rng):
    X, y01 = make_blobs(rng, [(0.0, 0.0), (3.0, 1.0)], per_class=10)
    y = np.where(y01 == 0, 1, -1)
    model = train_two_class(X, y, KernelParams(c=2.0, gamma=0.4))
    perm = rng.permutation(len(model.support_vectors))
    shuffled = replace(model, support_vectors=model.support_vectors[perm], coef=model.coef[perm])
    probes = rng.normal(size=(10, 2))
    assert np.abs(pair_values(model, probes) - pair_values(shuffled, probes)).max() < 1e-12


def test_decision_dimension_mismatch(rng):
    X, y01 = make_blobs(rng, [(0.0, 0.0), (3.0, 1.0)], per_class=5)
    model = train_two_class(X, np.where(y01 == 0, 1, -1), KernelParams(1.0, 1.0))
    with pytest.raises(DimensionMismatch):
        decision_table(model, np.zeros(3))


def test_dual_coefs_bounded_by_c(rng):
    X, y01 = make_blobs(rng, [(0.0, 0.0), (1.0, 0.5)], per_class=12, spread=0.8)
    params = KernelParams(c=3.0, gamma=0.5)
    model = train_two_class(X, np.where(y01 == 0, 1, -1), params)
    assert np.abs(model.coef).max() <= params.c + 1e-8
    assert len(model.support_vectors) >= 1


# ---------------------------------------------------------------------------
# Multi-class


def test_ten_classes_yield_45_pairs(rng):
    X, y = make_blobs(rng, [(3 * k, 3 * (k % 3)) for k in range(10)], per_class=4)
    model = train_multiclass(X, y, KernelParams(c=10.0, gamma=0.5))
    assert model.n_pairs == 45


def test_two_class_multiclass_equals_binary(rng):
    X, y = make_blobs(rng, [(0.0, 0.0), (4.0, 0.0)], per_class=10)
    model = train_multiclass(X, y, KernelParams(c=10.0, gamma=0.5))
    assert model.n_pairs == 1
    coef, bias = solve_binary(X, np.where(y == 0, 1, -1), c=10.0, gamma=0.5, tol=1e-3)
    probes = rng.normal(size=(20, 2)) * 2
    multi_pred = classify(model, probes)[0]
    binary_pred = np.where(rbf_kernel_matrix(probes, X, 0.5) @ coef + bias >= 0, 0, 1)
    assert np.array_equal(multi_pred, binary_pred)


def test_three_blobs_perfect_training(rng):
    X, y = make_blobs(rng, [(0.0, 0.0), (5.0, 0.0), (0.0, 5.0)], per_class=20)
    model = train_multiclass(X, y, KernelParams(c=10.0, gamma=0.5))
    assert model.n_pairs == 3
    assert np.mean(classify(model, X)[0] == y) == 1.0


def test_deep_blob_point_gets_two_votes(rng):
    X, y = make_blobs(rng, [(0.0, 0.0), (5.0, 0.0), (0.0, 5.0)], per_class=20)
    model = train_multiclass(X, y, KernelParams(c=10.0, gamma=0.5))
    labels, votes_won = classify(model, np.array([[0.0, 5.0]]))
    assert labels[0] == 2
    assert votes_won[0] == 2


def test_vote_totals_sum_to_pair_count(rng):
    X, y = make_blobs(rng, [(2 * k, 0.0) for k in range(5)], per_class=8)
    model = train_multiclass(X, y, KernelParams(c=10.0, gamma=0.5))
    votes, _, _ = _vote(len(model.classes), decision_table(model, rng.normal(size=(30, 2)) * 4))
    assert np.all(votes.sum(axis=1) == 10)  # 5*4/2


def test_vote_equals_per_pair_reference(rng):
    # Decision values drawn from a few small integers give exact zeros and
    # exact vote and margin ties; the columns are the class pairs in order,
    # none for a single class.  A single row is drawn often: with 8 or more
    # pairs per class, numpy sums a contiguous pair axis pairwise, which
    # rounds differently from the loop.
    for trial in range(200):
        m = int(rng.integers(1, 13))
        classes = [int(c) for c in rng.permutation(20)[:m]]
        pairs = class_pairs(classes)
        n = 1 if trial % 4 == 3 else int(rng.integers(0, 40))
        values = rng.integers(-2, 3, size=(n, len(pairs))) * 0.5
        if trial % 2:
            values = values + rng.normal(size=values.shape) * (rng.random(values.shape) < 0.5)
        got, want = _vote(m, values), vote_reference(classes, pairs, values)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.shape == b.shape, trial
            assert np.ascontiguousarray(a).tobytes() == b.tobytes(), trial


def test_decision_table_rejects_non_finite_rows(rng):
    X, y = make_blobs(rng, [(0.0, 0.0), (4.0, 0.0), (0.0, 4.0), (4.0, 4.0)], per_class=6)
    model = train_multiclass(X, y, KernelParams(c=10.0, gamma=0.5))
    for bad in (np.nan, np.inf, -np.inf):
        rows = np.array([[1.0, 1.0], [bad, 0.0]])
        for predict in (decision_table, classify):
            with pytest.raises(DataError):
                predict(model, rows)


def test_one_row_alone_gets_its_batch_values_bit_for_bit(rng):
    # A single (n, d) product may round a row differently with n; every
    # product decision_table forms (PCA projection, kernel, coef) is one
    # product per row, so a row alone and in a batch get the same bits.
    mask = FeatureMask.parse("ang+dist+tip")
    hog_dim = 48
    centers = rng.normal(0.0, 1.0, size=(5, mask.dims() + hog_dim))
    raw = np.vstack([rng.normal(center, 0.8, size=(30, len(center))) for center in centers])
    labels = np.repeat(np.arange(5), 30)
    fusion = FusionConfig(mask=mask, hog_weight=0.5, hog_dim=hog_dim)
    pca = fit_pca(Preprocessing(fusion=fusion).apply(raw), retained_fraction=0.95)
    pre = Preprocessing(fusion=fusion, pca=pca)
    plain = train_multiclass(raw, labels, KernelParams(10.0, 0.02))
    fused = train_multiclass(pre.apply(raw), labels, KernelParams(10.0, 0.05), preprocessing=pre)
    probes = rng.normal(0.0, 1.2, size=(80, raw.shape[1]))
    for model in (plain, fused):
        values = decision_table(model, probes)
        predicted, won = classify(model, probes)
        votes, margins, _ = _vote(len(model.classes), values)
        for i, row in enumerate(probes):
            assert decision_table(model, row).tobytes() == values[i].tobytes(), i
            row_label, row_won = classify(model, row)
            assert (row_label[0], row_won[0]) == (predicted[i], won[i]), i
            row_votes, row_margins, _ = _vote(len(model.classes), decision_table(model, row))
            assert np.array_equal(row_votes[0], votes[i]), i
            assert row_margins.tobytes() == margins[i].tobytes(), i


def test_prediction_rejects_stacks_of_rows(rng):
    # One row or an (n, d) matrix only: neither a (5, 6, d) nor a (30, 1, d)
    # stack is read as rows, with or without preprocessing.
    mask = FeatureMask.parse("ang+dist+tip")
    X, y = make_blobs(rng, [np.zeros(mask.dims() + 4), np.full(mask.dims() + 4, 3.0)], per_class=8)
    pre = Preprocessing(fusion=FusionConfig(mask=mask, hog_weight=0.5, hog_dim=4))
    plain = train_multiclass(X, y, KernelParams(10.0, 0.1))
    fused = train_multiclass(pre.apply(X), y, KernelParams(10.0, 0.1), preprocessing=pre)
    for model in (plain, fused):
        for shape in ((5, 6, X.shape[1]), (30, 1, X.shape[1])):
            for predict in (decision_table, classify):
                with pytest.raises(DimensionMismatch):
                    predict(model, np.zeros(shape))


def test_cyclic_tie_broken_by_margin_sum():
    # decision ~= bias everywhere near the origin: the one support vector
    # is far away, so its kernel contribution vanishes
    model = MulticlassSvm(
        classes=[0, 1, 2],  # pairs (0, 1), (0, 2), (1, 2)
        support_vectors=np.array([[1000.0]]),
        coef=np.full((1, 3), 1e-12),
        bias=np.array([0.5, -0.7, 0.9]),  # votes 0, 2, 1
        params=KernelParams(c=1.0, gamma=1.0),
        converged=np.ones(3, dtype=bool),
    )
    x = np.array([0.0])
    votes, margins, _ = _vote(3, decision_table(model, x))
    assert np.array_equal(votes[0], [1, 1, 1])
    # margin sums: class0 = 1.2, class1 = 1.4, class2 = 1.6
    assert classify(model, x)[0][0] == 2
    assert classify(model, x)[0][0] == 2  # deterministic on repeat


def test_multiclass_single_class_pair_reports_identity():
    X = np.zeros((4, 2))
    y = np.array([0, 0, 1, 1])
    # training rows of one class only: no pair to train
    with pytest.raises(SingleClassData):
        train_multiclass(X[:2], y[:2], KernelParams(1.0, 1.0))


# ---------------------------------------------------------------------------
# Grid search


def test_grid_search_cell_count(rng):
    X, y = make_blobs(rng, [(0.0, 0.0), (6.0, 0.0)], per_class=10)
    params, table, _ = grid_search(
        X, y, [1.0, 10.0, 100.0, 1000.0], [1e-4, 1e-3, 1e-2, 1e-1, 1.0], folds=2, seed=3
    )
    assert len(table) == 20
    assert all(0.0 <= row["accuracy"] <= 1.0 for row in table)


def test_grid_search_single_cell(rng):
    X, y = make_blobs(rng, [(0.0, 0.0), (6.0, 0.0)], per_class=10)
    params, table, converged = grid_search(X, y, [7.0], [0.3], folds=2, seed=3)
    assert converged
    assert params == KernelParams(c=7.0, gamma=0.3)
    assert len(table) == 1


def test_grid_search_gives_every_fit_its_budget(rng, monkeypatch):
    X, y = make_blobs(rng, [(0.0, 0.0), (6.0, 0.0), (0.0, 6.0)], per_class=10)
    budgets = []

    def spy(kernel, index, labels, c, tol, max_iter):
        budgets.append(max_iter)
        return _smo_lockstep(kernel, index, labels, c, tol, max_iter)

    monkeypatch.setattr(gesturelab.svm, "_smo_lockstep", spy)
    grid_search(X, y, [1.0, 1000.0], [0.5, 2.0], folds=2, seed=3, max_iter=7)
    assert len(budgets) == 2 and set(budgets) == {7}  # one lockstep call per gamma


def test_grid_search_single_class_raises_like_training(rng):
    # One class has no pair to solve: the search raises the typed error
    # that train_multiclass raises, before any kernel is built.
    X, _ = make_blobs(rng, [(0.0, 0.0)], per_class=6)
    y = np.zeros(6, dtype=int)
    with pytest.raises(SingleClassData, match="got 1"):
        grid_search(X, y, [1.0, 10.0], [0.5], folds=2, seed=3)
    with pytest.raises(SingleClassData, match="got 1"):
        train_multiclass(X, y, KernelParams(1.0, 0.5))
    empty = np.zeros((0, 0))
    result = _smo_lockstep(np.eye(2), empty.astype(np.intp), empty, 1.0, DEFAULT_TOL, 9)
    assert result.alpha.shape == (0, 0) and result.bias.shape == (0,)


def test_grid_search_tie_prefers_smaller_c_then_gamma(rng):
    X, y = make_blobs(rng, [(0.0, 0.0), (10.0, 0.0)], per_class=10, spread=0.2)
    params, table, _ = grid_search(X, y, [10.0, 1.0], [1.0, 0.1], folds=2, seed=3)
    assert all(row["accuracy"] == 1.0 for row in table)  # everything separates
    assert params == KernelParams(c=1.0, gamma=0.1)


def exact_blobs(rng, centers, per_class, spread=0.4):
    """Blobs on a 1/16 grid: every product and sum inside X @ X.T is exact,
    so a kernel block equals the kernel of the block's own rows bit for bit
    whatever the BLAS blocking (which otherwise moves entries by ulps)."""
    X, y = make_blobs(rng, centers, per_class=per_class, spread=spread)
    return np.round(X * 16.0) / 16.0, y


def test_grid_search_equals_per_fold_training(rng):
    # The shared-kernel search must give the table of the plain route:
    # train_multiclass on each fold's rows, classify its held-out rows.
    from gesturelab.data import stratified_folds

    X, y = exact_blobs(rng, [(0.0, 0.0), (1.5, 0.0), (0.0, 1.5)], per_class=12, spread=0.7)
    c_grid, gamma_grid, folds, seed = [1.0, 100.0], [0.1, 2.0], 3, 4
    _, table, _ = grid_search(X, y, c_grid, gamma_grid, folds=folds, seed=seed)
    fold_of = stratified_folds(y, folds, seed)
    expected = []
    for c in c_grid:
        for gamma in gamma_grid:
            correct = 0
            for f in range(folds):
                train, held = fold_of != f, fold_of == f
                model = train_multiclass(X[train], y[train], KernelParams(c, gamma))
                correct += int(np.sum(classify(model, X[held])[0] == y[held]))
            expected.append({"c": c, "gamma": gamma, "accuracy": correct / len(y)})
    assert table == expected
    assert len({row["accuracy"] for row in table}) > 1  # the grid points differ


def reference_grid_search(X, y, c_grid, gamma_grid, folds, seed):
    """(params, table) of a per-fold loop: one single-fit _fit_pairs on
    K[np.ix_(train, train)] per fold, C and gamma."""
    from gesturelab.data import stratified_folds

    fold_of = stratified_folds(y, folds, seed)
    sq = gesturelab.svm._squared_distances(X, X)
    points, accuracy = [], []
    for c in sorted(c_grid):
        for gamma in sorted(gamma_grid):
            K = gesturelab.svm._training_kernel(sq, gamma)
            correct = 0
            for f in range(folds):
                train, held = np.flatnonzero(fold_of != f), np.flatnonzero(fold_of == f)
                classes = np.unique(y[train])
                [(coef, bias, _)] = _fit_pairs(
                    K[np.ix_(train, train)], y[train], [(0, np.arange(len(train)), c)],
                    DEFAULT_MAX_ITER,
                )
                _, _, winners = _vote(len(classes), K[np.ix_(held, train)] @ coef + bias)
                correct += int(np.sum(classes[winners] == y[held]))
            points.append(KernelParams(c, gamma))
            accuracy.append(correct / len(y))
    table = [{"c": p.c, "gamma": p.gamma, "accuracy": a} for p, a in zip(points, accuracy)]
    return points[int(np.argmax(accuracy))], table


@pytest.mark.parametrize("slots", [None, 1, 300])
def test_grid_search_equals_per_fold_reference_loop(monkeypatch, slots):
    # grid_search solves all folds and C of one gamma in lockstep calls of
    # at most LOCKSTEP_SLOTS padded slots over the whole kernel; a small
    # bound splits them over several calls.  Either way the table and the
    # chosen params are the per-fold loop's.
    if slots is not None:
        monkeypatch.setattr(gesturelab.svm, "LOCKSTEP_SLOTS", slots)
    calls = []

    def counted(*args):
        calls.append(len(args[1]))
        return _smo_lockstep(*args)

    monkeypatch.setattr(gesturelab.svm, "_smo_lockstep", counted)
    rng = np.random.default_rng(31)
    split = 0
    for k in range(4):
        m, folds = int(rng.integers(3, 6)), int(rng.integers(2, 6))
        sizes = rng.integers(folds, 14, size=m)
        centers = rng.normal(0.0, 1.0, size=(m, 2))
        X = np.vstack([rng.normal(ctr, 0.7, size=(s, 2)) for ctr, s in zip(centers, sizes)])
        y = rng.permutation(np.repeat(np.arange(m), sizes))
        c_grid = list(rng.choice([0.1, 1.0, 10.0, 1000.0], size=2 + k % 2, replace=False))
        gamma_grid = list(rng.choice([0.1, 0.5, 2.0], size=2, replace=False))
        seed = int(rng.integers(100))
        calls.clear()
        params, table, _ = grid_search(X, y, c_grid, gamma_grid, folds=folds, seed=seed)
        assert sum(calls) == len(c_grid) * len(gamma_grid) * folds * m * (m - 1) // 2, k
        if slots is None:
            assert len(calls) == len(gamma_grid), k  # one call per gamma
        split += len(calls) > len(gamma_grid) and max(calls) > m * (m - 1) // 2
        expected = reference_grid_search(X, y, c_grid, gamma_grid, folds, seed)
        assert (params, table) == expected, k
        assert len({row["accuracy"] for row in table}) > 1, k
    assert slots != 300 or split >= 2  # calls of several fits, but not all of one gamma


def test_multiclass_shared_gram_equals_per_pair_training(rng):
    X, y = exact_blobs(rng, [(0.0, 0.0), (1.5, 0.0), (0.0, 1.5), (1.5, 1.5)], per_class=10)
    params = KernelParams(c=10.0, gamma=0.8)
    model = train_multiclass(X, y, params)
    probes = rng.normal(size=(40, 2)) + 0.75
    table = decision_table(model, probes)
    for p, (ci, cj) in enumerate(model.pairs):
        rows = (y == ci) | (y == cj)
        alone = train_multiclass(X[rows], y[rows], params)
        sv = model.coef[:, p] != 0.0
        assert np.array_equal(model.support_vectors[sv], alone.support_vectors)
        assert np.allclose(model.coef[sv, p], alone.coef[:, 0], rtol=0.0, atol=1e-9)
        assert abs(model.bias[p] - alone.bias[0]) <= 1e-9
        assert np.array_equal(table[:, p] >= 0, pair_values(alone, probes) >= 0)
    assert model.pairs == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def test_grid_search_rejects_mismatched_shapes(rng):
    X = rng.normal(size=(4, 2))
    for rows, labels in ((X, np.array([0, 0, 1, 1, 1])), (X[:, 0], np.array([0, 0, 1, 1]))):
        with pytest.raises(DimensionMismatch):
            grid_search(rows, labels, [1.0], [0.1], folds=2, seed=0)


def test_grid_search_insufficient_data(rng):
    X = rng.normal(size=(5, 2))
    y = np.array([0, 1, 1, 1, 1])
    with pytest.raises(InsufficientData):
        grid_search(X, y, [1.0], [0.1], folds=2, seed=0)


def test_grid_search_degrades_folds_with_warning(rng):
    X, y = make_blobs(rng, [(0.0, 0.0), (6.0, 0.0)], per_class=3, spread=0.2)
    with pytest.warns(UserWarning, match="reducing folds"):
        params, table, _ = grid_search(X, y, [1.0], [0.5], folds=10, seed=0)
    assert len(table) == 1


def test_stratified_folds_cover_classes(rng):
    from gesturelab.svm import stratified_folds

    labels = np.repeat(np.arange(4), 12)
    fold_of = stratified_folds(labels, 3, seed=5)
    for f in range(3):
        held = labels[fold_of == f]
        assert set(held.tolist()) == {0, 1, 2, 3}
        assert len(held) == 16


# ---------------------------------------------------------------------------
# Serialization


def test_model_roundtrip_with_preprocessing(tmp_path, rng):
    mask = FeatureMask.parse("ang+dist")
    hog_dim = 6
    raw = np.hstack([rng.normal(size=(40, mask.dims())), rng.normal(size=(40, hog_dim))])
    labels = np.repeat([0, 1], 20)
    fusion = FusionConfig(mask=mask, hog_weight=3.0, hog_dim=hog_dim)
    pre = Preprocessing(fusion=fusion, pca=fit_pca(raw, retained_fraction=0.9))
    model = train_multiclass(pre.apply(raw), labels, KernelParams(5.0, 0.2), preprocessing=pre)

    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)

    probes = np.hstack(
        [rng.normal(size=(15, mask.dims())), rng.normal(size=(15, hog_dim))]
    )
    assert np.array_equal(classify(model, probes)[0], classify(loaded, probes)[0])
    assert loaded.pairs == model.pairs and loaded.params == model.params
    for name in ("support_vectors", "coef", "bias", "converged"):
        assert np.array_equal(getattr(model, name), getattr(loaded, name)), name


def test_model_json_resave_is_byte_identical(tmp_path, rng):
    mask = FeatureMask.parse("ang+dist")
    raw = np.hstack([rng.normal(size=(40, mask.dims())), rng.normal(size=(40, 6))])
    raw[:, [3, 12]] = 0.0  # constant columns: sign-fixed PCA components hold -0.0 there
    fusion = FusionConfig(mask=mask, hog_weight=3.0, hog_dim=6)
    pre = Preprocessing(fusion=fusion, pca=fit_pca(raw, retained_fraction=0.9))
    components = pre.pca.components
    assert np.any((components == 0.0) & np.signbit(components))
    model = train_multiclass(pre.apply(raw), np.repeat([0, 1], 20), KernelParams(5.0, 0.2),
                             preprocessing=pre)

    first, second = tmp_path / "first.json", tmp_path / "second.json"
    save_model(model, first)
    save_model(load_model(first), second)
    assert first.read_bytes() == second.read_bytes()


def test_model_without_support_vectors_loads_back(tmp_path, rng):
    # A zero budget keeps no support vector, and model.json stores "[]" for
    # both tables: loading restores the (0, d) and (0, pairs) shapes.
    mask = FeatureMask.parse("ang")
    raw = rng.normal(size=(30, mask.dims() + 3))
    labels = np.repeat([0, 1, 2], 10)
    fusion = FusionConfig(mask=mask, hog_weight=2.0, hog_dim=3)
    pres = [None, Preprocessing(fusion=fusion)]
    pres.append(Preprocessing(fusion=fusion, pca=fit_pca(pres[1].apply(raw), n_components=4)))
    for pre in pres:
        rows = raw if pre is None else pre.apply(raw)
        model = train_multiclass(rows, labels, KernelParams(1.0, 0.5), max_iter=0,
                                 preprocessing=pre)
        assert model.coef.shape == (0, 3)
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.coef.shape == (0, 3)
        if pre is not None:
            assert loaded.support_vectors.shape == model.support_vectors.shape
        assert np.array_equal(decision_table(loaded, raw), decision_table(model, raw))
        assert classify(loaded, raw)[0].tolist() == classify(model, raw)[0].tolist()
        save_model(loaded, tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


MODEL_V1 = Path(__file__).parent / "data" / "model_v1.json"


def test_version_1_model_file_is_rejected(tmp_path):
    # Written by the per-pair model code before the one-table layout: one
    # record of support vectors and coefficients per pair.  Version 1 is an
    # unsupported version like any other; the CLI reports it in one line.
    with pytest.raises(SchemaVersionMismatch):
        load_model(MODEL_V1)
    features = tmp_path / "features.npz"
    np.savez(features, tracking=np.zeros((2, 25)), labels=[0, 1], sample_ids=["a", "b"])
    result = subprocess.run(
        [sys.executable, "-m", "gesturelab.cli", "predict", "--model", str(MODEL_V1),
         "--features-file", str(features), "--out", str(tmp_path / "p.csv")],
        env=dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src")),
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 2, result.stderr
    assert result.stderr == "data error: unsupported model version 1\n"


def test_preprocessing_applies_to_one_row_or_many(rng):
    mask = FeatureMask.parse("ang+tip")
    raw = rng.normal(size=(5, mask.dims() + 4))
    pre = Preprocessing(fusion=FusionConfig(mask=mask, hog_weight=2.5, hog_dim=4))
    td = mask.dims()
    expected = np.hstack([raw[:, :td], 2.5 * raw[:, td:]])
    assert np.array_equal(pre.apply(raw), expected)
    assert np.array_equal(pre.apply(raw[1]), expected[1])
    with pytest.raises(DimensionMismatch):
        pre.apply(raw[:, 1:])


def test_model_version_check(rng):
    X, y = make_blobs(rng, [(0.0, 0.0), (4.0, 0.0)], per_class=5)
    model = train_multiclass(X, y, KernelParams(1.0, 0.5))
    data = model_to_dict(model)
    data["version"] = 99
    with pytest.raises(SchemaVersionMismatch):
        model_from_dict(data)
