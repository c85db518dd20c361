"""SMO for the binary soft-margin SVM dual over a precomputed kernel.

Each problem is the standard dual

    minimize    0.5 a' Q a - sum(a)      with Q_ij = y_i y_j K(x_i, x_j)
    subject to  y' a = 0,  0 <= a_i <= C

solved by sequential minimal optimization with second-order working set
selection (Fan, Chen & Lin, 2005), LIBSVM's default.  Several problems
over one kernel, such as the class pairs of a one-vs-one fit, are solved
in lockstep over their padded (problems, width) state: each iteration,
and the epilogue (gap, bias and feasibility checks), is one set of array
operations over every problem, with the kernel rows gathered from the
shared matrix.  Each problem gets exactly the steps and result it would
get alone; `smo_solve` runs the same code on a single problem.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, DimensionMismatch, InsufficientData, NumericalError

DEFAULT_TOL = 1e-3
DEFAULT_MAX_ITER = 1_000_000
# Relative tolerance of the dual equality y'a = 0, in units of c * n.
EQUALITY_RTOL = 1e-12


@dataclass
class SmoResult:
    """One problem's solution; from `_smo_lockstep`, every field has a leading problem axis."""

    alpha: np.ndarray
    bias: float
    converged: bool
    iterations: int
    # Final KKT violation max(v | up) - min(v | low), 0 if either set is empty.
    gap: float


def smo_solve(kernel, y, c, tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER):
    """Solve the SVM dual for labels y in {-1, +1}.

    `kernel` is the dense (n, n) training kernel matrix, as LIBSVM's
    precomputed-kernel mode takes it, solved by `_smo_lockstep` as a set
    of one.  Returns multipliers, the bias (averaged over free support
    vectors, or the midpoint of the feasible interval if none are free),
    a convergence flag, the update count and the final gap.  Bad
    arguments raise typed errors; a non-finite kernel raises
    NumericalError before any update, as does a non-finite or infeasible
    result.
    """
    y = np.asarray(y, dtype=float)
    n = y.size
    kernel = np.asarray(kernel, dtype=float)
    if y.ndim != 1 or kernel.shape != (n, n):
        raise DimensionMismatch(f"kernel is {kernel.shape}, labels {y.shape} need ({n}, {n})")
    if n == 0:
        raise InsufficientData("SMO needs at least one row")
    if not np.isin(y, (-1.0, 1.0)).all():
        raise DataError("SMO labels must all be -1 or +1")
    if not (np.isfinite(c) and c > 0):
        raise ConfigError(f"c must be finite and > 0, got {c!r}")
    if not np.isfinite(kernel).all():
        raise NumericalError("SMO kernel holds a non-finite value")
    result = _smo_lockstep(kernel, np.arange(n)[None], y[None], c, tol, max_iter)
    fields = (result.bias, result.converged, result.iterations, result.gap)
    return SmoResult(result.alpha[0], *(x[0].item() for x in fields))


def _smo_lockstep(kernel, index, labels, c, tol, max_iter):
    """SMO on several duals over one kernel, every problem advanced together.

    Problem p solves the dual over the rows `index[p]` of `kernel` with
    the labels `labels[p]` in {-1, +1}; slots labelled 0 are padding.
    With v = -y * gradient, each update picks its pair by second-order
    working set selection (Fan, Chen & Lin, JMLR 6, 2005; LIBSVM's
    default): i maximises v over the rows whose alpha may move up along
    y, and j is the row t that may move down with b_t = v_i - v_t > 0
    maximising b_t^2 / a_t, where a_t = max(K_ii + K_tt - 2 K_it, 1e-12);
    ties go to the first row.  The step b_j / a_j is capped at the box.
    A problem stops when its KKT violation gap max(v | up) - min(v | low)
    drops to `tol` or the iteration budget is spent; its state is then
    copied out, and its row leaves the active state: one (6, problems,
    width) array of y, diag, alpha, v and the up/low penalties.

    Each iteration gathers kernel rows i and j of every active problem
    from `kernel`, so no per-problem block is built.  Padded slots are in
    neither set; with a finite kernel and C their v stays finite, so they
    are never picked.  Every element-wise operation is the one a solve
    of that problem alone would do, in the same order, so its iterates do
    not depend on the other problems.  Returns `_smo_results`.
    """
    kernel = np.ascontiguousarray(kernel)
    n = len(kernel)
    # v = -y * gradient of the dual objective, which is -1 at alpha = 0.
    # Penalties marking the slots whose alpha may move up / down along y:
    # 0 in the set, -inf outside.  At alpha = 0 the positives may move up
    # and the negatives down.  Only slots i and j change per update.
    blocked = -np.inf
    state = np.stack((
        labels, kernel.diagonal()[index], np.zeros_like(labels), labels,
        np.where(labels > 0, 0.0, blocked), np.where(labels < 0, 0.0, blocked),
    ))
    penalty = np.array([blocked, 0.0])  # indexed by set membership

    # The final alpha, v, up and low of each problem, written when it stops.
    final = np.zeros((4, *labels.shape))
    converged = np.zeros(len(labels), dtype=bool)
    steps = np.zeros(len(labels), dtype=int)
    live = np.arange(len(labels))  # the problem of each state row
    iterations = 0
    while len(live):
        y, diag, alpha, v, up, low = state  # views: updates write the state
        # take/put index the flattened state: row k starts at k * width.
        m, width = y.shape
        base = np.arange(m) * width
        second = np.arange(2 * m) >= m  # the j half of [i, j]
        b = np.empty_like(v)
        done = np.zeros(m, dtype=bool)
        while iterations < max_iter:
            np.add(v, up, out=b)
            fi = base + b.argmax(axis=1)
            v_i = v.take(fi)
            # b = v_i - v on the low set and -inf off it, so its maximum is
            # the gap, and -inf when either set is empty.
            np.subtract(v_i[:, None], v, out=b)
            b += low
            done = b.take(base + b.argmax(axis=1)) <= tol
            if done.any():
                break
            # Curvatures a_it of row i against every slot.
            kernel_i = kernel.take(index + (n * index.take(fi))[:, None])
            curv = diag.take(fi)[:, None] + diag
            curv -= 2.0 * kernel_i
            np.maximum(curv, 1e-12, out=curv)
            # Clipped at 0, slots off the low set or with b <= 0 score 0,
            # below every candidate.
            np.maximum(b, 0.0, out=b)
            b *= b
            b /= curv
            fj = base + b.argmax(axis=1)

            # Slots i then j; the update moves alpha_i up along y_i and
            # alpha_j down along y_j.  min and max are Python's: the first
            # argument wins ties and NaN comparisons.
            fk = np.concatenate((fi, fj))
            a, s = alpha.take(fk), y.take(fk)
            pos_k = s > 0
            cap = np.where(pos_k != second, c - a, a)
            step = (v_i - v.take(fj)) / curv.take(fj)
            np.copyto(step, cap[:m], where=cap[:m] < step)
            np.copyto(step, cap[m:], where=cap[m:] < step)
            s[m:] *= -1.0
            a += s * np.concatenate((step, step))
            np.copyto(a, 0.0, where=0.0 > a)
            np.copyto(a, c, where=c < a)
            alpha.put(fk, a)  # j last: it wins if i == j
            v -= step[:, None] * (kernel_i - kernel.take(index + (n * index.take(fj))[:, None]))
            below, above = a < c, a > 0.0
            up.put(fk, penalty.take(np.where(pos_k, below, above)))
            low.put(fk, penalty.take(np.where(pos_k, above, below)))
            iterations += 1

        spent = iterations >= max_iter
        stop = np.ones(m, dtype=bool) if spent else done
        final[:, live[stop]] = state[2:, stop]
        converged[live[stop]], steps[live[stop]] = not spent, iterations
        state, index, live = state[:, ~stop], index[~stop], live[~stop]
    return _smo_results(labels, c, *final, converged, steps)


def _smo_results(y, c, alpha, v, up, low, converged, iterations):
    """SmoResult of all problems' final states (rows), checked for feasibility.

    A padded or segmented sum rounds differently from np.mean(v[free]),
    so the bias is one row-wise mean per count of free rows.
    """
    up_rows, low_rows = up == 0.0, low == 0.0
    hi = np.where(up_rows.any(axis=1), v.max(axis=1, where=up_rows, initial=-np.inf), 0.0)
    lo = np.where(low_rows.any(axis=1), v.min(axis=1, where=low_rows, initial=np.inf), 0.0)
    gap = np.where(up_rows.any(axis=1) & low_rows.any(axis=1), hi - lo, 0.0)
    free = (alpha > 0.0) & (alpha < c)
    bias = 0.5 * (hi + lo)
    counts = free.sum(axis=1)
    for k in np.unique(counts[counts > 0]):
        same = counts == k
        bias[same] = np.mean(v[same][free[same]].reshape(-1, k), axis=1)

    # Dual feasibility must hold regardless of convergence.  Each update
    # keeps y'a = 0 up to rounding of terms no larger than c, so the
    # tolerance scales with c and each problem's n.
    finite = np.isfinite(alpha).all(axis=1) & np.isfinite(bias)
    infeasible = ((alpha < 0.0) | (alpha > c)).any(axis=1) | (
        np.abs((alpha * y).sum(axis=1)) > EQUALITY_RTOL * c * (y != 0.0).sum(axis=1)
    )
    for bad, what in ((~finite, "a non-finite"), (infeasible, "an infeasible dual")):
        if bad.any():
            raise NumericalError(f"SMO produced {what} solution after {iterations[bad][0]} updates")
    return SmoResult(alpha=alpha, bias=bias, converged=converged, iterations=iterations, gap=gap)
