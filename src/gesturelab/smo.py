"""SMO for the binary soft-margin SVM dual over a precomputed kernel.

Each problem is the standard dual

    minimize    0.5 a' Q a - sum(a)      with Q_ij = y_i y_j K(x_i, x_j)
    subject to  y' a = 0,  0 <= a_i <= C

solved by sequential minimal optimization with second-order working set
selection (Fan, Chen & Lin, 2005), LIBSVM's default.  Several problems
over one kernel, or over a stack of square kernels of equal size, such
as the class pairs of every fold and C of the grid searches of several
feature sets, each with its own C, are solved in lockstep over their
padded (problems, width) state: each iteration, and the epilogue (gap,
bias and feasibility checks), is one set of array operations over every
problem, with the kernel rows gathered from the stack.  A problem that
stops stays frozen in the state until half of them have stopped, so the
state is compacted a few times per call, not at every stop.  Each
problem gets exactly the steps and result it would get alone.

Every kernel must have a diagonal of exactly 1, as the RBF training
kernels of `svm._training_kernel` do: the curvature K_ii + K_tt - 2 K_it
of the working-set selection is computed as 2 - 2 K_it, and the
diagonal is never read.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError

DEFAULT_TOL = 1e-3
DEFAULT_MAX_ITER = 1_000_000
# Relative tolerance of the dual equality y'a = 0, in units of c * n.
EQUALITY_RTOL = 1e-12


@dataclass
class SmoResult:
    """The solutions of `_smo_lockstep`'s problems; every field has a leading problem axis."""

    alpha: np.ndarray
    bias: float
    converged: bool
    iterations: int
    # Final KKT violation max(v | up) - min(v | low), 0 if either set is empty.
    gap: float


def _smo_lockstep(kernel, index, labels, c, tol, max_iter):
    """SMO on several duals over a stack of kernels, every problem advanced together.

    `kernel` is one (n, n) kernel or k of them stacked as (k * n, n):
    row `u * n + r` is row r of kernel u.  Problem p solves the dual over
    the rows `index[p]` of `kernel`, all in one kernel u, whose columns
    are `index[p] % n`, with the labels `labels[p]` in {-1, +1} and the
    box bound `c`, a scalar or one C per problem; slots labelled 0 are
    padding, and index a row of the same kernel.  Every kernel's
    diagonal must be exactly 1, as `svm._training_kernel` sets it; it is
    not checked.  With v = -y * gradient, each update picks its pair by
    second-order working set selection (Fan, Chen & Lin, JMLR 6, 2005;
    LIBSVM's default): i maximises v over the rows whose alpha may move
    up along y, and j is the row t that may move down with
    b_t = v_i - v_t > 0 maximising b_t^2 / a_t, where
    a_t = max(K_ii + K_tt - 2 K_it, 1e-12) = max(2 - 2 K_it, 1e-12);
    ties go to the first row.  The step b_j / a_j is capped at the box.
    A problem stops when its KKT violation gap max(v | up) - min(v | low)
    drops to `tol` or the iteration budget is spent; its state is then
    copied out.  A stopped problem's row stays in the active state,
    frozen by a zero step (alpha and v are never -0.0, so adding a signed
    zero leaves them bit-identical), until at most half the rows are
    live; only then is the state compacted to the live rows.  The state
    is one (5, problems, width) array of y, alpha, v and the up/low
    penalties.

    Each iteration gathers kernel rows i and j of every active problem
    from `kernel`, so no per-problem block is built.  Padded slots are in
    neither set; with a finite kernel and C their v stays finite, so they
    are never picked.  Every element-wise operation is the one a solve
    of that problem alone would do, in the same order, so its iterates do
    not depend on the other problems.  Returns `_smo_results`; its
    NumericalError carries `unit`, the kernel of the first failed problem.
    """
    kernel = np.ascontiguousarray(kernel)
    n = kernel.shape[1]
    cols = index % n
    units = index.max(axis=1, initial=0) // n
    c = np.broadcast_to(np.asarray(c, dtype=float), len(labels))
    # v = -y * gradient of the dual objective, which is -1 at alpha = 0.
    # Penalties marking the slots whose alpha may move up / down along y:
    # 0 in the set, -inf outside.  At alpha = 0 the positives may move up
    # and the negatives down.  Only slots i and j change per update.
    blocked = -np.inf
    state = np.stack((
        labels, np.zeros_like(labels), labels,
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
        y, alpha, v, up, low = state  # views: updates write the state
        # take/put index the flattened state: row k starts at k * width.
        m, width = y.shape
        base = np.arange(m) * width
        second = np.arange(2 * m) >= m  # the j half of [i, j]
        box = np.concatenate((c[live], c[live]))  # C of slots i then j
        b = np.empty_like(v)
        stopped = np.zeros(m, dtype=bool)  # copied out and frozen
        while iterations < max_iter:
            np.add(v, up, out=b)
            fi = base + b.argmax(axis=1)
            v_i = v.take(fi)
            # b = v_i - v on the low set and -inf off it, so its maximum is
            # the gap, and -inf when either set is empty.
            np.subtract(v_i[:, None], v, out=b)
            b += low
            done = b.take(base + b.argmax(axis=1)) <= tol
            done &= ~stopped
            if done.any():
                final[:, live[done]] = state[1:, done]
                converged[live[done]], steps[live[done]] = True, iterations
                stopped |= done
                if 2 * stopped.sum() >= m:
                    break
            # Curvatures a_it of row i against every slot.
            kernel_i = kernel.take(cols + (n * index.take(fi))[:, None])
            curv = np.multiply(kernel_i, -2.0)
            curv += 2.0
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
            cap = np.where(pos_k != second, box - a, a)
            step = (v_i - v.take(fj)) / curv.take(fj)
            np.copyto(step, cap[:m], where=cap[:m] < step)
            np.copyto(step, cap[m:], where=cap[m:] < step)
            step[stopped] = 0.0
            s[m:] *= -1.0
            a += s * np.concatenate((step, step))
            np.copyto(a, 0.0, where=0.0 > a)
            np.copyto(a, box, where=box < a)
            alpha.put(fk, a)  # j last: it wins if i == j
            v -= step[:, None] * (kernel_i - kernel.take(cols + (n * index.take(fj))[:, None]))
            below, above = a < box, a > 0.0
            up.put(fk, penalty.take(np.where(pos_k, below, above)))
            low.put(fk, penalty.take(np.where(pos_k, above, below)))
            iterations += 1

        if iterations >= max_iter:  # the budget stops every live problem
            final[:, live[~stopped]] = state[1:, ~stopped]
            steps[live[~stopped]] = iterations
            break
        state, live = state[:, ~stopped], live[~stopped]
        index, cols = index[~stopped], cols[~stopped]
    return _smo_results(labels, c, *final, converged, steps, units)


def _smo_results(y, c, alpha, v, up, low, converged, iterations, units):
    """SmoResult of all problems' final states (rows) and their (problems,)
    C and kernels, checked for feasibility.

    A padded or segmented sum rounds differently from np.mean(v[free]),
    so the bias is one row-wise mean per count of free rows.
    """
    up_rows, low_rows = up == 0.0, low == 0.0
    hi = np.where(up_rows.any(axis=1), v.max(axis=1, where=up_rows, initial=-np.inf), 0.0)
    lo = np.where(low_rows.any(axis=1), v.min(axis=1, where=low_rows, initial=np.inf), 0.0)
    gap = np.where(up_rows.any(axis=1) & low_rows.any(axis=1), hi - lo, 0.0)
    box = c[:, None]  # each problem's C against its row
    free = (alpha > 0.0) & (alpha < box)
    bias = 0.5 * (hi + lo)
    counts = free.sum(axis=1)
    for k in np.unique(counts[counts > 0]):
        same = counts == k
        bias[same] = np.mean(v[same][free[same]].reshape(-1, k), axis=1)

    # Dual feasibility must hold regardless of convergence.  Each update
    # keeps y'a = 0 up to rounding of terms no larger than c, so the
    # tolerance scales with c and each problem's n.
    finite = np.isfinite(alpha).all(axis=1) & np.isfinite(bias)
    infeasible = ((alpha < 0.0) | (alpha > box)).any(axis=1) | (
        np.abs((alpha * y).sum(axis=1)) > EQUALITY_RTOL * c * (y != 0.0).sum(axis=1)
    )
    for bad, what in ((~finite, "a non-finite"), (infeasible, "an infeasible dual")):
        if bad.any():
            error = NumericalError(
                f"SMO produced {what} solution after {iterations[bad][0]} updates"
            )
            error.unit = int(units[bad][0])
            raise error
    return SmoResult(alpha=alpha, bias=bias, converged=converged, iterations=iterations, gap=gap)
