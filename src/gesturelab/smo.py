"""SMO for the binary soft-margin SVM dual over a precomputed kernel.

Each problem is the standard dual

    minimize    0.5 a' Q a - sum(a)      with Q_ij = y_i y_j K(x_i, x_j)
    subject to  y' a = 0,  0 <= a_i <= C

solved by sequential minimal optimization with second-order working set
selection (Fan, Chen & Lin, 2005), LIBSVM's default.  Several problems
over one kernel, such as the class pairs of a one-vs-one fit, are solved
in lockstep by one loop: each iteration is one set of array operations
over every problem not yet stopped, with the kernel rows it needs
gathered from the shared matrix.  Each problem takes exactly the steps
it would take alone; `smo_solve` runs the same loop on a single problem.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NumericalError

DEFAULT_TOL = 1e-3
DEFAULT_MAX_ITER = 1_000_000
# Relative tolerance of the dual equality y'a = 0, in units of c * n.
EQUALITY_RTOL = 1e-12


@dataclass
class SmoResult:
    alpha: np.ndarray
    bias: float
    converged: bool
    iterations: int
    # Final KKT violation max(v | up) - min(v | low), 0 if either set is empty.
    gap: float


def smo_solve(kernel, y, c, tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER):
    """Solve the SVM dual for labels y in {-1, +1}.

    `kernel` is the dense (n, n) training kernel matrix, as LIBSVM's
    precomputed-kernel mode takes it.  The problem is solved by the
    lockstep core `_smo_lockstep` as a set of one; see there for the
    working set selection, the step and the stopping rule.  Returns
    multipliers, the bias (averaged over free support vectors, or the
    midpoint of the feasible interval if none are free), a convergence
    flag, the update count and the final gap.  A non-finite or
    infeasible result (for example from a kernel holding NaN) raises
    NumericalError.
    """
    y = np.asarray(y, dtype=float)
    n = y.size
    kernel = np.asarray(kernel, dtype=float)
    if kernel.shape != (n, n):
        raise DimensionMismatch(f"kernel is {kernel.shape}, labels need ({n}, {n})")
    return _smo_lockstep(kernel, [np.arange(n)], [y], c, tol, max_iter)[0]


def _smo_lockstep(kernel, rows, labels, c, tol, max_iter):
    """SMO on several duals over one kernel, every problem advanced together.

    Problem p solves the dual over the rows `rows[p]` of `kernel` with
    the labels `labels[p]` in {-1, +1}.  With v = -y * gradient, each
    update picks its pair by second-order working set selection (Fan,
    Chen & Lin, JMLR 6, 2005; LIBSVM's default): i maximises v over the
    rows whose alpha may move up along y, and j is the row t that may
    move down with b_t = v_i - v_t > 0 maximising b_t^2 / a_t, where
    a_t = max(K_ii + K_tt - 2 K_it, 1e-12); ties go to the first row.
    The step b_j / a_j is capped at the box.  A problem stops when its
    KKT violation gap max(v | up) - min(v | low) drops to `tol` or the
    iteration budget is spent.

    One iteration is one set of array operations over the active
    problems, each padded to the longest: kernel rows i and j of every
    problem are gathered from `kernel`, and row i's curvatures computed
    from them, so no per-problem kernel block is built.  Padded slots
    are in neither set; with a finite kernel and C their v stays finite,
    so they are never picked.  A problem that stops leaves the active
    set.  Every element-wise operation is the one a solve of that
    problem alone would do, in the same order, so its iterates do not
    depend on the other problems.  Returns one SmoResult per problem.
    """
    if not rows:
        return []
    kernel = np.ascontiguousarray(kernel)
    n = len(kernel)
    sizes = np.array([len(r) for r in rows])
    width = int(sizes.max())
    pad = np.arange(width) >= sizes[:, None]
    index = np.zeros((len(rows), width), dtype=np.intp)
    y = np.zeros((len(rows), width))
    for p, (r, labels_p) in enumerate(zip(rows, labels)):
        index[p, : sizes[p]] = r
        y[p, : sizes[p]] = labels_p
    diag = kernel.diagonal()[index]
    alpha = np.zeros_like(y)
    pos = y > 0
    # v = -y * gradient of the dual objective, which is -1 at alpha = 0.
    v = y.copy()
    # Penalties marking the slots whose alpha may move up / down along y:
    # 0 in the set, -inf outside.  At alpha = 0 the positives may move up
    # and the negatives down.  Only slots i and j change per update.
    blocked = -np.inf
    up = np.where(pos & ~pad, 0.0, blocked)
    low = np.where(pos | pad, blocked, 0.0)
    penalty = np.array([blocked, 0.0])  # indexed by set membership

    live = np.arange(len(rows))  # the problem of each state row
    stopped = [None] * len(rows)
    iterations = 0
    while len(live):
        # take/put index the flattened state: row k starts at k * width.
        m = len(live)
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
            a, s, pos_k = alpha.take(fk), y.take(fk), pos.take(fk)
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
        for k, p in zip(np.flatnonzero(stop), live[stop]):
            # Copies of the unpadded rows, so the state can be freed.
            final = (x[k, : sizes[p]].copy() for x in (alpha, v, up, low))
            stopped[p] = (*final, not spent, iterations)
        live, index, y, pos, diag, alpha, v, up, low = (
            x[~stop] for x in (live, index, y, pos, diag, alpha, v, up, low)
        )
    return [_smo_result(labels_p, c, *state) for labels_p, state in zip(labels, stopped)]


def _smo_result(y, c, alpha, v, up, low, converged, iterations):
    """SmoResult of one problem's final state, checked for feasibility."""
    n = y.size
    up_rows, low_rows = up == 0.0, low == 0.0
    hi = v[up_rows].max() if up_rows.any() else 0.0
    lo = v[low_rows].min() if low_rows.any() else 0.0
    gap = float(hi - lo) if up_rows.any() and low_rows.any() else 0.0
    free = (alpha > 0.0) & (alpha < c)
    bias = float(np.mean(v[free])) if free.any() else float(0.5 * (hi + lo))

    # Dual feasibility must hold regardless of convergence.  Each update
    # keeps y'a = 0 up to rounding of terms no larger than c, so the
    # tolerance scales with c and n.
    if not (np.isfinite(alpha).all() and np.isfinite(bias)):
        raise NumericalError(f"SMO produced a non-finite solution after {iterations} updates")
    if alpha.min() < 0.0 or alpha.max() > c or abs(np.dot(alpha, y)) > EQUALITY_RTOL * c * n:
        raise NumericalError(f"SMO produced an infeasible dual solution after {iterations} updates")
    return SmoResult(alpha=alpha, bias=bias, converged=converged, iterations=iterations, gap=gap)
