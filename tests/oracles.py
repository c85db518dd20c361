"""Independent reference implementations used only by the tests.

These deliberately avoid the library's code paths (and LAPACK, for the
eigensolver) so that each check compares two unrelated routes to the
same quantity.
"""

import numpy as np


# ---------------------------------------------------------------------------
# Cyclic Jacobi eigendecomposition of a symmetric matrix


def jacobi_eigh(A, tol=1e-14, max_sweeps=60):
    """Eigenvalues (descending) and eigenvector columns of symmetric A.

    Classic cyclic Jacobi: rotate away each off-diagonal entry in turn
    until the off-diagonal Frobenius norm is negligible.
    """
    A = np.array(A, dtype=float)
    n = A.shape[0]
    V = np.eye(n)
    scale = max(np.abs(A).max(), 1e-300)
    for _ in range(max_sweeps):
        off = np.sqrt((np.tril(A, -1) ** 2).sum())
        if off <= tol * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = A[p, q]
                if abs(apq) <= 1e-300:
                    continue
                theta = (A[q, q] - A[p, p]) / (2.0 * apq)
                t = 1.0 / (abs(theta) + np.sqrt(theta * theta + 1.0))
                if theta < 0:
                    t = -t
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                rot_p = A[:, p].copy()
                rot_q = A[:, q].copy()
                A[:, p] = c * rot_p - s * rot_q
                A[:, q] = s * rot_p + c * rot_q
                rot_p = A[p, :].copy()
                rot_q = A[q, :].copy()
                A[p, :] = c * rot_p - s * rot_q
                A[q, :] = s * rot_p + c * rot_q
                rot_p = V[:, p].copy()
                rot_q = V[:, q].copy()
                V[:, p] = c * rot_p - s * rot_q
                V[:, q] = s * rot_p + c * rot_q
    values = np.diag(A).copy()
    order = np.argsort(-values, kind="stable")
    return values[order], V[:, order]


# ---------------------------------------------------------------------------
# Projected-gradient solver for the SVM dual


def project_box_equality(v, y, c):
    """Euclidean projection onto {0 <= x <= c, y.x = 0} for y in {-1,+1}.

    The projection is clip(v - theta*y, 0, c) for the theta making the
    equality hold; g(theta) = y.clip(...) is piecewise linear and
    nonincreasing, so theta comes from an exact breakpoint search.
    """
    v = np.asarray(v, dtype=float)
    y = np.asarray(y, dtype=float)
    lo = np.where(y > 0, v - c, -v)
    hi = np.where(y > 0, v, -v + c)
    points = np.concatenate([lo, hi])
    points = np.concatenate([[points.min() - 1.0], np.sort(points), [points.max() + 1.0]])

    def g(theta):
        x = np.clip(v - theta * y, 0.0, c)
        return float(np.dot(y, x))

    values = np.array([g(t) for t in points])
    # first index where g drops below zero; crossing lies on [k-1, k]
    below = np.flatnonzero(values <= 0.0)
    k = int(below[0])
    if k == 0 or values[k] == 0.0:
        theta = points[k]
    else:
        g0, g1 = values[k - 1], values[k]
        theta = points[k - 1] + g0 * (points[k] - points[k - 1]) / (g0 - g1)
    return np.clip(v - theta * y, 0.0, c)


def svm_dual_solve_pg(K, y, c, max_iter=30000, tol=1e-13):
    """Accelerated projected gradient on the SVM dual.

    Minimizes 0.5 a'Qa - sum(a) over the box-equality feasible set with
    a fixed 1/L step, Nesterov momentum, and a projected-residual stop.
    Two equal iterates stop it only when a plain step from the new one
    moves no further either; otherwise momentum restarts there.  (An
    extrapolated point far outside the box can project back onto the
    previous iterate, a box vertex, away from the optimum.)
    """
    K = np.asarray(K, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(y)
    Q = (y[:, None] * y[None, :]) * K
    L = max(float(np.linalg.eigvalsh(Q).max()), 1e-12)
    step = 1.0 / L
    alpha = np.zeros(n)
    momentum = alpha.copy()
    t_prev = 1.0
    for _ in range(max_iter):
        grad = Q @ momentum - 1.0
        new = project_box_equality(momentum - step * grad, y, c)
        if np.abs(new - alpha).max() < tol:
            plain = project_box_equality(new - step * (Q @ new - 1.0), y, c)
            if np.abs(plain - new).max() < tol:
                alpha = new
                break
            momentum, alpha, t_prev = new, new, 1.0
            continue
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_prev * t_prev))
        momentum = new + (t_prev - 1.0) / t_next * (new - alpha)
        alpha = new
        t_prev = t_next
    return alpha


def dual_objective(K, y, alpha):
    """SVM dual objective 0.5 a'Qa - sum(a) (the minimized form)."""
    K = np.asarray(K, dtype=float)
    y = np.asarray(y, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    Q = (y[:, None] * y[None, :]) * K
    return float(0.5 * alpha @ Q @ alpha - alpha.sum())


def smo_reference(kernel, y, c, tol, max_iter):
    """(alpha, bias, converged, iterations) of smo_reference_run."""
    return smo_reference_run(kernel, y, c, tol, max_iter)[:4]


def smo_reference_run(kernel, y, c, tol, max_iter):
    """SMO kept in its plain form: gradient-based, index sets rebuilt over
    all rows each iteration.  Returns (alpha, bias, converged, iterations,
    gap), the gap being the final max(v | up) - min(v | low), or 0 if
    either set is empty.

    Same second-order working set selection, step, stopping rule and bias
    as the library's solver, so the two must agree exactly: i maximises
    v = -y * grad over the up set; j is chosen by an explicit loop over
    the low set, the first row with b = v_i - v_t > 0 and the strictly
    largest b * b / a, with a = max(K_ii + K_tt - 2 K_it, 1e-12).
    """
    y = np.asarray(y, dtype=float)
    kernel = np.asarray(kernel, dtype=float)
    n = y.size
    alpha = np.zeros(n)
    grad = -np.ones(n)
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
        if v[i] - v[low].min() <= tol:
            converged = True
            break
        j, best, curvature = None, -np.inf, None
        for t in range(n):
            b = v[i] - v[t]
            if not (low[t] and b > 0.0):
                continue
            a = max(kernel[i, i] + kernel[t, t] - 2.0 * kernel[i, t], 1e-12)
            score = b * b / a
            if score > best:
                j, best, curvature = t, score, a
        step = (v[i] - v[j]) / curvature
        cap_i = (c - alpha[i]) if pos[i] else alpha[i]
        cap_j = alpha[j] if pos[j] else (c - alpha[j])
        step = min(step, cap_i, cap_j)
        alpha[i] = min(max(alpha[i] + y[i] * step, 0.0), c)
        alpha[j] = min(max(alpha[j] - y[j] * step, 0.0), c)
        grad += step * y * (kernel[i] - kernel[j])
        iterations += 1

    v = -y * grad
    up = (pos & (alpha < c)) | (~pos & (alpha > 0.0))
    low = (pos & (alpha > 0.0)) | (~pos & (alpha < c))
    hi = v[up].max() if up.any() else 0.0
    lo = v[low].min() if low.any() else 0.0
    gap = float(hi - lo) if up.any() and low.any() else 0.0
    free = (alpha > 0.0) & (alpha < c)
    if free.any():
        bias = float(np.mean(v[free]))
    else:
        bias = float(0.5 * (hi + lo))
    return alpha, bias, converged, iterations, gap


def vote_reference(classes, pairs, values):
    """(votes, margins, winners) of a one-vs-one vote by a loop over the pairs.

    Each pair in turn adds its vote (decision >= 0 to its first class)
    and |decision| to the margins of both its classes; the winner has
    the most votes, then the largest margin sum, then the lowest index.
    """
    index = {c: k for k, c in enumerate(classes)}
    votes = np.zeros((len(values), len(classes)), dtype=int)
    margins = np.zeros((len(values), len(classes)))
    for (ci, cj), vals in zip(pairs, values.T):
        first = vals >= 0.0
        ki, kj = index[ci], index[cj]
        votes[:, ki] += first
        votes[:, kj] += ~first
        margins[:, ki] += np.abs(vals)
        margins[:, kj] += np.abs(vals)
    tied = votes == votes.max(axis=1, keepdims=True)
    winners = np.argmax(np.where(tied, margins, -np.inf), axis=1)
    return votes, margins, winners


# ---------------------------------------------------------------------------
# Brute-force Otsu threshold


def otsu_bruteforce(img):
    """Between-class-variance maximizing threshold by explicit loops.

    Returns the smallest split t (pixels > t are foreground), i.e. the
    library's threshold convention minus one.
    """
    pixels = np.asarray(img).ravel()
    best_t, best_var = 0, -1.0
    for t in range(256):
        lower = pixels[pixels <= t]
        upper = pixels[pixels > t]
        if len(lower) == 0 or len(upper) == 0:
            var = 0.0
        else:
            w0 = len(lower) / len(pixels)
            w1 = 1.0 - w0
            var = w0 * w1 * (lower.mean() - upper.mean()) ** 2
        if var > best_var + 1e-12:
            best_var = var
            best_t = t
    return best_t


# ---------------------------------------------------------------------------
# Per-pixel undistortion


def undistort_loops(raw, samples, out_size):
    """Rectify `raw` through a (grid_h, grid_w, 2) calibration grid pixel by pixel.

    For each output pixel: its grid coordinate, the grid cell holding it
    (the last cell for the far edge), the cell's 4 corners, a validity
    check (an invalid corner has a negative coordinate), the bilinear
    (u, v) inside the cell, then a bilinear sample of the source image
    clamped to its edges.  Returns the unrounded values (0 where invalid)
    and the invalid mask.
    """
    raw = np.asarray(raw, dtype=float)
    samples = np.asarray(samples, dtype=float)
    out_w, out_h = out_size
    src_h, src_w = raw.shape
    grid_h, grid_w = samples.shape[:2]
    values = np.zeros((out_h, out_w))
    invalid = np.zeros((out_h, out_w), dtype=bool)
    for y in range(out_h):
        gy = y * (grid_h - 1) / (out_h - 1) if out_h > 1 else 0.0
        cy = min(int(gy), grid_h - 2)
        fy = gy - cy
        for x in range(out_w):
            gx = x * (grid_w - 1) / (out_w - 1) if out_w > 1 else 0.0
            cx = min(int(gx), grid_w - 2)
            fx = gx - cx
            c00, c01 = samples[cy, cx], samples[cy, cx + 1]
            c10, c11 = samples[cy + 1, cx], samples[cy + 1, cx + 1]
            if min(c00.min(), c01.min(), c10.min(), c11.min()) < 0.0:
                invalid[y, x] = True
                continue
            u, v = (1 - fy) * ((1 - fx) * c00 + fx * c01) + fy * ((1 - fx) * c10 + fx * c11)
            sx = min(max(u * (src_w - 1), 0.0), src_w - 1.0)
            sy = min(max(v * (src_h - 1), 0.0), src_h - 1.0)
            x0, y0 = int(sx), int(sy)
            x1, y1 = min(x0 + 1, src_w - 1), min(y0 + 1, src_h - 1)
            ax, ay = sx - x0, sy - y0
            top = (1 - ax) * raw[y0, x0] + ax * raw[y0, x1]
            bottom = (1 - ax) * raw[y1, x0] + ax * raw[y1, x1]
            values[y, x] = (1 - ay) * top + ay * bottom
    return values, invalid


# ---------------------------------------------------------------------------
# Per-pixel votes and per-block L2-Hys HOG


def hog_loops(img, params):
    """HOG descriptor of `img` with pixel-by-pixel votes and block-by-block
    L2-Hys normalization.

    Gradients are centered differences with edge replication.  Each
    pixel's magnitude is split between its two nearest orientation bins
    (circular); the lower-bin shares of a cell are summed in row-major
    pixel order, then the upper-bin shares, and the two sums added.
    Magnitude and orientation use the same numpy functions as the
    library, so the two must agree exactly.
    """
    img = np.asarray(img, dtype=float)
    h, w = img.shape
    cs, bins = params.cell_size, params.bins
    cells_x, cells_y = w // cs, h // cs
    gx = np.zeros((h, w))
    gy = np.zeros((h, w))
    for y in range(h):
        for x in range(w):
            gx[y, x] = img[y, min(x + 1, w - 1)] - img[y, max(x - 1, 0)]
            gy[y, x] = img[min(y + 1, h - 1), x] - img[max(y - 1, 0), x]
    magnitude = np.hypot(gx, gy)
    orientation = np.mod(np.arctan2(gy, gx), np.pi)
    bin_width = np.pi / bins
    lower_sum = np.zeros((cells_y, cells_x, bins))
    upper_sum = np.zeros((cells_y, cells_x, bins))
    for y in range(h):
        for x in range(w):
            position = orientation[y, x] / bin_width
            lower = int(np.floor(position))
            share = position - lower
            cell = (y // cs, x // cs)
            lower_sum[cell + (lower % bins,)] += magnitude[y, x] * (1 - share)
            upper_sum[cell + ((lower + 1) % bins,)] += magnitude[y, x] * share
    cells = lower_sum + upper_sum

    bc, stride = params.block_cells, params.block_stride
    out = []
    for by in range(0, cells_y - bc + 1, stride):
        for bx in range(0, cells_x - bc + 1, stride):
            out.append(_l2_hys(cells[by : by + bc, bx : bx + bc].ravel(), params.clip))
    return np.concatenate(out)


def _l2_hys(v, clip):
    norm = np.linalg.norm(v)
    if norm < 1e-12:
        return np.zeros_like(v)
    v = v / norm
    np.minimum(v, clip, out=v)
    norm = np.linalg.norm(v)
    if norm < 1e-12:
        return np.zeros_like(v)
    return v / norm
