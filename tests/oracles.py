"""Independent reference implementations used only by the tests.

These deliberately avoid the library's code paths (and LAPACK, for the
eigensolver) so that each check compares two unrelated routes to the
same quantity.
"""

import math

import numpy as np

from gesturelab.errors import DegenerateHand, MissingMiddleFinger
from gesturelab.tracking import (
    DEFAULT_ANGLE_RANGE,
    DEGENERACY_TOL,
    NUM_FINGERS,
    NUM_TIP_PAIRS,
    TrackingFeatures,
)


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
# Per-pixel silhouette


def render_loops(palm_center, fingertips, palm_radius_mm, finger_radius_mm,
                 size=240, window_mm=250.0):
    """The silhouette of `data.render_silhouette`, every pixel of the canvas
    tested against every shape.

    Pixel (i, j) is 255 when its center (j + 0.5, i + 0.5) lies within
    the palm disc or within a capsule from the palm center to a
    fingertip (fingertips closer than 1e-6 px to the center draw
    nothing).  Each test is the library's float expression on Python
    floats, so the two agree bit for bit.
    """
    scale = size / (2.0 * window_mm)

    def to_px(p):
        return (p[0] + window_mm) * scale, (p[1] + window_mm) * scale

    cx, cy = to_px(palm_center)
    r = palm_radius_mm * scale
    fr = finger_radius_mm * scale
    segments = []
    for tip in fingertips:
        tx, ty = to_px(tip)
        seg = np.array([tx - cx, ty - cy])
        seg_len2 = float(seg @ seg)
        if seg_len2 >= 1e-12:
            segments.append((float(seg[0]), float(seg[1]), seg_len2))

    def inside(x, y):
        if (x - cx) * (x - cx) + (y - cy) * (y - cy) <= r * r:
            return True
        for sx, sy, seg_len2 in segments:
            u = min(max(((x - cx) * sx + (y - cy) * sy) / seg_len2, 0.0), 1.0)
            dx = x - (cx + u * sx)
            dy = y - (cy + u * sy)
            if dx * dx + dy * dy <= fr * fr:
                return True
        return False

    out = np.zeros((size, size), dtype=np.uint8)
    for i in range(size):
        for j in range(size):
            if inside(j + 0.5, i + 0.5):
                out[i, j] = 255
    return out


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
# Per-pixel bilinear resize


def resize_loops(img, out_size):
    """Bilinear resize of `img` to `out_size` = (w, h), pixel by pixel.

    Output pixel (x, y) samples the source at x * (in_w - 1) / (out_w - 1)
    (the source center for a 1-pixel output, 0 for a 1-pixel source) and
    likewise in y: the clamped 2x2 neighbourhood is blended along x, then
    along y, and rounded half to even.
    """
    src = np.asarray(img, dtype=float)
    in_h, in_w = src.shape
    out_w, out_h = out_size

    def coordinate(i, n_in, n_out):
        if n_in == 1:
            return 0.0
        return i * (n_in - 1) / (n_out - 1) if n_out > 1 else (n_in - 1) / 2

    out = np.zeros((out_h, out_w), dtype=np.uint8)
    for y in range(out_h):
        sy = coordinate(y, in_h, out_h)
        y0 = min(int(sy), in_h - 1)
        y1, ay = min(y0 + 1, in_h - 1), sy - y0
        for x in range(out_w):
            sx = coordinate(x, in_w, out_w)
            x0 = min(int(sx), in_w - 1)
            x1, ax = min(x0 + 1, in_w - 1), sx - x0
            top = src[y0, x0] * (1 - ax) + src[y0, x1] * ax
            bottom = src[y1, x0] * (1 - ax) + src[y1, x1] * ax
            out[y, x] = np.rint(top * (1 - ay) + bottom * ay)
    return out


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


# ---------------------------------------------------------------------------
# Per-finger tracking features


def tracking_loops(frame):
    """The 25 tracking features of `frame`, by the per-finger code that
    `gesturelab.tracking` used before its norms were written as dots:
    one np.linalg.norm, projection and np.dot per fingertip and pair.
    Degenerate frames raise the library's typed errors."""
    return _tracking_extract_tracking_features(frame).vector()


def _tracking_compute_scale(frame):
    """Hand scale: distance from palm center to the middle fingertip, mm."""
    if frame.middle_index is None:
        raise MissingMiddleFinger("frame has no identified middle fingertip")
    s = float(np.linalg.norm(frame.fingertips[frame.middle_index] - frame.palm_center))
    if s < DEGENERACY_TOL:
        raise DegenerateHand("middle fingertip coincides with the palm center")
    return s


def _tracking_project_to_palm_plane(point, frame):
    """Orthogonal projection of `point` onto the palm plane."""
    p = np.asarray(point, dtype=float)
    n = frame.palm_normal
    return p - np.dot(p - frame.palm_center, n) * n


def _tracking_signed_inplane_angle(point, frame):
    """Signed angle from the hand direction to the projected fingertip.

    The sign comes from the cross-product component along the palm
    normal; the tie at exactly pi is resolved to +pi.
    """
    u = _tracking_project_to_palm_plane(point, frame) - frame.palm_center
    if np.linalg.norm(u) < DEGENERACY_TOL:
        raise DegenerateHand("fingertip projects onto the palm center")
    h = frame.hand_direction
    # np.cross's products and differences, without its per-call axis handling.
    (h0, h1, h2), (u0, u1, u2) = h.tolist(), u.tolist()
    cross = np.array([h1 * u2 - h2 * u1, h2 * u0 - h0 * u2, h0 * u1 - h1 * u0])
    ang = math.atan2(np.dot(frame.palm_normal, cross), np.dot(h, u))
    return math.pi if ang == -math.pi else ang


def _tracking_compute_angle_features(frame):
    """Angle feature per slot plus the slot -> fingertip assignment.

    Detected fingertips are ordered by ascending signed in-plane angle
    and fill the leading slots; raw angles are mapped linearly from
    DEFAULT_ANGLE_RANGE onto [0.5, 1] and clamped.  Unassigned slots are
    0 and map to None in the assignment.
    """
    lo, hi = DEFAULT_ANGLE_RANGE
    angles = np.zeros(NUM_FINGERS)
    assignment = [None] * NUM_FINGERS
    if len(frame.fingertips) == 0:
        return angles, assignment
    raw = np.array([_tracking_signed_inplane_angle(tip, frame) for tip in frame.fingertips])
    order = np.argsort(raw, kind="stable")
    for slot, tip_index in enumerate(order):
        t = (raw[tip_index] - lo) / (hi - lo)
        angles[slot] = 0.5 + 0.5 * min(max(t, 0.0), 1.0)
        assignment[slot] = int(tip_index)
    return angles, assignment


def _tracking_compute_distance_features(frame, assignment, scale):
    """Fingertip-to-palm-center distance over the hand scale, per slot."""
    distances = np.zeros(NUM_FINGERS)
    for slot, tip_index in enumerate(assignment):
        if tip_index is not None:
            d = np.linalg.norm(frame.fingertips[tip_index] - frame.palm_center)
            distances[slot] = d / scale
    return distances


def _tracking_compute_elevation_features(frame, assignment, scale):
    """Signed fingertip offset from the palm plane over the hand scale."""
    elevations = np.zeros(NUM_FINGERS)
    for slot, tip_index in enumerate(assignment):
        if tip_index is not None:
            tip = frame.fingertips[tip_index]
            off = tip - _tracking_project_to_palm_plane(tip, frame)
            signed = np.sign(np.dot(off, frame.palm_normal)) * np.linalg.norm(off)
            elevations[slot] = signed / scale
    return elevations


def _tracking_compute_tip_distances(frame, scale):
    """All 10 pairwise fingertip distances over the scale, ascending.

    Pairs involving an undetected fingertip contribute 0, so the output
    length is always 10 and the zeros sort to the front.
    """
    values = np.zeros(NUM_TIP_PAIRS)
    tips = frame.fingertips
    pos = 0
    for i in range(len(tips)):
        for j in range(i + 1, len(tips)):
            values[pos] = np.linalg.norm(tips[i] - tips[j]) / scale
            pos += 1
    values.sort()
    return values


def _tracking_extract_tracking_features(frame):
    """Compute every feature segment for one frame.

    A frame with no fingertips yields all-zero features (with a neutral
    scale of 1.0, since nothing is normalized); a frame with fingertips
    but no identified middle finger raises MissingMiddleFinger.
    """
    if len(frame.fingertips) == 0:
        return TrackingFeatures(
            angles=np.zeros(NUM_FINGERS),
            distances=np.zeros(NUM_FINGERS),
            elevations=np.zeros(NUM_FINGERS),
            tip_distances=np.zeros(NUM_TIP_PAIRS),
            scale=1.0,
        )
    scale = _tracking_compute_scale(frame)
    angles, assignment = _tracking_compute_angle_features(frame)
    return TrackingFeatures(
        angles=angles,
        distances=_tracking_compute_distance_features(frame, assignment, scale),
        elevations=_tracking_compute_elevation_features(frame, assignment, scale),
        tip_distances=_tracking_compute_tip_distances(frame, scale),
        scale=scale,
    )
