"""Image rectification, binarization, and gradient-histogram descriptors.

Grayscale images are plain 2-D uint8 numpy arrays (row-major, one
channel); files use binary PGM (P5, maxval 255).  The image branch of
the feature pipeline is::

    undistort -> binarize -> crop_to_foreground -> resize -> hog

Raw sensor images suffer barrel distortion; a device-provided
calibration grid maps output pixels to normalized source coordinates
and is applied with bilinear interpolation.  Work that depends only on
shapes is cached as read-only arrays: the undistortion taps (source
indices and weights) and the source rows and columns that each output
row and column reads per (map contents, output size, source shape),
the resize taps per axis length pair and the HOG layout per image size
and parameters.  Undistortion samples only the output window that can
read the source's nonzero box, so its cost follows the hand's footprint
on a zero-background silhouette; on a gray capture the box, and so the
window, is the whole frame.  The descriptor is a
histogram of oriented gradients: unsigned orientations over [0, 180)
with linear vote interpolation between adjacent bins, per-cell
histograms, and L2-Hys normalization over sliding blocks, all blocks
in one array pass.
"""

import functools
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, GeometryError, MapSizeMismatch, ParseError
from .jsonio import read_bytes

MAP_MAGIC = b"LMUM"


# ---------------------------------------------------------------------------
# PGM I/O


def read_pgm(path):
    """Read a binary PGM (P5) file into a 2-D uint8 array.

    A file that cannot be read raises as `jsonio.read_bytes` does.
    """
    data = read_bytes(path, "image")
    fields = []
    pos = 0
    while len(fields) < 4:
        if pos >= len(data):
            raise ParseError(f"{path}: truncated PGM header")
        ch = data[pos : pos + 1]
        if ch.isspace():
            pos += 1
        elif ch == b"#":
            while pos < len(data) and data[pos : pos + 1] != b"\n":
                pos += 1
        else:
            start = pos
            while pos < len(data) and not data[pos : pos + 1].isspace():
                pos += 1
            fields.append(data[start:pos])
    if fields[0] != b"P5":
        raise ParseError(f"{path}: not a binary PGM (P5) file")
    try:
        width, height, maxval = (int(f) for f in fields[1:])
    except ValueError as exc:
        raise ParseError(f"{path}: bad PGM header") from exc
    if maxval != 255:
        raise ParseError(f"{path}: only maxval 255 supported, got {maxval}")
    if width < 1 or height < 1:
        raise ParseError(f"{path}: PGM size {width}x{height} holds no pixels")
    pos += 1  # single whitespace after maxval
    pixels = data[pos : pos + width * height]
    if len(pixels) != width * height:
        raise ParseError(f"{path}: truncated PGM pixel data")
    return np.frombuffer(pixels, dtype=np.uint8).reshape(height, width).copy()


def write_pgm(img, path):
    img = _as_image(img)
    h, w = img.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(img.tobytes())


def _as_image(img):
    img = np.asarray(img)
    if img.ndim != 2 or img.size == 0:
        raise ValueError("image must be a non-empty 2-D array")
    if img.dtype != np.uint8:
        raise ValueError(f"image must be uint8, got {img.dtype}")
    return img


# ---------------------------------------------------------------------------
# Undistortion


@dataclass
class UndistortionMap:
    """Calibration grid of normalized source coordinates.

    ``samples`` is a (grid_height, grid_width, 2) float array of (u, v)
    pairs in [0, 1]^2; invalid grid points carry the sentinel (-1, -1).
    Any other value, NaN included, is rejected.
    """

    samples: np.ndarray

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=float)
        if self.samples.ndim != 3 or self.samples.shape[2] != 2:
            raise ValueError("samples must have shape (grid_h, grid_w, 2)")
        vals = self.samples[~np.all(self.samples == -1.0, axis=2)]
        if not (np.all(vals >= 0.0) and np.all(vals <= 1.0)):
            raise ValueError("map samples must lie in [0, 1]^2 or be exactly (-1, -1)")

    @property
    def grid_width(self):
        return self.samples.shape[1]

    @property
    def grid_height(self):
        return self.samples.shape[0]

    @classmethod
    def identity(cls, grid_width=8, grid_height=8):
        """Map whose interpolation is the identity transform."""
        us = np.linspace(0.0, 1.0, grid_width)
        vs = np.linspace(0.0, 1.0, grid_height)
        uu, vv = np.meshgrid(us, vs)
        return cls(np.stack([uu, vv], axis=2))

    @classmethod
    def load(cls, path):
        data = read_bytes(path, "undistortion map")
        if data[:4] != MAP_MAGIC:
            raise ParseError(f"{path}: bad undistortion map magic")
        if len(data) < 12:
            raise ParseError(f"{path}: truncated undistortion map header")
        gw, gh = struct.unpack_from("<II", data, 4)
        expected = 12 + gw * gh * 8
        if len(data) < expected:
            raise ParseError(f"{path}: truncated undistortion map")
        if len(data) > expected:
            raise ParseError(f"{path}: {len(data) - expected} bytes after the undistortion map")
        flat = np.frombuffer(data, dtype="<f4", count=gw * gh * 2, offset=12)
        try:
            return cls(flat.astype(float).reshape(gh, gw, 2))
        except ValueError as exc:
            raise ParseError(f"{path}: {exc}") from exc

    def save(self, path):
        with open(path, "wb") as fh:
            fh.write(MAP_MAGIC)
            fh.write(struct.pack("<II", self.grid_width, self.grid_height))
            fh.write(self.samples.astype("<f4").tobytes())


def undistort(raw, umap, out_size):
    """Rectify `raw` through the calibration map at `out_size` = (w, h).

    The grid is bilinearly interpolated at each output pixel to obtain a
    normalized source coordinate, and the source image is bilinearly
    sampled there.  Output pixels whose grid neighborhood contains an
    invalid sample are 0.  The sampling taps are built once per (map
    contents, output size, source shape) and reused for every image.

    Only the output window whose rows and columns can read a pixel of
    the source's nonzero bounding box is sampled; every other pixel
    reads 0 with finite weights >= 0, which is +0.0, so the bytes are
    those of sampling the whole frame.  The cost follows the source's
    nonzero box; a gray capture has the whole frame as its box and pays
    the box scan on top of the full-frame sampling.
    """
    raw = _as_image(raw)
    out_w, out_h = out_size
    if out_w < 1 or out_h < 1:
        raise ValueError("out_size must be at least 1x1")
    gw, gh = umap.grid_width, umap.grid_height
    if gw < 2 or gh < 2:
        raise MapSizeMismatch(
            f"map grid {gw}x{gh} cannot cover a {out_w}x{out_h} output"
        )
    samples = np.ascontiguousarray(umap.samples, dtype=float)
    taps, row_band, col_band = _undistort_taps(
        samples.tobytes(), samples.shape, (out_w, out_h), raw.shape
    )
    out = np.zeros((out_h, out_w), dtype=np.uint8)
    box = _nonzero_box(raw)
    if box is None:
        return out
    top, bottom, left, right = box
    rows = np.flatnonzero((row_band[0] < bottom) & (row_band[1] >= top))
    cols = np.flatnonzero((col_band[0] < right) & (col_band[1] >= left))
    if not rows.size or not cols.size:
        return out
    window = np.s_[rows[0] : rows[-1] + 1, cols[0] : cols[-1] + 1]
    values = _apply_taps(raw, [[tap[window] for tap in group] for group in taps])
    out[window] = np.rint(values, out=values)
    return out


@functools.lru_cache(maxsize=4)
def _undistort_taps(sample_bytes, grid_shape, out_size, src_shape):
    """Source taps of `undistort`, keyed by map content, and its row and
    column bands.  The y weights of pixels in an invalid grid cell are 0,
    so those pixels come out 0.  The row band holds, per output row, the
    lowest and the highest source row that its valid pixels read, and
    (src_h, -1) when it has none; the column band the same per output
    column over source columns."""
    samples = np.frombuffer(sample_bytes).reshape(grid_shape)
    gh, gw = grid_shape[:2]
    out_w, out_h = out_size
    nx = np.arange(out_w) / (out_w - 1) if out_w > 1 else np.zeros(1)
    ny = np.arange(out_h) / (out_h - 1) if out_h > 1 else np.zeros(1)
    gx = (nx * (gw - 1))[np.newaxis, :]
    gy = (ny * (gh - 1))[:, np.newaxis]

    # A grid cell is bad when any of its corners is an invalid (-1, -1) point.
    bad = np.any(samples < 0.0, axis=2)
    bad_cell = bad[:-1, :-1] | bad[:-1, 1:] | bad[1:, :-1] | bad[1:, 1:]
    invalid = bad_cell[np.minimum(gy.astype(int), gh - 2), np.minimum(gx.astype(int), gw - 2)]

    grid_taps = _bilinear_taps((gh, gw), gx, gy)
    src_h, src_w = src_shape
    xs = _apply_taps(samples[..., 0], grid_taps) * (src_w - 1)
    ys = _apply_taps(samples[..., 1], grid_taps) * (src_h - 1)
    del grid_taps  # frees its full-size index arrays before the source taps are built
    corners, fx, fy = _bilinear_taps(src_shape, xs, ys)
    del xs, ys
    for weight in fy:
        weight[invalid] = 0.0
    # Corner 00 is the lowest source row and column a pixel reads, 11 the
    # highest.  Flat index // src_w is the row, and it keeps the order of
    # the flat indices, so the row band reduces the flat indices.
    valid = ~invalid
    top, bottom = corners[0], corners[3]
    row_band = np.stack([
        np.min(top, axis=1, where=valid, initial=src_h * src_w) // src_w,
        np.max(bottom, axis=1, where=valid, initial=-1) // src_w,
    ])
    col_band = np.stack([
        np.min(top % src_w, axis=0, where=valid, initial=src_w),
        np.max(bottom % src_w, axis=0, where=valid, initial=-1),
    ])
    for tap in (*corners, *fx, *fy, row_band, col_band):
        tap.flags.writeable = False
    return (corners, fx, fy), row_band, col_band


def _axis_taps(n, coords):
    """Lower and upper neighbour indices and the upper weight of a linear
    lookup at float `coords` along an axis of `n` samples, clamped to it."""
    coords = np.clip(coords, 0.0, n - 1.0)
    lower = np.minimum(coords.astype(int), n - 1)
    return lower, np.minimum(lower + 1, n - 1), coords - lower


def _bilinear_taps(shape, xs, ys):
    """Flat indices of the 4 neighbours and the weight pairs (fx, 1 - fx)
    and (fy, 1 - fy) of a bilinear lookup at float coordinates, clamped
    to an image of `shape`."""
    h, w = shape
    x0, x1, fx = _axis_taps(w, xs)
    y0, y1, fy = _axis_taps(h, ys)
    corners = (y0 * w + x0, y0 * w + x1, y1 * w + x0, y1 * w + x1)
    return corners, (fx, 1 - fx), (fy, 1 - fy)


def _apply_taps(img, taps):
    """Bilinear values of `img` at the taps of `_bilinear_taps`, as floats:
    (v00 * fx0 + v01 * fx1) * fy0 + (v10 * fx0 + v11 * fx1) * fy1.

    Each gathered tap is converted to float once and weighted in place,
    so at most three output-sized float arrays are alive at once.  With
    more, glibc's allocator could return the freed memory to the OS after
    each image and fault it back in for the next one.
    """
    (i00, i01, i10, i11), (fx1, fx0), (fy1, fy0) = taps
    flat = img.ravel()
    top = flat.take(i00).astype(float)
    top *= fx0
    tap = flat.take(i01).astype(float)
    tap *= fx1
    top += tap
    top *= fy0
    del tap
    bot = flat.take(i10).astype(float)
    bot *= fx0
    tap = flat.take(i11).astype(float)
    tap *= fx1
    bot += tap
    bot *= fy1
    top += bot
    return top


# ---------------------------------------------------------------------------
# Binarization and framing


_LEVELS = np.arange(256.0)
_LEVELS.flags.writeable = False
_BYTE_REPEAT = np.uint64(0x0101010101010101)  # low byte * this = that byte 8 times


def otsu_threshold(img):
    """Threshold maximizing between-class variance of the 256-bin histogram.

    Returns the smallest t such that classifying pixels >= t as
    foreground realizes the optimal split (ties resolved to the lowest
    threshold).

    The histogram is counted in 8-pixel words: a word whose 8 bytes are
    equal (a uniform word, equal to its low byte times 0x0101010101010101
    in either byte order) adds 8 to its value's bin, and only the bytes
    of the other words and the n mod 8 tail pixels are counted one by
    one.  Most words of a two-valued silhouette are uniform, and a
    one-by-one count of them is a chain of increments to the same bin.
    A gray image has almost no uniform word, so there the word test and
    the copy of the other words are extra work: its histogram is slower
    than one per-pixel count, by about 30 us on a 240 x 240 capture.
    The counts are integers, so the histogram is the plain per-pixel one.
    """
    img = _as_image(img)
    flat = img.ravel()
    n_words = flat.size // 8
    words = flat[: 8 * n_words].view(np.uint64)
    low = words & np.uint64(0xFF)
    uniform = words == low * _BYTE_REPEAT
    hist = 8 * np.bincount(low[uniform].view(np.int64), minlength=256)
    hist += np.bincount(words[~uniform].view(np.uint8), minlength=256)
    hist += np.bincount(flat[8 * n_words :], minlength=256)
    hist = hist.astype(float)
    weight0 = np.cumsum(hist)
    mean0 = np.cumsum(hist * _LEVELS)
    total, mean_total = weight0[-1], mean0[-1]  # integers, so any summation order is exact
    num = weight0 * mean_total
    num -= mean0 * total
    num *= num
    den = weight0 * (total - weight0)
    between = np.divide(num, den, out=np.zeros(256), where=den > 0)
    split = int(np.argmax(between))  # first maximum -> smallest split point
    return split + 1


def binarize(img, threshold=None):
    """Two-valued image: pixels >= threshold become 255, the rest 0.

    With threshold None the Otsu threshold is used.
    """
    img = _as_image(img)
    if threshold is None:
        threshold = otsu_threshold(img)
    return (img >= threshold).view(np.uint8) * np.uint8(255)


def crop_to_foreground(img, margin=0):
    """Crop to the bounding box of nonzero pixels, padded by `margin` >= 0.

    An all-zero image is returned unchanged.
    """
    img = _as_image(img)
    if margin < 0:
        raise ValueError("margin must be >= 0")
    box = _nonzero_box(img)
    if box is None:
        return img
    top, bottom, left, right = box
    r0 = max(top - margin, 0)
    r1 = min(bottom + margin, img.shape[0])
    c0 = max(left - margin, 0)
    c1 = min(right + margin, img.shape[1])
    return img[r0:r1, c0:c1].copy()


def _nonzero_box(img):
    """(top, bottom, left, right) of the nonzero pixels of `img`, as
    slice bounds (bottom and right exclusive), or None when all are 0."""
    # A row's bitwise OR is nonzero where the row holds a nonzero pixel;
    # only the rows between the first and the last such row can hold one.
    rows = np.flatnonzero(np.bitwise_or.reduce(img, axis=1))
    if rows.size == 0:
        return None
    top, bottom = rows[0], rows[-1] + 1
    cols = np.flatnonzero(img[top:bottom].any(axis=0))
    return top, bottom, cols[0], cols[-1] + 1


def resize_bilinear(img, out_size):
    """Bilinear resize to (w, h) with edge clamping.

    A same-size resize reproduces the input bit-exactly.
    """
    img = _as_image(img)
    out_w, out_h = out_size
    if out_w < 1 or out_h < 1:
        raise ValueError("out_size must be at least 1x1")
    in_h, in_w = img.shape
    # Separable: every source row along x, then rows y0 and y1 of that
    # along y, so each pixel gets the products and sums of a 4-tap lookup.
    x0, x1, wx0, wx1 = _resize_taps(in_w, out_w)
    y0, y1, wy0, wy1 = _resize_taps(in_h, out_h)
    across = img[:, x0] * wx0
    across += img[:, x1] * wx1
    out = across[y0] * wy0[:, np.newaxis]
    out += across[y1] * wy1[:, np.newaxis]
    return np.rint(out, out=out).astype(np.uint8)


@functools.lru_cache(maxsize=256)
def _resize_taps(n_in, n_out):
    """Read-only (lower, upper, 1 - f, f) of `resize_bilinear` along an axis
    of `n_in` samples resized to `n_out`: output i samples the input at
    i * (n_in - 1) / (n_out - 1), the input's center for one output, 0 for
    one input."""
    if n_in == 1:
        coords = np.zeros(n_out)
    elif n_out == 1:
        coords = np.full(1, (n_in - 1) / 2)
    else:
        coords = np.arange(n_out) * (n_in - 1) / (n_out - 1)
    lower, upper, f = _axis_taps(n_in, coords)
    taps = (lower, upper, 1 - f, f)
    for tap in taps:
        tap.flags.writeable = False
    return taps


# ---------------------------------------------------------------------------
# Histogram of oriented gradients


@dataclass(frozen=True)
class HogParams:
    """Descriptor geometry: square cells of `cell_size` pixels, square
    blocks of `block_cells` cells sliding with `block_stride` cells,
    `bins` unsigned orientation bins, L2-Hys clipping at `clip`."""

    cell_size: int = 8
    block_cells: int = 2
    block_stride: int = 1
    bins: int = 9
    clip: float = 0.2

    def __post_init__(self):
        if min(self.cell_size, self.block_cells, self.block_stride, self.bins) < 1:
            raise ValueError("cell_size, block_cells, block_stride and bins must be >= 1")
        if not self.clip > 0:
            raise ValueError("clip must be > 0")


def hog_length(width, height, params=HogParams()):
    """Descriptor length for an image of the given size (closed form)."""
    geo = _hog_geometry(width, height, params)
    _, _, blocks_x, blocks_y = geo
    return blocks_x * blocks_y * params.block_cells**2 * params.bins


def _hog_geometry(width, height, params):
    if width % params.cell_size or height % params.cell_size:
        raise GeometryError(
            f"image {width}x{height} not divisible by cell size {params.cell_size}"
        )
    cells_x = width // params.cell_size
    cells_y = height // params.cell_size
    if cells_x < params.block_cells or cells_y < params.block_cells:
        raise GeometryError(
            f"{cells_x}x{cells_y} cells cannot hold a {params.block_cells}-cell block"
        )
    blocks_x = (cells_x - params.block_cells) // params.block_stride + 1
    blocks_y = (cells_y - params.block_cells) // params.block_stride + 1
    return cells_x, cells_y, blocks_x, blocks_y


# An overflow leaves an infinite or NaN block norm, which _unit_rows rejects.
@np.errstate(over="ignore", invalid="ignore")
def compute_hog(img, params=HogParams()):
    """Histogram-of-oriented-gradients descriptor of a grayscale image.

    Gradients are centered differences with edge replication.  Unsigned
    orientations over [0, 180) vote into the two nearest of `bins`
    equally spaced bins (circular), weighted by gradient magnitude.
    Cell histograms are grouped into sliding blocks and L2-Hys
    normalized, so every output value lies in [0, 1].  Returns the 1-D
    descriptor, `hog_length(w, h, params)` values long.  An image with a
    NaN or infinite pixel, or with values so large that a gradient or a
    block norm overflows, raises DataError.
    """
    img = np.asarray(img, dtype=float)
    if img.ndim != 2:
        raise ValueError("image must be 2-D")
    if not np.isfinite(img).all():
        raise DataError("HOG of an image with a non-finite pixel")
    h, w = img.shape
    cell_bases, block_entries, bin_wrap, hist_len = _hog_layout(h, w, params)

    # Centered differences with edge replication.  Along x the flat pass's
    # first and last columns mix rows; the edge differences overwrite them.
    flat = img.ravel()
    gx = np.empty_like(flat)
    np.subtract(flat[2:], flat[:-2], out=gx[1:-1])
    gx = gx.reshape(h, w)
    gy = np.empty_like(img)
    np.subtract(img[2:], img[:-2], out=gy[1:-1])
    if w > 1:
        np.subtract(img[:, 1], img[:, 0], out=gx[:, 0])
        np.subtract(img[:, -1], img[:, -2], out=gx[:, -1])
    else:
        gx[:] = 0.0
    if h > 1:
        np.subtract(img[1], img[0], out=gy[0])
        np.subtract(img[-1], img[-2], out=gy[-1])
    else:
        gy[:] = 0.0

    # A pixel with no gradient votes +0.0 into bin 0 (arctan2(+0, +0) is
    # +0), which leaves the cell sums as they are: only the others vote.
    voting = np.flatnonzero((gx != 0) | (gy != 0))
    if not voting.size:  # a weighted bincount of nothing has an integer dtype
        return np.zeros(block_entries.size)
    gx, gy = gx.ravel()[voting], gy.ravel()[voting]
    magnitude = np.hypot(gx, gy)
    # Unsigned orientation np.mod(arctan2, pi): pi becomes +0 and negative
    # angles gain pi.  An arctan2 of -0.0 stays -0.0 here (np.mod gives
    # +0.0); it votes -0.0 into the upper bin, which adds nothing.
    position = np.arctan2(gy, gx)
    position[position == np.pi] = 0.0
    np.add(position, np.pi, out=position, where=position < 0)
    position /= np.pi / params.bins
    lower = position.astype(int)  # the floor, as positions are >= 0
    position -= lower  # now the upper bin's share
    base = cell_bases[voting]
    upper = bin_wrap[lower + 1]
    upper += base
    lower = bin_wrap[lower]
    lower += base
    lower_share = 1 - position
    lower_share *= magnitude
    position *= magnitude
    hist = np.bincount(lower, weights=lower_share, minlength=hist_len)
    hist += np.bincount(upper, weights=position, minlength=hist_len)
    return _l2_hys(hist[block_entries], params.clip).ravel()


@functools.lru_cache(maxsize=4)
def _hog_layout(h, w, params):
    """Read-only (cell bases, block entries, bin wrap) and the histogram
    length of `compute_hog` on h x w images: the flat index of bin 0 of
    each pixel's cell histogram; per block its cells' histogram entries,
    row by row, bin after bin; and i % bins for i up to bins + 1."""
    cells_x, cells_y, _, _ = _hog_geometry(w, h, params)
    cell_col = np.arange(w) // params.cell_size
    cell_row = np.arange(h) // params.cell_size
    bases = ((cell_row[:, None] * cells_x + cell_col[None, :]) * params.bins).ravel()
    cells = np.arange(cells_y * cells_x * params.bins).reshape(cells_y, cells_x, params.bins)
    bc, stride = params.block_cells, params.block_stride
    windows = np.lib.stride_tricks.sliding_window_view(cells, (bc, bc), axis=(0, 1))
    entries = windows[::stride, ::stride].transpose(0, 1, 3, 4, 2).reshape(-1, bc * bc * params.bins)
    wrap = np.arange(params.bins + 2) % params.bins
    for index in (bases, entries, wrap):
        index.flags.writeable = False
    return bases, entries, wrap, cells.size


def _l2_hys(rows, clip):
    """L2-Hys of each row, in place: to unit length, clipped at `clip`, to unit length."""
    rows = _unit_rows(rows)
    np.minimum(rows, clip, out=rows)
    return _unit_rows(rows)


def _unit_rows(rows):
    """Each non-negative row over its L2 norm, in place; rows of norm below
    1e-12 become 0, and a norm that is not finite raises DataError."""
    # Stacked matmul sums like np.linalg.norm's dot, bit for bit; einsum does not.
    norm = np.sqrt(np.matmul(rows[:, np.newaxis, :], rows[:, :, np.newaxis])[:, 0])
    if not np.isfinite(norm).all():
        raise DataError("HOG of an image whose gradients overflow")
    norm[norm < 1e-12] = np.inf  # x / inf is +0.0 for x >= 0
    return np.divide(rows, norm, out=rows)


# ---------------------------------------------------------------------------
# Image feature pipeline


@dataclass
class ImagePipelineConfig:
    """End-to-end settings for the image branch of the pipeline.

    `threshold` None selects Otsu binarization; an integer in 1..255
    makes the pixels at or above it foreground.  With `use_both_images`
    the descriptors of both sensor images are concatenated; the default
    uses the first image only.
    """

    undistort_size: tuple[int, int] = (240, 240)
    threshold: int | None = None
    crop_margin: int = 4
    hog_size: tuple[int, int] = (64, 64)
    hog: HogParams = field(default_factory=HogParams)
    use_both_images: bool = False

    def __post_init__(self):
        if min(*self.undistort_size, *self.hog_size) < 1:
            raise ValueError("undistort_size and hog_size must be at least 1x1")
        if self.crop_margin < 0:
            raise ValueError("crop_margin must be >= 0")
        if self.threshold is not None and not 1 <= self.threshold <= 255:
            raise ValueError("threshold must be None or an integer in 1..255")

    def descriptor_length(self):
        per_image = hog_length(self.hog_size[0], self.hog_size[1], self.hog)
        return 2 * per_image if self.use_both_images else per_image


def extract_image_features(images, cfg=None, umap=None):
    """HOG feature vector for one sample's sensor image(s).

    Runs undistort (when a map is given), binarize, crop, resize and HOG
    for each selected image and concatenates the descriptors.
    """
    if cfg is None:
        cfg = ImagePipelineConfig()
    selected = images if cfg.use_both_images else images[:1]
    if not len(selected):
        raise ValueError("sample carries no images")
    parts = []
    for img in selected:
        if umap is not None:
            img = undistort(img, umap, cfg.undistort_size)
        img = binarize(img, cfg.threshold)
        img = crop_to_foreground(img, cfg.crop_margin)
        img = resize_bilinear(img, cfg.hog_size)
        parts.append(compute_hog(img, cfg.hog))
    return np.concatenate(parts)
