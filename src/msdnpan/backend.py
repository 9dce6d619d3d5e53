"""Convolution kernels: one shift-and-accumulate GEMM implementation.

All convolutions in this package are stride-1, same-padded (pad = k // 2)
cross-correlations over NCHW arrays. The three entry points here are the
only compute-heavy loops; everything else stays in plain numpy.

Layout (Anderson et al., "Low-memory GEMM-based convolution algorithms for
deep neural networks", arXiv:1709.03395): each zero-padded input plane is
flattened to one row of length (h + 2p) * (w + 2p), plus k - 1 spare zeros.
Output pixel (i, j) then sits at flat position i * (w + 2p) + j, and for tap
(u, v) its input is at that position plus u * (w + 2p) + v. So every tap's
input window is one contiguous column slice of the flat buffer, which BLAS
reads in place: a convolution is k * k GEMMs with no im2col copy. The
results land on a grid of width w + 2p; the 2p extra columns of each row
mix neighbouring rows and are cropped (forward) or multiplied by zeros
(weight gradient).

Bands. The forward pass of a k >= 3 convolution lays the items' flat
planes side by side, one row per input channel. One gemm per tap over
all of it would span every item's output grid in its N dimension, the
columns between two items' grids being junk that the crop drops; call
that the one pass. The forward pass runs it in bands of output rows,
each of whose padded input stays within about BAND_BYTES (a core's L2).
A band copies in only the padded rows its windows read, runs the taps
over its own columns of the one pass, and crops its rows straight into
the (n, co, h, w) result, so no whole-plane padded copy or output grid
is ever built. A band may
start or end inside an item or between two. A batch that fits one band,
as every desk training shape does, runs as the one pass itself.

Every output value is the one pass's, bit for bit, wherever the band
edges fall. OpenBLAS computes the last N mod (its unroll) columns of a
gemm with edge code that rounds otherwise, so a band's gemm starts at a
multiple of _GEMM_COLS columns of the one pass and spans a multiple of
_GEMM_COLS, but for the last band, which ends where the one pass ends
and so meets the same edge code on the same columns. Its small-matrix
kernel (up to _SMALL_GEMM_MACS multiply-adds) rounds otherwise than its
packed one, so a plane whose one pass would run packed splits only into
bands big enough to run packed as well; one that would not stays whole.

Accumulation. Level-3 BLAS computes C = alpha A B + beta C (Dongarra et
al., "A set of level 3 basic linear algebra subprograms", ACM TOMS 1990),
so BLAS sums the taps itself: one row-major gemm per tap, with A the
tap's (co, ci) weights, B its window read in place through ldb = the
band's row length, C the band's output grid, and beta 0 for the first
tap and 1 for every tap after it. The sum runs on BLAS's own threads,
with no scratch buffer and no numpy pass per tap.

The gemm is the cblas ?gemm of the OpenBLAS that numpy loaded, bound
through ctypes when first needed. Only symbols whose name fixes 64-bit
integer arguments are bound (`scipy_cblas_?gemm64_`, `cblas_?gemm64_`).
Raw pointers bypass numpy's bounds checks, so before any call every
operand is checked to be a C-contiguous array of the gemm's own dtype,
the input and output to have one row per input and output channel of the
taps, and the last tap's window to end inside the row. For a band of N
columns it starts (k - 1) * (w + 2p) + k - 1 into the band's row and
spans N columns; the row is N + (k - 1) * (w + 2p + 1) long, so the
window ends exactly at its end. In the one pass those last k - 1 values
are the last plane's spare zeros.

Where numpy's BLAS has no such symbol (numpy on Accelerate, say), and for
dtypes other than float32 and float64, the same taps run as numpy
matmuls on the same bands, each added into the output through one
scratch buffer; there it is the only path. (numpy runs a tap with one
output channel as a gemv, whose rounding depends on the columns it
spans, so there the band edges may move the last bit.)

A 1x1 convolution has one tap, nothing to pad and no junk columns, so
it takes none of the above: for any number of items it is one batched
numpy matmul, a (co, ci) @ (ci, h * w) product per item on the input in
place, and each item's output is the same bits whatever batch it runs in.
Asked to overwrite its input (co == ci), a plane whose product exceeds
about BAND_BYTES runs that product in blocks of columns and writes each
block over the input columns it has just read, so no whole-plane output
exists beside the input. Each block starts on a multiple of _GEMM_COLS
and, where the whole product would run packed, keeps enough columns to
run packed too: the values are the one product's, bit for bit. A plane
that fits one block runs out of place, since each further gemm call
costs tens of microseconds of BLAS set-up.

Epilogue. The bias, and max(., 0) for a layer with a fused relu, are
applied to each band's rows as they are cropped into the output, and to
a 1x1 product in place. Both are elementwise, so the values are those of
adding and clamping the whole output afterwards.

The weight gradient runs as numpy matmuls, one (co, rows * (w + 2p)) @
(rows * (w + 2p), ci) product per tap, item and block of rows. OpenBLAS
packs both operands of a gemm with more than _SMALL_GEMM_MACS
multiply-adds, which at small co * ci costs about as much as the
arithmetic, so there the rows are split into the fewest near-even blocks
that keep every product at or under that bound, on its unpacked
small-matrix kernel. All taps' products land in one scratch array and
are summed over blocks and items in one reduction, in the same order
per tap as one sum each. A 1x1 gradient has no junk columns, so it reads
gy in place.
"""

import ctypes
import functools
from contextlib import contextmanager

import numpy as np

_ROW_MAJOR, _NO_TRANS = 101, 111        # CBLAS enum values
_GEMM_NAMES = ("scipy_cblas_{}gemm64_", "cblas_{}gemm64_")
_GEMM_TYPES = {np.dtype(np.float32): ("s", ctypes.c_float),
               np.dtype(np.float64): ("d", ctypes.c_double)}
# OpenBLAS (0.3.31, SkylakeX kernels) runs a gemm with M * N * K up to this
# on its small-matrix kernel, which reads A and B in place; above it, gemm
# first packs both into blocks. On a CPU without that kernel a split costs
# only the extra calls.
_SMALL_GEMM_MACS = 1_000_000
# M * N up to which splitting K pays: at 16 x 16 and 32 x 32 channel pairs
# the blocks ran in 0.5-0.7x the time of one packed gemm, at 64 x 64 in
# 1.1-1.35x
_SMALL_GEMM_PAIRS = 32 * 32
# bytes of flat padded input per forward band: about one core's L2
BAND_BYTES = 1 << 20
# OpenBLAS computes the last N mod its unroll columns of a gemm with edge
# code that rounds otherwise; a forward band's gemm starts and, but for
# the last band's, ends on a multiple of this many columns of the one pass
_GEMM_COLS = 64


@functools.cache
def _openblas():
    """ctypes handles of each OpenBLAS mapped into this process, which is
    the BLAS numpy loaded; empty when there is none."""
    try:
        with open("/proc/self/maps") as f:
            paths = {line.split()[-1] for line in f if "openblas" in line.lower()}
    except OSError:
        return ()
    libs = []
    for path in sorted(paths):
        try:
            libs.append(ctypes.CDLL(path))
        except OSError:
            continue
    return tuple(libs)


@functools.cache
def _gemm(dtype):
    """numpy's OpenBLAS cblas ?gemm for dtype, with 64-bit integer
    arguments, or None when dtype or the loaded BLAS has none."""
    if dtype not in _GEMM_TYPES:
        return None
    letter, scalar = _GEMM_TYPES[dtype]
    i64, ptr = ctypes.c_int64, ctypes.c_void_p
    for lib in _openblas():
        for name in _GEMM_NAMES:
            fn = getattr(lib, name.format(letter), None)
            if fn is not None:
                fn.argtypes = [ctypes.c_int, ctypes.c_int, ctypes.c_int,
                               i64, i64, i64, scalar, ptr, i64, ptr, i64,
                               scalar, ptr, i64]
                fn.restype = None
                return fn
    return None


def active_backend():
    """The gemm symbol conv2d_forward calls on float32 input, or "numpy"."""
    fn = _gemm(np.dtype(np.float32))
    return "numpy" if fn is None else fn.__name__


def _blas_thread_controls():
    """(get, set) thread-count functions of the OpenBLAS mapped into this
    process, or None when there is none or it exposes no such symbols."""
    for lib in _openblas():
        for prefix, suffix in (("scipy_openblas_", "64_"),
                               ("openblas_", "64_"), ("openblas_", "")):
            get = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


@contextmanager
def _one_blas_thread():
    """Hold BLAS at one thread and restore its count on exit. Yields False,
    changing nothing, when BLAS has no thread controls."""
    controls = _blas_thread_controls()
    if controls is None:
        yield False
        return
    get, put = controls
    before = get()
    put(1)
    try:
        yield True
    finally:
        put(before)


def _flat_padded(x, k):
    """x (n, c, h, w) zero-padded by k // 2, one flat row per item and
    channel.

    Returns the (n, c, (h + 2p) * (w + 2p) + k - 1) buffer and the padded
    row width w + 2p."""
    n, c, h, w = x.shape
    if k == 1:
        return np.ascontiguousarray(x).reshape(n, c, h * w), w
    p = k // 2
    wp = w + 2 * p
    flat = np.zeros((n, c, (h + 2 * p) * wp + k - 1), dtype=x.dtype)
    plane = flat[:, :, :(h + 2 * p) * wp].reshape(n, c, h + 2 * p, wp)
    plane[:, :, p:p + h, p:p + w] = x
    return flat, wp


def _taps_gemm(gemm, taps, xp, wp, out, cols):
    """out[:, :cols] = the sum over taps (u, v) of taps[u, v] @ xp[:, off:off
    + cols], off = u * wp + v: one gemm call per tap, each after the first
    adding into out (beta 1)."""
    k, _, co, ci = taps.shape
    row = xp.shape[1]
    if (k - 1) * (wp + 1) + cols > row or cols > out.shape[1]:
        raise ValueError("the last tap's window overruns the flat buffer")
    if xp.shape[0] != ci or out.shape[0] != co:
        raise ValueError(f"taps of {ci} -> {co} channels do not fit "
                         f"{xp.shape[0]} input and {out.shape[0]} output rows")
    for a in (taps, xp, out):
        if a.dtype != out.dtype or not a.flags.c_contiguous:
            raise ValueError("gemm operands must be C-contiguous and of one dtype")
    item = out.itemsize
    a0, b0, c0 = taps.ctypes.data, xp.ctypes.data, out.ctypes.data
    for u in range(k):
        for v in range(k):
            gemm(_ROW_MAJOR, _NO_TRANS, _NO_TRANS, co, cols, ci, 1.0,
                 a0 + (u * k + v) * co * ci * item, max(ci, 1),
                 b0 + (u * wp + v) * item, row,
                 1.0 if u or v else 0.0, c0, out.shape[1])


def _taps_numpy(taps, xp, wp, out):
    """The same sum as _taps_gemm in numpy, into out (co, cols): one matmul
    per tap into a scratch buffer, then added into out."""
    k, _, _, ci = taps.shape
    cols = out.shape[-1]
    # with one input channel each tap is an outer product, which numpy's
    # matmul computes about 10x slower than the same broadcast multiply
    product = np.multiply if ci == 1 else np.matmul
    scratch = np.empty_like(out)
    for u in range(k):
        for v in range(k):
            off = u * wp + v
            window = xp[:, off:off + cols]
            if u == 0 and v == 0:
                product(taps[u, v], window, out=out)
            else:
                product(taps[u, v], window, out=scratch)
                out += scratch


def _epilogue(dst, src, bias, relu):
    """dst = src + bias, then max(dst, 0) if relu, in dst's dtype; bias is
    None or shaped to broadcast over src's channel axis."""
    if dst is not src:
        dst[...] = src
    if bias is not None:
        dst += bias
    if relu:
        np.maximum(dst, 0, out=dst)


def _overwrite_cols(n, c, cols, itemsize):
    """Columns per block of a 1x1 convolution of c -> c channels written
    over its input: about BAND_BYTES of product, on multiples of
    _GEMM_COLS, and packed wherever the whole product runs packed."""
    step = max(1, BAND_BYTES // (n * c * itemsize) // _GEMM_COLS)
    if c * c * cols > _SMALL_GEMM_MACS:
        step = max(step, -(-(_SMALL_GEMM_MACS // (c * c) + 1) // _GEMM_COLS))
    return step * _GEMM_COLS


def conv2d_forward(x, w, bias=None, relu=False, overwrite=False):
    """Same-padded stride-1 cross-correlation of x (n,ci,h,w) with w
    (co,ci,k,k), plus bias (co,) if given, then max(., 0) if relu: both
    are applied as each band is written. With overwrite, a 1x1 convolution
    with co == ci may write its output over the C-contiguous x, whose
    values the caller gives up."""
    n, ci, h, wd = x.shape
    co, _, k, _ = w.shape
    w = w.astype(x.dtype, copy=False)
    if k == 1:
        w2 = w[:, :, 0, 0]
        b2 = None if bias is None else bias.reshape(-1, 1)
        cols = h * wd
        step = cols
        if overwrite and co == ci and x.size and x.flags.c_contiguous:
            step = _overwrite_cols(n, ci, cols, x.itemsize)
        if step < cols:     # in blocks, each written over the columns it read
            flat = x.reshape(n, ci, cols)
            for c0 in range(0, cols, step):
                part = flat[:, :, c0:c0 + step]
                _epilogue(part, np.matmul(w2, part), b2, relu)
            return x
        # one (co, ci) @ (ci, h * w) product per item, on the items in place
        out = np.matmul(w2, x.reshape(n, ci, cols))
        _epilogue(out, out, b2, relu)
        return out.reshape(n, co, h, wd)
    if not n * co * h * wd:
        return np.empty((n, co, h, wd), dtype=x.dtype)
    b3 = None if bias is None else bias.reshape(-1, 1, 1)
    taps = np.ascontiguousarray(w.transpose(2, 3, 0, 1))
    gemm = _gemm(x.dtype)
    p = k // 2
    wp = wd + 2 * p
    plane = (h + 2 * p) * wp + k - 1    # an item's flat padded plane
    # one pass: one gemm over the items' planes side by side, whose columns
    # run from the first item's first pixel to the last item's last
    total = n * plane - (k - 1) * (wp + 1)
    rows = n * h                        # output rows, item after item
    bands = 1
    if co * ci * total > _SMALL_GEMM_MACS:
        # rows per band: ci rows of about rows * wp + (k - 1) * (wp + 1) +
        # _GEMM_COLS values of padded input within BAND_BYTES, at least one
        fit = (BAND_BYTES // (ci * x.itemsize) - _GEMM_COLS
               - (k - 1) * (wp + 1)) // wp
        # OpenBLAS's small-matrix kernel rounds otherwise than its packed
        # one, so every band keeps enough rows to stay packed as well
        least = _SMALL_GEMM_MACS // (co * ci * wp) + 2
        bands = max(1, min(-(-rows // max(1, fit)), rows // least))
    cuts = [rows * j // bands for j in range(bands + 1)]
    out = None
    for g0, g1 in zip(cuts, cuts[1:]):
        first = g0 // h * plane + g0 % h * wp
        last = (g1 - 1) // h * plane + (g1 - 1) % h * wp
        # from a multiple of _GEMM_COLS, over a multiple of them but for
        # the last band, which ends where the one pass does: each output
        # meets the main kernel or the same edge code as in that pass
        start = first - first % _GEMM_COLS
        cols = (total - start if g1 == rows else
                -(-(last + wd - start) // _GEMM_COLS) * _GEMM_COLS)
        xp = np.zeros((ci, cols + (k - 1) * (wp + 1)), dtype=x.dtype)
        # each item's rows in the band, and the input rows they read
        items = [(b, max(g0 - b * h, 0), min(g1 - b * h, h))
                 for b in range(g0 // h, (g1 - 1) // h + 1)]
        for b, i0, i1 in items:
            a, z = max(i0 - p, 0), min(i1 + p, h)
            off = b * plane + (a + p) * wp - start
            rows_in = xp[:, off:off + (z - a) * wp].reshape(ci, z - a, wp)
            rows_in[:, :, p:p + wd] = x[b, :, a:z]
        grid = np.empty((co, cols + wp), dtype=x.dtype)
        if gemm is None:
            _taps_numpy(taps, xp, wp, grid[:, :cols])
        else:
            _taps_gemm(gemm, taps, xp, wp, grid, cols)
        del xp
        if out is None:     # only now, so one band peaks as a crop copy would
            out = np.empty((n, co, h, wd), dtype=x.dtype)
        for b, i0, i1 in items:
            off = b * plane + i0 * wp - start
            _epilogue(out[b, :, i0:i1], grid[:, off:off + (i1 - i0) * wp]
                      .reshape(co, i1 - i0, wp)[:, :, :wd], b3, relu)
        del grid
    return out


def conv2d_grad_weight(x, gy, k):
    """Weight gradient for conv2d_forward; x is the unpadded input."""
    x = np.ascontiguousarray(x)
    n, ci, h, wd = x.shape
    co = gy.shape[1]
    xp, wp = _flat_padded(x, k)
    if k == 1:
        # no junk columns to cancel: gy as it is
        g = np.ascontiguousarray(gy, dtype=x.dtype).reshape(n, co, h * wd)
    else:
        # gy on the padded-width grid; its zero columns cancel the junk products
        g = np.zeros((n, co, h, wp), dtype=x.dtype)
        g[:, :, :, :wd] = gy
        g = g.reshape(n, co, h * wp)
    # row blocks for the small-matrix kernel (see the module docstring);
    # with more channel pairs the packed kernel wins, and the rows stay whole
    rows = max(1, h)
    if co * ci <= _SMALL_GEMM_PAIRS:
        rows = max(1, _SMALL_GEMM_MACS // max(1, co * ci * wp))
    blocks = max(1, -(-h // rows))
    cuts = [h * b // blocks * wp for b in range(blocks + 1)]
    # every tap's block products, summed over blocks and items in one pass
    products = np.empty((k * k, blocks, n, co, ci), dtype=x.dtype)
    xt = xp.transpose(0, 2, 1)
    for u in range(k):
        for v in range(k):
            off = u * wp + v
            for part, a, z in zip(products[u * k + v], cuts, cuts[1:]):
                np.matmul(g[:, :, a:z], xt[:, off + a:off + z], out=part)
    dw = products.reshape(k * k, blocks * n, co, ci).sum(axis=1)
    return np.ascontiguousarray(dw.reshape(k, k, co, ci).transpose(2, 3, 0, 1))


def conv2d_grad_input(gy, w):
    """Input gradient: forward kernel applied to gy with w rotated 180 degrees
    and in/out channels swapped. Valid for odd k with same padding."""
    wt = np.ascontiguousarray(w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3))
    return conv2d_forward(gy, wt)
