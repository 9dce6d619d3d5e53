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

Accumulation. The forward pass lays the items' flat planes side by side,
one row per input channel, so each tap is one GEMM over the whole batch:
its N dimension spans every item's output grid, and the columns between
two items' grids are junk that the crop drops. Level-3 BLAS computes
C = alpha A B + beta C (Dongarra et al., "A set of level 3 basic linear
algebra subprograms", ACM TOMS 1990), so BLAS sums the taps itself: one
row-major gemm per tap, with A the tap's (co, ci) weights, B its window
read in place through ldb = the row length, C the output grid, and beta 0
for the first tap and 1 for every tap after it. The sum runs on BLAS's
own threads, with no scratch buffer and no numpy pass per tap.

The gemm is the cblas ?gemm of the OpenBLAS that numpy loaded, bound
through ctypes when first needed. Only symbols whose name fixes 64-bit
integer arguments are bound (`scipy_cblas_?gemm64_`, `cblas_?gemm64_`).
Raw pointers bypass numpy's bounds checks, so before any call every
operand is checked to be a C-contiguous array of the gemm's own dtype,
the input and output to have one row per input and output channel of the
taps, and the last tap's window to end inside the row. It starts (k - 1) *
(w + 2p) + k - 1 into the last item's plane and spans h * (w + 2p)
columns, so it ends exactly at that plane's end, (h + 2p) * (w + 2p) +
k - 1: the k - 1 spare zeros are what keep it in bounds.

Where numpy's BLAS has no such symbol (numpy on Accelerate, say), and for
dtypes other than float32 and float64, the same taps run as numpy
matmuls on the same layout, each added into the output through one
scratch buffer; there it is the only path. The weight gradient always
runs as numpy matmuls.
"""

import ctypes
import functools
from contextlib import contextmanager

import numpy as np

_ROW_MAJOR, _NO_TRANS = 101, 111        # CBLAS enum values
_GEMM_NAMES = ("scipy_cblas_{}gemm64_", "cblas_{}gemm64_")
_GEMM_TYPES = {np.dtype(np.float32): ("s", ctypes.c_float),
               np.dtype(np.float64): ("d", ctypes.c_double)}


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
    """x (n, c, h, w) zero-padded by k // 2 into the flat layout above.

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
    scratch = np.empty_like(out) if k > 1 else None
    for u in range(k):
        for v in range(k):
            off = u * wp + v
            window = xp[:, off:off + cols]
            if u == 0 and v == 0:
                product(taps[u, v], window, out=out)
            else:
                product(taps[u, v], window, out=scratch)
                out += scratch


def conv2d_forward(x, w):
    """Same-padded stride-1 cross-correlation of x (n,ci,h,w) with w (co,ci,k,k)."""
    n, ci, h, wd = x.shape
    co, _, k, _ = w.shape
    taps = np.ascontiguousarray(w.astype(x.dtype, copy=False).transpose(2, 3, 0, 1))
    # the items' flat planes side by side in one row per channel
    xp, wp = _flat_padded(x.transpose(1, 0, 2, 3), k)
    length = xp.shape[-1]
    xp = xp.reshape(ci, n * length)
    # output columns from the first item's first pixel to the last item's
    # last; the last tap's window over them ends at the row's end
    cols = max(0, n * length - (k - 1) * (wp + 1))
    out = np.empty((co, n * length), dtype=x.dtype)
    gemm = _gemm(x.dtype) if cols else None     # no gemm for an empty batch
    if gemm is None:
        _taps_numpy(taps, xp, wp, out[:, :cols])
    else:
        _taps_gemm(gemm, taps, xp, wp, out, cols)
    del xp      # so the crop copy does not coexist with it
    grid = out.reshape(co, n, length)[:, :, :h * wp].reshape(co, n, h, wp)
    return np.ascontiguousarray(grid[:, :, :, :wd].transpose(1, 0, 2, 3))


def conv2d_grad_weight(x, gy, k):
    """Weight gradient for conv2d_forward; x is the unpadded input."""
    x = np.ascontiguousarray(x)
    n, ci, h, wd = x.shape
    co = gy.shape[1]
    xp, wp = _flat_padded(x, k)
    size = h * wp
    # gy on the padded-width grid; its zero columns cancel the junk products
    g = np.zeros((n, co, h, wp), dtype=x.dtype)
    g[:, :, :, :wd] = gy
    g = g.reshape(n, co, size)
    dw = np.empty((co, ci, k, k), dtype=x.dtype)
    scratch = np.empty((n, co, ci), dtype=x.dtype)
    for u in range(k):
        for v in range(k):
            off = u * wp + v
            np.matmul(g, xp[:, :, off:off + size].transpose(0, 2, 1), out=scratch)
            dw[:, :, u, v] = scratch.sum(axis=0)
    return dw


def conv2d_grad_input(gy, w):
    """Input gradient: forward kernel applied to gy with w rotated 180 degrees
    and in/out channels swapped. Valid for odd k with same padding."""
    wt = np.ascontiguousarray(w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3))
    return conv2d_forward(gy, wt)
