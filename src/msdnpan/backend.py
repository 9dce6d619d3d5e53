"""Convolution kernels: one shift-and-accumulate GEMM implementation in numpy.

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
"""

import numpy as np


def _flat_padded(x, k):
    """x (n, c, h, w) zero-padded by k // 2 into the flat layout above.

    Returns the (n, c, (h + 2p) * (w + 2p) + k - 1) buffer and the padded
    row width w + 2p."""
    n, c, h, w = x.shape
    if k == 1:
        return x.reshape(n, c, h * w), w
    p = k // 2
    wp = w + 2 * p
    flat = np.zeros((n, c, (h + 2 * p) * wp + k - 1), dtype=x.dtype)
    plane = flat[:, :, :(h + 2 * p) * wp].reshape(n, c, h + 2 * p, wp)
    plane[:, :, p:p + h, p:p + w] = x
    return flat, wp


def conv2d_forward(x, w):
    """Same-padded stride-1 cross-correlation of x (n,ci,h,w) with w (co,ci,k,k)."""
    x = np.ascontiguousarray(x)
    n, ci, h, wd = x.shape
    co, _, k, _ = w.shape
    # with one input channel each tap is an outer product, which numpy's
    # matmul computes about 10x slower than the same broadcast multiply
    product = np.multiply if ci == 1 else np.matmul
    taps = np.ascontiguousarray(w.astype(x.dtype, copy=False).transpose(2, 3, 0, 1))
    xp, wp = _flat_padded(x, k)
    size = h * wp
    out = np.empty((n, co, size), dtype=x.dtype)
    scratch = np.empty_like(out) if k > 1 else None
    for u in range(k):
        for v in range(k):
            off = u * wp + v
            window = xp[:, :, off:off + size]
            if u == 0 and v == 0:
                product(taps[u, v], window, out=out)
            else:
                product(taps[u, v], window, out=scratch)
                out += scratch
    return np.ascontiguousarray(out.reshape(n, co, h, wp)[:, :, :, :wd])


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
