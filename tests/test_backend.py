"""The conv kernels against scalar-loop oracles.

The flat shift-and-accumulate layout computes 2p junk columns per output
row that mix neighbouring rows, so the cases use non-square planes,
several k and ci != co: a row-wrap or crop error shows as a mismatch.
"""

import numpy as np

from msdnpan import backend

KS = (1, 3, 5, 7)
# float32 sums of up to ci * k * k = 147 products of unit normals; the
# observed error is ~1e-5, the bound leaves a margin for BLAS order
TOL = {np.float64: dict(rtol=1e-10, atol=1e-12),
       np.float32: dict(rtol=1e-4, atol=1e-4)}


def _random_case(rng, n=2, ci=3, co=4, k=3, h=5, w=9, dtype=np.float64):
    x = rng.standard_normal((n, ci, h, w)).astype(dtype)
    wt = rng.standard_normal((co, ci, k, k)).astype(dtype)
    gy = rng.standard_normal((n, co, h, w)).astype(dtype)
    return x, wt, gy


def _padded(x, k):
    p = k // 2
    return np.pad(x.astype(np.float64), ((0, 0), (0, 0), (p, p), (p, p)))


def _forward_loops(x, w):
    n, ci, h, wd = x.shape
    co, _, k, _ = w.shape
    xp = _padded(x, k)
    out = np.zeros((n, co, h, wd))
    for b in range(n):
        for o in range(co):
            for i in range(h):
                for j in range(wd):
                    out[b, o, i, j] = (w[o].astype(np.float64)
                                       * xp[b, :, i:i + k, j:j + k]).sum()
    return out


def _grad_weight_loops(x, gy, k):
    _, ci, h, wd = x.shape
    co = gy.shape[1]
    xp = _padded(x, k)
    dw = np.zeros((co, ci, k, k))
    for o in range(co):
        for c in range(ci):
            for u in range(k):
                for v in range(k):
                    dw[o, c, u, v] = (gy[:, o].astype(np.float64)
                                      * xp[:, c, u:u + h, v:v + wd]).sum()
    return dw


def test_forward_matches_scalar_loops():
    rng = np.random.default_rng(1)
    for k in KS:
        for dtype in TOL:
            for ci in (1, 3):   # one input channel takes the outer-product path
                x, w, _ = _random_case(rng, ci=ci, k=k, dtype=dtype)
                out = backend.conv2d_forward(x, w)
                assert out.shape == (2, 4, 5, 9)
                np.testing.assert_allclose(
                    out, _forward_loops(x, w), **TOL[dtype],
                    err_msg=f"k={k} ci={ci} {dtype.__name__}")


def test_grad_input_matches_scalar_adjoint():
    # <conv(x), gy> == <x, grad_input(gy)> for any x, so check the bilinear
    # form directly against loops
    rng = np.random.default_rng(2)
    for k in KS:
        for co in (1, 4):
            x, w, gy = _random_case(rng, co=co, k=k)
            lhs = float((_forward_loops(x, w) * gy).sum())
            rhs = float((x * backend.conv2d_grad_input(gy, w)).sum())
            assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs)), f"k={k} co={co}"


def test_grad_weight_matches_scalar_loops():
    rng = np.random.default_rng(3)
    for k in KS:
        for dtype in TOL:
            x, _, gy = _random_case(rng, k=k, dtype=dtype)
            dw = backend.conv2d_grad_weight(x, gy, k)
            np.testing.assert_allclose(dw, _grad_weight_loops(x, gy, k),
                                       **TOL[dtype],
                                       err_msg=f"k={k} {dtype.__name__}")


def test_outputs_keep_dtype_and_are_contiguous():
    rng = np.random.default_rng(4)
    for dtype, other in ((np.float64, np.float32), (np.float32, np.float64)):
        x, w, gy = _random_case(rng, k=3, dtype=dtype)
        # non-contiguous inputs and a weight of the other precision
        x, gy, w = x[:, :, :, ::-1], gy[:, :, :, ::-1], w.astype(other)
        for out in (backend.conv2d_forward(x, w),
                    backend.conv2d_grad_input(gy, w),
                    backend.conv2d_grad_weight(x, gy, 3)):
            assert out.dtype == dtype
            assert out.flags.c_contiguous
