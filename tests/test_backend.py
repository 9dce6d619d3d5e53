"""The conv kernels against scalar-loop oracles.

The flat shift-and-accumulate layout computes 2p junk columns per output
row that mix neighbouring rows, so the cases use non-square planes,
several k and ci != co: a row-wrap or crop error shows as a mismatch.
The forward cases run on both accumulation paths: the bound BLAS gemm,
where numpy's BLAS has one, and the numpy tap loop.
"""

import tracemalloc

import numpy as np
import pytest

from msdnpan import backend

KS = (1, 3, 5, 7)
# float32 sums of up to ci * k * k = 147 products of unit normals; the
# observed error is ~1e-5, the bound leaves a margin for BLAS order
TOL = {np.float64: dict(rtol=1e-10, atol=1e-12),
       np.float32: dict(rtol=1e-4, atol=1e-4)}


def _paths(monkeypatch):
    """Yield "blas" where a gemm is bound, then "numpy" with the binding
    monkeypatched away; the binding is restored afterwards."""
    if backend.active_backend() != "numpy":
        yield "blas"
    with monkeypatch.context() as m:
        m.setattr(backend, "_gemm", lambda dtype: None)
        yield "numpy"


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


def test_forward_matches_scalar_loops(monkeypatch):
    rng = np.random.default_rng(1)
    for path in _paths(monkeypatch):
        for k in KS:
            for dtype in TOL:
                for ci in (1, 3):   # one input channel: an outer product per tap
                    x, w, _ = _random_case(rng, ci=ci, k=k, dtype=dtype)
                    out = backend.conv2d_forward(x, w)
                    assert out.shape == (2, 4, 5, 9)
                    np.testing.assert_allclose(
                        out, _forward_loops(x, w), **TOL[dtype],
                        err_msg=f"{path} k={k} ci={ci} {dtype.__name__}")


def test_grad_input_matches_scalar_adjoint(monkeypatch):
    # <conv(x), gy> == <x, grad_input(gy)> for any x, so check the bilinear
    # form directly against loops
    rng = np.random.default_rng(2)
    for path in _paths(monkeypatch):
        for k in KS:
            for co in (1, 4):
                x, w, gy = _random_case(rng, co=co, k=k)
                lhs = float((_forward_loops(x, w) * gy).sum())
                rhs = float((x * backend.conv2d_grad_input(gy, w)).sum())
                assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs)), \
                    f"{path} k={k} co={co}"



@pytest.mark.parametrize("conv, a_shape, w_shape", [
    (backend.conv2d_forward, (1, 1, 4, 4), (1, 3, 3, 3)),
    (backend.conv2d_forward, (1, 3, 4, 4), (1, 1, 3, 3)),
    (backend.conv2d_grad_input, (1, 4, 4, 4), (2, 3, 3, 3)),
], ids=["x-fewer-channels", "x-more-channels", "gy-more-channels"])
def test_channel_mismatch_raises_on_both_paths(monkeypatch, conv, a_shape,
                                                w_shape):
    # the gemm reads its operands through raw pointers: unchecked, the
    # first case read past the input rows (all NaN) and the others summed
    # over a subset of the channels
    a = np.ones(a_shape, np.float32)
    w = np.ones(w_shape, np.float32)
    for path in _paths(monkeypatch):
        with pytest.raises(ValueError):
            conv(a, w)
def test_blas_path_equals_numpy_path_on_float32():
    """Both paths run the same BLAS kernel per tap and add in tap order, so
    they agree bit for bit wherever numpy runs each tap as a GEMM, which is
    when M = co > 1 (N, the plane's columns, is always > 1 here). With
    co = 1 numpy runs a gemv, which rounds in another order."""
    if backend.active_backend() == "numpy":
        pytest.skip("numpy's BLAS has no bound gemm")
    controls = backend._blas_thread_controls()
    before = controls[0]() if controls else None
    rng = np.random.default_rng(6)
    channels = (1, 2, 4, 8, 16, 32)
    try:
        for threads in (1, 2):
            if controls:
                controls[1](threads)
            for n in (1, 2, 4):
                for ci in channels:
                    for co in channels:
                        for k in (1, 3, 7):
                            x, w, _ = _random_case(rng, n=n, ci=ci, co=co, k=k,
                                                   h=20, w=24, dtype=np.float32)
                            blas = backend.conv2d_forward(x, w)
                            with pytest.MonkeyPatch.context() as m:
                                m.setattr(backend, "_gemm", lambda dtype: None)
                                ref = backend.conv2d_forward(x, w)
                            case = f"threads={threads} n={n} ci={ci} co={co} k={k}"
                            if co > 1:
                                assert np.array_equal(blas, ref), case
                            else:
                                np.testing.assert_allclose(
                                    blas, ref, **TOL[np.float32], err_msg=case)
    finally:
        if controls:
            controls[1](before)


def test_scipy_openblas_convs_run_in_its_gemm():
    """numpy wheels ship scipy-openblas, whose cblas gemm symbols the
    backend binds; losing the binding there loses the speed silently."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    if blas.get("name") != "scipy-openblas":
        pytest.skip(f"numpy's BLAS is {blas.get('name')}")
    assert backend.active_backend() != "numpy"


def test_grad_weight_matches_scalar_loops():
    rng = np.random.default_rng(3)
    for k in KS:
        for dtype in TOL:
            x, _, gy = _random_case(rng, k=k, dtype=dtype)
            dw = backend.conv2d_grad_weight(x, gy, k)
            np.testing.assert_allclose(dw, _grad_weight_loops(x, gy, k),
                                       **TOL[dtype],
                                       err_msg=f"k={k} {dtype.__name__}")


def test_outputs_keep_dtype_and_are_contiguous(monkeypatch):
    rng = np.random.default_rng(4)
    for _ in _paths(monkeypatch):
        for dtype, other in ((np.float64, np.float32), (np.float32, np.float64)):
            for k in (1, 3):
                x, w, gy = _random_case(rng, k=k, dtype=dtype)
                # non-contiguous inputs and a weight of the other precision
                x, gy, w = x[:, :, :, ::-1], gy[:, :, :, ::-1], w.astype(other)
                for out in (backend.conv2d_forward(x, w),
                            backend.conv2d_grad_input(gy, w),
                            backend.conv2d_grad_weight(x, gy, k)):
                    assert out.dtype == dtype
                    assert out.flags.c_contiguous


def test_forward_frees_its_buffers_before_the_crop_copy(monkeypatch):
    """Live during the tap loop: the padded input and the accumulator, each
    (h + 2p) rows or h rows of width w + 2p, and on the numpy path one
    scratch buffer as large as the accumulator. The cropped output must
    replace the padded input and scratch, not add to them. The numpy
    bound allows x.nbytes of headroom, less than the crop. The BLAS path
    has no scratch, so its peak is the accumulator and the crop; its
    headroom, x.nbytes / 4, is less than the padded input it must free."""
    n, ci, co, k, h, w = 1, 32, 64, 3, 128, 128
    rng = np.random.default_rng(5)
    x = rng.standard_normal((n, ci, h, w)).astype(np.float32)
    wt = rng.standard_normal((co, ci, k, k)).astype(np.float32)
    wp = w + 2 * (k // 2)
    padded = n * ci * ((h + 2 * (k // 2)) * wp + k - 1) * 4
    grid = n * co * h * wp * 4          # the accumulator, and the scratch
    crop = n * co * h * w * 4
    assert crop > x.nbytes and x.nbytes / 4 < padded
    bounds = {"blas": grid + crop + x.nbytes / 4,
              "numpy": x.nbytes + padded + 2 * grid}
    for path in _paths(monkeypatch):
        backend.conv2d_forward(x, wt)   # warm-up
        tracemalloc.start()
        try:
            out = backend.conv2d_forward(x, wt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.nbytes == crop
        assert peak < bounds[path], f"{path}: traced peak {peak / 2**20:.1f} MiB"
