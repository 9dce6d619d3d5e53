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
    """Bounds for one pass over the whole plane: live during the tap loop
    are the padded input and the accumulator, each (h + 2p) rows or h rows
    of width w + 2p, and on the numpy path one scratch buffer as large as
    the accumulator. The cropped output must replace the padded input and
    scratch, not add to them. The numpy bound allows x.nbytes of headroom,
    less than the crop. The BLAS path has no scratch, so its peak is the
    accumulator and the crop; its headroom, x.nbytes / 4, is less than the
    padded input it must free. Bands of rows stay below both."""
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


def test_forward_builds_no_whole_plane_copy(monkeypatch):
    """A plane in bands holds its output and one band's padded input,
    output grid and, on the numpy path, scratch: each about BAND_BYTES here,
    where ci = co. A whole-plane padded copy (8.1 MiB) would not fit."""
    rng = np.random.default_rng(11)
    x, wt, _ = _random_case(rng, n=1, ci=32, co=32, k=3, h=256, w=256,
                            dtype=np.float32)
    bound = x.nbytes + 4 * backend.BAND_BYTES
    assert bound < 2 * x.nbytes
    for path in _paths(monkeypatch):
        backend.conv2d_forward(x, wt)   # warm-up
        tracemalloc.start()
        try:
            out = backend.conv2d_forward(x, wt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.nbytes == x.nbytes
        assert peak < bound, f"{path}: traced peak {peak / 2**20:.1f} MiB"


# (n, ci, co, k, h, w): each item's per-tap product is co * ci * rows *
# (w + 2p) multiply-adds; 16 * 16 * 59 * 66 = 996,864 fits the 1,000,000
# bound in one block, 60 rows need two, and 61 or 125 rows split unevenly
GRAD_WEIGHT_CASES = [
    (2, 16, 16, 3, 59, 64), (2, 16, 16, 3, 60, 64), (1, 16, 16, 3, 61, 64),
    (1, 16, 16, 3, 125, 64), (2, 16, 16, 1, 62, 64), (1, 8, 8, 7, 225, 64),
    (2, 3, 4, 3, 5, 9),
]
# bound on |dw - oracle| over max |oracle|, fixed from each dtype's unit
# roundoff and sums of up to 2 * 225 * 64 products of unit normals
GRAD_WEIGHT_RTOL = {np.float32: 1e-5, np.float64: 1e-13}


def _grad_weight_direct(x, gy, k):
    """dw[o, c, u, v] = sum over items and pixels of gy * shifted x, as one
    float64 contraction per tap."""
    _, _, h, wd = x.shape
    xp = _padded(x, k)
    gy = gy.astype(np.float64)
    dw = np.empty((gy.shape[1], x.shape[1], k, k))
    for u in range(k):
        for v in range(k):
            dw[:, :, u, v] = np.einsum("nohw,nchw->oc", gy,
                                       xp[:, :, u:u + h, v:v + wd])
    return dw


@pytest.mark.parametrize("dtype", [np.float32, np.float64],
                         ids=["float32", "float64"])
@pytest.mark.parametrize("n, ci, co, k, h, w", GRAD_WEIGHT_CASES)
def test_grad_weight_matches_direct_sum_in_small_gemms(monkeypatch, dtype, n,
                                                       ci, co, k, h, w):
    rng = np.random.default_rng(7)
    x, _, gy = _random_case(rng, n=n, ci=ci, co=co, k=k, h=h, w=w,
                            dtype=dtype)
    want = _grad_weight_direct(x, gy, k)
    products = []
    matmul = np.matmul

    def spy(a, b, *args, **kwargs):
        products.append(a.shape[-2] * a.shape[-1] * b.shape[-1])
        return matmul(a, b, *args, **kwargs)

    for path in _paths(monkeypatch):
        products.clear()
        with monkeypatch.context() as m:
            m.setattr(np, "matmul", spy)
            dw = backend.conv2d_grad_weight(x, gy, k)
        assert dw.dtype == dtype and dw.shape == (co, ci, k, k)
        err = np.abs(dw - want).max() / np.abs(want).max()
        assert err <= GRAD_WEIGHT_RTOL[dtype], f"{path}: {err:.2e}"
        # as few blocks of whole rows as the bound allows
        rows = backend._SMALL_GEMM_MACS // (co * ci * (w + 2 * (k // 2)))
        assert len(products) == k * k * -(-h // rows), path
        assert max(products) <= backend._SMALL_GEMM_MACS, path


def test_grad_weight_keeps_large_channel_products_whole(monkeypatch):
    # with 64 x 64 channel pairs the packed gemm beats row blocks, so each
    # tap stays one product per item
    rng = np.random.default_rng(8)
    x, _, gy = _random_case(rng, n=1, ci=64, co=64, k=3, h=20, w=24,
                            dtype=np.float32)
    products = []
    matmul = np.matmul

    def spy(a, b, *args, **kwargs):
        products.append(a.shape[-1])
        return matmul(a, b, *args, **kwargs)

    monkeypatch.setattr(np, "matmul", spy)
    dw = backend.conv2d_grad_weight(x, gy, 3)
    monkeypatch.undo()
    assert products == [20 * 26] * 9
    want = _grad_weight_direct(x, gy, 3)
    assert np.abs(dw - want).max() <= 1e-5 * np.abs(want).max()


def test_batched_1x1_forward_copies_nothing_but_its_output(monkeypatch):
    # n > 1: one (co, ci) @ (ci, h * w) product per item on x in place; the
    # flat layout would first copy x into a padded buffer and crop a grid
    rng = np.random.default_rng(9)
    x, w, _ = _random_case(rng, n=4, ci=16, co=16, k=1, h=64, w=64,
                           dtype=np.float32)
    for path in _paths(monkeypatch):
        backend.conv2d_forward(x, w)    # warm-up
        tracemalloc.start()
        try:
            out = backend.conv2d_forward(x, w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < out.nbytes + 2 ** 16, f"{path}: {peak / 2**20:.2f} MiB"


@pytest.mark.parametrize("dtype", [np.float32, np.float64],
                         ids=["float32", "float64"])
@pytest.mark.parametrize("ci, co, h", [(32, 8, 1), (8, 32, 1), (32, 32, 16),
                                       (1, 16, 8), (16, 1, 8)])
def test_1x1_forward_of_an_item_does_not_depend_on_its_batch(monkeypatch,
                                                            dtype, ci, co, h):
    # (32, 8, 1) and (8, 32, 1) are the pooled squeeze and excite of the
    # channel attention; an item run alone must get the bits it gets in a
    # batch, on either accumulation path
    rng = np.random.default_rng(12)
    x, w, _ = _random_case(rng, n=3, ci=ci, co=co, k=1, h=h, w=h, dtype=dtype)
    for path in _paths(monkeypatch):
        batch = backend.conv2d_forward(x, w)
        for b in range(3):
            alone = backend.conv2d_forward(x[b:b + 1], w)
            assert np.array_equal(alone, batch[b:b + 1]), f"{path} item {b}"


# (n, ci, co, k, h, w) with 90 output rows in all: one pass of each is a
# gemm above OpenBLAS's small-matrix bound, so it may split into bands
BAND_CASES = ([(n, 32, 32, k, 90 // n, 64) for k in KS for n in (1, 3)]
              + [(3, 1, 512, 3, 30, 126)])


@pytest.mark.parametrize("dtype", [np.float32, np.float64],
                         ids=["float32", "float64"])
@pytest.mark.parametrize("n, ci, co, k, h, w", BAND_CASES)
def test_banded_forward_equals_one_band(monkeypatch, dtype, n, ci, co, k, h,
                                        w):
    """Budgets for bands of 2, 3 and 4: for n = 3 the edges of 3 bands fall
    between items and those of 2 and 4 inside them, and 90 / 4 rows do not
    divide h. Every output value must be the one-pass value, bit for bit,
    on both accumulation paths; so must grad_input's, which runs the same
    kernel (but for numpy's gemv, below). A 1x1 conv is one batched
    matmul on its input in place: it never bands or runs the taps."""
    rng = np.random.default_rng(10)
    x, wt, gy = _random_case(rng, n=n, ci=ci, co=co, k=k, h=h, w=w,
                             dtype=dtype)
    rows, wp = n * h, w + 2 * (k // 2)

    def budget(channels, bands):
        m = -(-rows // bands)
        return ((m * wp + (k - 1) * (wp + 1) + backend._GEMM_COLS)
                * channels * x.itemsize)

    for path in _paths(monkeypatch):
        calls = []
        with monkeypatch.context() as m:
            for name in ("_taps_gemm", "_taps_numpy"):
                taps = getattr(backend, name)
                m.setattr(backend, name, lambda *a, taps=taps:
                          calls.append(a) or taps(*a))
            m.setattr(backend, "BAND_BYTES", 1 << 40)
            one = backend.conv2d_forward(x, wt)
            one_gx = backend.conv2d_grad_input(gy, wt)
            for bands in (2, 3, 4):
                case = f"{path} bands={bands}"
                calls.clear()
                m.setattr(backend, "BAND_BYTES", budget(ci, bands))
                assert np.array_equal(backend.conv2d_forward(x, wt), one), case
                assert len(calls) == (bands if k > 1 else 0), case
                m.setattr(backend, "BAND_BYTES", budget(co, bands))
                gx = backend.conv2d_grad_input(gy, wt)
                if path == "numpy" and ci == 1:
                    # one output row: numpy runs each tap as a gemv, whose
                    # rounding depends on the columns it spans
                    np.testing.assert_allclose(gx, one_gx, **TOL[dtype])
                else:
                    assert np.array_equal(gx, one_gx), case
        np.testing.assert_allclose(one, _forward_direct(x, wt), **TOL[dtype])


def _forward_direct(x, w):
    """The forward pass as one float64 contraction per tap."""
    _, _, h, wd = x.shape
    k = w.shape[2]
    xp = _padded(x, k)
    return sum(np.tensordot(xp[:, :, u:u + h, v:v + wd],
                            w[:, :, u, v].astype(np.float64), axes=(1, 1))
               for u in range(k) for v in range(k)).transpose(0, 3, 1, 2)
