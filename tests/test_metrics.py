"""Quality indices against direct-summation scalar oracles."""

import math

import numpy as np
import pytest

from msdnpan.errors import DegenerateInputError, ShapeError
from msdnpan.metrics import (
    d_lambda, d_s, ergas, full_resolution_report, pearson, q4, q_index, qnr,
    reduced_resolution_report, rmse, sam, scc,
)


# ---------------------------------------------------------------------------
# scalar oracles (plain python loops, fsum for the reductions)

def _o_mean(a):
    return math.fsum(np.asarray(a, np.float64).ravel().tolist()) / a.size


def _o_var(a):
    m = _o_mean(a)
    return max(_o_mean(np.asarray(a) * np.asarray(a)) - m * m, 0.0)


def _o_cov(a, b):
    return _o_mean(np.asarray(a) * np.asarray(b)) - _o_mean(a) * _o_mean(b)


def _o_rmse(x, y):
    d = np.asarray(x, np.float64) - np.asarray(y, np.float64)
    return math.sqrt(_o_mean(d * d))


def _o_sam(x, y):
    total = []
    k, h, w = x.shape
    for i in range(h):
        for j in range(w):
            dot = math.fsum(float(x[b, i, j]) * float(y[b, i, j])
                            for b in range(k))
            nx = math.sqrt(math.fsum(float(x[b, i, j]) ** 2 for b in range(k)))
            ny = math.sqrt(math.fsum(float(y[b, i, j]) ** 2 for b in range(k)))
            if nx == 0.0 or ny == 0.0:
                total.append(0.0)
            else:
                total.append(math.acos(min(max(dot / (nx * ny), -1.0), 1.0)))
    return math.fsum(total) / len(total)


def _o_ergas(x, y, ratio):
    terms = [( _o_rmse(x[b], y[b]) / _o_mean(x[b]) ) ** 2
             for b in range(x.shape[0])]
    return 100.0 * ratio * math.sqrt(math.fsum(terms) / x.shape[0])


def _o_laplacian(img):
    h, w = img.shape
    out = np.zeros((h - 2, w - 2))
    kernel = [[0, 1, 0], [1, -4, 1], [0, 1, 0]]
    for i in range(h - 2):
        for j in range(w - 2):
            out[i, j] = math.fsum(kernel[u][v] * float(img[i + u, j + v])
                                  for u in range(3) for v in range(3))
    return out


def _o_scc(x, y):
    fx = np.stack([_o_laplacian(x[b]) for b in range(x.shape[0])])
    fy = np.stack([_o_laplacian(y[b]) for b in range(y.shape[0])])
    return _o_cov(fx, fy) / math.sqrt(_o_var(fx) * _o_var(fy))


def _o_q(x, y):
    sx, sy = math.sqrt(_o_var(x)), math.sqrt(_o_var(y))
    if sx * sy == 0.0:
        return 1.0 if np.array_equal(x, y) else 0.0
    mx, my = _o_mean(x), _o_mean(y)
    den = mx * mx + my * my
    lum = 1.0 if den == 0.0 else 2.0 * mx * my / den
    return (_o_cov(x, y) / (sx * sy)) * lum * \
        (2.0 * sx * sy / (_o_var(x) + _o_var(y)))


def _o_q4(x, y):
    xc = sum(0.25 * x[b] for b in range(4))
    yc = sum(0.25 * y[b] for b in range(4))
    return _o_q(xc, yc)


def _o_d_lambda(ms, fused, p=1):
    k = ms.shape[0]
    terms = []
    for i in range(k):
        for j in range(k):
            if i != j:
                terms.append(abs(_o_q(ms[i], ms[j])
                                 - _o_q(fused[i], fused[j])) ** p)
    return (math.fsum(terms) / len(terms)) ** (1.0 / p)


def _o_d_s(ms, fused, pan, q=1):
    s = fused.shape[1] // ms.shape[1]
    h, w = ms.shape[1:]
    p_low = np.zeros((h, w))
    for i in range(h):
        for j in range(w):
            p_low[i, j] = _o_mean(pan[0, i * s:(i + 1) * s, j * s:(j + 1) * s])
    terms = [abs(_o_q(fused[b], pan[0]) - _o_q(ms[b], p_low)) ** q
             for b in range(ms.shape[0])]
    return (math.fsum(terms) / len(terms)) ** (1.0 / q)


# ---------------------------------------------------------------------------
# worked values

def test_rmse_worked_value():
    x = np.zeros((2, 2))
    y = np.array([[5.0, 0.0], [5.0, 0.0]])
    assert abs(rmse(x, y) - math.sqrt(12.5)) < 1e-12


def test_sam_orthogonal_and_identical():
    x = np.zeros((2, 1, 1))
    y = np.zeros((2, 1, 1))
    x[0], y[1] = 1.0, 1.0
    assert abs(sam(x, y) - math.pi / 2) < 1e-12
    r = np.random.default_rng(0).uniform(0.1, 1, (4, 3, 3))
    assert sam(r, r.copy()) == 0.0         # half-angle form is exact here
    assert sam(r, 2.0 * r) == 0.0          # doubling is exact in binary fp


def test_sam_needs_two_bands():
    with pytest.raises(ShapeError):
        sam(np.ones((1, 3, 3)), np.ones((1, 3, 3)))


def test_ergas_worked_value():
    x = np.full((1, 4, 4), 10.0)
    y = np.full((1, 4, 4), 12.0)
    assert abs(ergas(x, y) - 5.0) < 1e-12   # 100 * 0.25 * (2 / 10)
    assert abs(ergas(x, y, 0.5) - 10.0) < 1e-12


def test_ergas_scale_invariance_and_degenerate():
    rng = np.random.default_rng(1)
    x = rng.uniform(1, 2, (3, 4, 4))
    y = rng.uniform(1, 2, (3, 4, 4))
    assert abs(ergas(x, y) - ergas(2 * x, 2 * y)) < 1e-9
    with pytest.raises(DegenerateInputError):
        ergas(np.zeros((1, 4, 4)), np.ones((1, 4, 4)))


def test_scc_extremes():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((2, 6, 6))
    assert abs(scc(x, x) - 1.0) < 1e-9
    assert abs(scc(x, -x) + 1.0) < 1e-9
    with pytest.raises(DegenerateInputError):
        scc(np.ones((2, 6, 6)), x)


def test_q_index_anticorrelated_zero_mean():
    # exactly zero-mean, so the luminance factor takes its 1.0 branch
    x = np.array([[1.0, -1.0], [2.0, -2.0]])
    assert abs(q_index(x, -x) + 1.0) < 1e-12


def test_q_index_degenerate_rules():
    const = np.full((3, 3), 2.0)
    assert q_index(const, const.copy()) == 1.0
    assert q_index(const, np.full((3, 3), 3.0)) == 0.0


def test_q_index_identical():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((6, 6))
    assert abs(q_index(x, x.copy()) - 1.0) < 1e-12


def test_qnr_bounds_and_identity():
    assert qnr(0.0, 0.0) == 1.0
    assert abs(qnr(0.1, 0.2) - 0.9 * 0.8) < 1e-12
    with pytest.raises(ValueError):
        qnr(-0.1, 0.0)
    with pytest.raises(ValueError):
        qnr(0.0, 1.5)


def test_d_lambda_of_nearest_upsample_is_exactly_zero():
    rng = np.random.default_rng(6)
    ms = rng.uniform(0, 1, (4, 4, 4))
    fused = np.repeat(np.repeat(ms, 4, axis=1), 4, axis=2)
    assert d_lambda(ms, fused) == 0.0


def test_pearson_basics():
    x = np.array([1.0, 2.0, 3.0])
    assert abs(pearson(x, 2 * x + 1) - 1.0) < 1e-12
    assert abs(pearson(x, -x) + 1.0) < 1e-12
    with pytest.raises(DegenerateInputError):
        pearson(np.ones(3), x)


# ---------------------------------------------------------------------------
# oracle parity on random instances

def test_metrics_match_oracles():
    rng = np.random.default_rng(7)
    for _ in range(5):
        x = rng.uniform(0.1, 1.0, (4, 6, 6))
        y = rng.uniform(0.1, 1.0, (4, 6, 6))
        assert abs(rmse(x, y) - _o_rmse(x, y)) < 1e-9
        assert abs(sam(x, y) - _o_sam(x, y)) < 1e-9
        assert abs(ergas(x, y) - _o_ergas(x, y, 0.25)) < 1e-9
        assert abs(scc(x, y) - _o_scc(x, y)) < 1e-9
        assert abs(q4(x, y) - _o_q4(x, y)) < 1e-9

        ms = rng.uniform(0.1, 1.0, (4, 3, 3))
        fused = rng.uniform(0.1, 1.0, (4, 6, 6))
        pan = rng.uniform(0.1, 1.0, (1, 6, 6))
        assert abs(d_lambda(ms, fused) - _o_d_lambda(ms, fused)) < 1e-9
        assert abs(d_s(ms, fused, pan) - _o_d_s(ms, fused, pan)) < 1e-9


def test_shape_validation():
    with pytest.raises(ShapeError):
        rmse(np.ones((2, 2)), np.ones((3, 2)))
    with pytest.raises(ShapeError):
        q4(np.ones((3, 4, 4)), np.ones((3, 4, 4)))
    with pytest.raises(ShapeError):
        d_lambda(np.ones((4, 3, 3)), np.ones((4, 7, 7)))
    with pytest.raises(ShapeError):
        d_lambda(np.ones((4, 3, 3)), np.ones((4, 6, 9)))  # anisotropic
    with pytest.raises(ShapeError):
        d_lambda(np.ones((4, 0, 0)), np.ones((4, 0, 0)))  # empty
    with pytest.raises(ShapeError):
        d_s(np.ones((4, 3, 3)), np.ones((4, 6, 6)), np.ones((2, 6, 6)))


def test_reports_have_expected_keys():
    rng = np.random.default_rng(8)
    pred = rng.uniform(0.1, 1.0, (4, 8, 8))
    gt = rng.uniform(0.1, 1.0, (4, 8, 8))
    r = reduced_resolution_report(pred, gt)
    assert list(r) == ["sam", "ergas", "scc", "q4"]     # the CLI prints this order
    assert r["ergas"] == ergas(pred, gt)
    assert reduced_resolution_report(pred, gt, 0.5)["ergas"] == ergas(pred, gt, 0.5)
    ms = rng.uniform(0.1, 1.0, (4, 4, 4))
    pan = rng.uniform(0.1, 1.0, (1, 8, 8))
    f = full_resolution_report(pred, ms, pan)
    assert list(f) == ["qnr", "d_lambda", "d_s"]
    assert f["qnr"] == qnr(f["d_lambda"], f["d_s"])


def test_config_validation():
    x = np.full((1, 4, 4), 10.0)
    for ratio in (0, -0.25, math.nan, math.inf):
        with pytest.raises(ValueError):
            ergas(x, x, ratio)
