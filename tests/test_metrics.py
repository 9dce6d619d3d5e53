"""Quality indices against direct-summation scalar oracles."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from msdnpan import metrics
from msdnpan.data_pipeline import synth_scene, wald_downsample
from msdnpan.errors import DegenerateInputError, ShapeError
from msdnpan.metrics import (
    _BLOCK, _blocked, _sums, d_lambda, d_s, ergas, full_resolution_report,
    pearson, q4, q_index, qnr, reduced_resolution_report, sam, scc,
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
        qnr(0.0, 2.5)
    # each distortion lies in [0, 2]; above 1 it makes QNR negative
    assert qnr(0.5, 1.5) == -0.25


def test_d_lambda_of_nearest_upsample_is_exactly_zero():
    rng = np.random.default_rng(6)
    ms = rng.uniform(0, 1, (4, 4, 4))
    fused = np.repeat(np.repeat(ms, 4, axis=1), 4, axis=2)
    assert d_lambda(ms, fused) == 0.0


def test_exactness_at_benchmark_scale():
    # 512x512 bands put about 2**18 elements in each sum, so the summation
    # runs at the width and pass count of real scenes
    scene = synth_scene(21, 512)
    fused = np.repeat(np.repeat(scene.ms, 4, axis=1), 4, axis=2)
    assert d_lambda(scene.ms, fused) == 0.0
    assert sam(scene.gt, scene.gt) == ergas(scene.gt, scene.gt) == 0.0


def _whole_sam(x, y):
    nx = np.sqrt(np.einsum("khw,khw->hw", x, x))
    ny = np.sqrt(np.einsum("khw,khw->hw", y, y))
    ok = (nx > 0) & (ny > 0)
    ux, uy = x / np.where(ok, nx, 1.0), y / np.where(ok, ny, 1.0)
    nd = np.sqrt(np.einsum("khw,khw->hw", ux - uy, ux - uy))
    ns = np.sqrt(np.einsum("khw,khw->hw", ux + uy, ux + uy))
    return math.fsum(np.where(ok, 2.0 * np.arctan2(nd, ns), 0.0).ravel()
                     .tolist()) / ok.size


def _whole_scc(x, y):
    def lap(img):
        out = np.zeros((img.shape[0] - 2, img.shape[1] - 2))
        for (u, v), c in np.ndenumerate([[0, 1, 0], [1, -4, 1], [0, 1, 0]]):
            if c:
                out += c * img[u:u + out.shape[0], v:v + out.shape[1]]
        return out

    fx = np.stack([lap(b) for b in x])
    fy = np.stack([lap(b) for b in y])
    return _o_cov(fx, fy) / math.sqrt(_o_var(fx) * _o_var(fy))


def test_row_blocks_equal_whole_array_forms():
    # 100 rows of 512 make row blocks of 16 with a short last one
    rng = np.random.default_rng(12)
    x = rng.uniform(0, 1, (4, 100, 512))
    y = x + rng.normal(0, 0.05, x.shape)
    y[:, 7, 9] = 0.0                        # a zero spectrum counts angle 0
    assert sam(x, y) == _whole_sam(x, y)
    assert scc(x, y) == _whole_scc(x, y)
    # SCC's Laplacian row blocks: heights 3 and 4 (one and two Laplacian
    # rows); height 67, whose 510 Laplacian columns make blocks of 64 rows
    # and a last block of one; and _BLOCK Laplacian columns, one row a block
    for shape in ((2, 3, 9), (2, 4, 9), (2, 67, 512), (1, 5, _BLOCK + 2)):
        x = rng.uniform(0, 1, shape)
        y = x + rng.normal(0, 0.05, shape)
        assert scc(x, y) == _whole_scc(x, y), shape
        with pytest.raises(DegenerateInputError):
            scc(np.full(shape, 0.5), y)


def _traced_peak(fn, *args):
    fn(*args)                       # warm-up: first-call caches
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_reduced_report_traced_peak():
    """No whole-image copy, Laplacian, difference or angle plane: each
    statistic is summed from float64 blocks made inside one pass from the
    float32 inputs. Basis: on a 512x512 scene the report peaked at 39.9 MiB
    of traced allocations with two whole-image Laplacians and their
    `4.0 * at(1, 1)` temporary, and at 20.5 MiB with the float64 copies of
    the prediction and GT (8 MiB each)."""
    scene = synth_scene(51, 512)
    pred = np.repeat(np.repeat(scene.ms, 4, axis=1), 4, axis=2)
    peak = _traced_peak(reduced_resolution_report, pred, scene.gt)
    assert peak <= 8 * 2 ** 20, f"traced peak {peak / 2 ** 20:.1f} MiB"


def test_full_report_traced_peak():
    """PAN becomes float64 once, as one 2 MiB plane; the bands are read in
    float64 blocks. Basis: 11.1 MiB with float64 copies of the prediction,
    MS and PAN on a 512x512 scene."""
    scene = synth_scene(52, 512)
    pred = np.repeat(np.repeat(scene.ms, 4, axis=1), 4, axis=2)
    peak = _traced_peak(full_resolution_report, pred, scene.ms, scene.pan)
    assert peak <= 5 * 2 ** 20, f"traced peak {peak / 2 ** 20:.1f} MiB"


def _pairwise_d_lambda(ms, fused):
    terms = [abs(q_index(ms[i], ms[j]) - q_index(fused[i], fused[j]))
             for i, j in itertools.combinations(range(ms.shape[0]), 2)]
    return math.fsum(terms) / len(terms)


def _pairwise_d_s(ms, fused, pan):
    p = np.asarray(pan[0], np.float64)      # downsampled in float64, as d_s does
    p_low = wald_downsample(p, fused.shape[1] // ms.shape[1])
    terms = [abs(q_index(fused[i], p) - q_index(ms[i], p_low))
             for i in range(ms.shape[0])]
    return math.fsum(terms) / len(terms)


def test_shared_sums_equal_pairwise_q_index():
    for seed in (31, 32, 33):
        scene = synth_scene(seed, 64)
        up = np.repeat(np.repeat(scene.ms, 4, axis=1), 4, axis=2)
        noisy = up + np.random.default_rng(seed).normal(0, 0.01, up.shape)
        flat_ms, flat = scene.ms.copy(), noisy.copy()
        flat_ms[2], flat[1] = 0.25, 0.5     # sx * sy == 0: array_equal rule
        for ms, fused in ((scene.ms, up), (scene.ms, noisy), (scene.ms, scene.gt),
                          (flat_ms, flat), (flat_ms, noisy)):
            want = (_pairwise_d_lambda(ms, fused),
                    _pairwise_d_s(ms, fused, scene.pan))
            got = full_resolution_report(fused, ms, scene.pan)
            assert (d_lambda(ms, fused), d_s(ms, fused, scene.pan)) == want
            assert (got["d_lambda"], got["d_s"]) == want
        assert d_lambda(scene.ms, up) == 0.0


def test_report_sum_counts(monkeypatch):
    # each statistic is one term of one _sums call, and each call streams
    # its blocks once: one pass per metric of the reduced report, and one
    # per scale of the full one
    calls, streams = [], []
    sums = metrics._sums

    def counting(blocks, terms):
        def streamed():
            streams.append(1)
            return blocks()
        calls.append(terms)
        return sums(streamed, terms)

    monkeypatch.setattr(metrics, "_sums", counting)
    scene = synth_scene(41, 64)
    fused = np.repeat(np.repeat(scene.ms, 4, axis=1), 4, axis=2) + 0.01
    # per scale: the mean and mean square of the 4 bands and PAN, and the
    # mean product of each of their 10 pairs
    full_resolution_report(fused, scene.ms, scene.pan)
    assert [len(t) for t in calls] == [20, 20]
    assert len(streams) == 2
    assert all(len(set(t)) == len(t) for t in calls)
    calls.clear()
    streams.clear()
    # SAM's angles; ERGAS's band means and squared differences; the means,
    # mean squares and mean product of SCC's Laplacians and of Q4's
    # band-mean images
    reduced_resolution_report(fused, scene.gt)
    assert [len(t) for t in calls] == [1, 8, 5, 5]
    assert len(streams) == 4
    assert all(len(set(t)) == len(t) for t in calls)


def _fsum_outcome(f, a):
    try:
        return f(a)
    except (ValueError, OverflowError) as e:
        return type(e)


def test_fsum_equals_math_fsum():
    rng = np.random.default_rng(11)
    big = 2**20 + 3
    spread = (rng.choice([-1.0, 1.0], 4096)
              * 10.0 ** rng.uniform(-300.0, 300.0, 4096))
    cases = [
        np.zeros(0), np.array([0.7]), rng.uniform(0, 1, big),
        rng.uniform(0, 1, big) * rng.uniform(0, 1, big),
        rng.uniform(0, 1, (4, 8, 8)) * rng.uniform(0, 1, (4, 8, 8)),
        spread, spread[:3],
        # the large terms cancel, so only what four passes leave decides it
        rng.permutation(np.concatenate([spread, -spread, [3e-300]])),
        rng.integers(1, 2**20, 1000) * 5e-324,          # subnormals only
        np.array([1e16, 1.0, -1e16, 1e-16]),
        np.array([1.0, 2.0**-53]), np.array([1.0, 2.0**-53, 2.0**-106]),
        np.array([1.0, -(2.0**-54), 2.0**-106]),
        np.zeros(5), np.array([-0.0]), np.array([-0.0, 0.0, -0.0]),
        np.array([1.0, math.nan]), np.array([math.inf, 1.0]),
        np.array([-math.inf]), np.array([math.inf, -math.inf]),
        np.array([1e308, 1e308, -1e308]),
    ]
    # block boundaries: every block's pass sums must add up exactly
    for n in (_BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 7):
        cases.append(rng.standard_normal(n) * 10.0 ** rng.uniform(-8, 8, n))
    tail = rng.uniform(1, 2, _BLOCK)
    cases += [
        np.concatenate([np.zeros(_BLOCK), tail]),      # leading zero block
        np.concatenate([tail, np.full(_BLOCK, -0.0), -tail[:9]]),
    ]
    # values near 1 leave nothing after two passes and cancel in pairs;
    # the 1e-60 ones survive all four passes, in the last block only, and
    # decide the result
    ones = rng.uniform(1, 2, _BLOCK)
    quarter = ones[:_BLOCK // 4]
    tiny = rng.uniform(-1, 1, quarter.size) * 1e-60
    cases.append(np.concatenate(
        [ones, -ones, np.column_stack([quarter, -quarter, tiny]).ravel()]))
    for a in cases:
        _assert_same(_fsum_outcome(lambda v: _sums(_blocked(v), [(0,)])[0], a),
                     _fsum_outcome(_math_fsum, a), a[:4])
    # products, summed by a term (0, 1) without forming x * y
    n = 3 * _BLOCK + 7
    pairs = [
        (rng.standard_normal(n) * 10.0 ** rng.uniform(-8, 8, n),
         rng.standard_normal(n)),
        (np.array([1e200, 1e-200]), np.array([1e-200, 1e200])),  # loose bound
        (np.array([math.inf, 1.0]), np.array([0.0, 1.0])),        # inf * 0
        (np.array([1e200, 1e200]), np.array([1e200, -1e200])),   # inf - inf
    ]
    with np.errstate(all="ignore"):
        for x, y in pairs:
            _assert_same(
                _fsum_outcome(lambda v: _sums(_blocked(*v), [(0, 1)])[0],
                              (x, y)),
                _fsum_outcome(_math_fsum, x * y), x[:4])
    # several terms in one pass: a term that goes to math.fsum leaves the
    # others alone, across block edges
    for n in (_BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 7):
        ops = _mixed_operands(rng, n)
        terms = [(0,), (1,), (0, 1), (1, 1), (2,), (0, 2), (3,), (1, 3),
                 (4,), (4, 4), (5,), (3, 5), (6,), (6, 0), (7,), (7, 5),
                 (8,), (0, 0)]
        with np.errstate(all="ignore"):
            got = _sums(_blocked(*ops), terms)
            for term, g in zip(terms, got):
                want = ops[term[0]] if len(term) == 1 else \
                    ops[term[0]] * ops[term[1]]
                _assert_same(g, _fsum_outcome(_math_fsum, want), (n, term))
    # a term whose math.fsum raises raises here, the first one in order
    finite = rng.standard_normal(3)
    clash = np.array([math.inf, 1.0, -math.inf])            # ValueError
    overflow = np.array([1e308, 1e308, -1e308])             # OverflowError
    for terms, error in (([(0,), (1,)], ValueError),
                         ([(2,), (0,)], OverflowError),
                         ([(0,), (2,), (1,)], OverflowError),
                         ([(1,), (2,)], ValueError)):
        assert _fsum_outcome(lambda v: _sums(_blocked(*v), terms),
                             (finite, clash, overflow)) is error
    # each block's sigma fits, but the running sum overflows inside the
    # fifth block, where math.fsum of the blocks' exact pieces would not
    v = 0.99 * 2.0 ** 1007
    ridge = np.full(5 * _BLOCK, v)
    ridge[4 * _BLOCK + 2000:] = -v
    assert _fsum_outcome(lambda a: _sums(_blocked(a), [(0,)]), ridge) \
        is _fsum_outcome(_math_fsum, ridge) is OverflowError


def _math_fsum(a):
    return math.fsum(np.asarray(a).ravel().tolist())


def _mixed_operands(rng, n):
    """Operands of length n whose terms take every path of _sums."""
    f = rng.standard_normal(n) * 10.0 ** rng.uniform(-8, 8, n)
    g = rng.standard_normal(n)
    nan = g.copy()
    nan[-1] = math.nan                      # in the last block only
    inf = g.copy()
    inf[n // 2] = math.inf
    ninf = g.copy()
    ninf[0] = -math.inf                     # in the first block only
    zero = np.zeros(n)
    negzero = np.full(n, -0.0)
    # sigma would overflow; the pairs cancel, so math.fsum does not
    big = np.full(n, 1e308)
    big[1::2] = -1e308
    # each block's sigma fits, but more than two blocks' bounds add up
    # beyond 2**1023
    wide = np.full(n, 0.75 * 2.0 ** 1006)
    return [f, g, nan, inf, ninf, zero, negzero, big, wide]


def _assert_same(got, want, label):
    if isinstance(want, float) and math.isnan(want):
        assert math.isnan(got)
    elif isinstance(want, float):
        assert type(got) is float
        assert (got, math.copysign(1.0, got)) == (
            want, math.copysign(1.0, want)), label
    else:
        assert got is want, label


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
