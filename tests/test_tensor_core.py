"""Autodiff core semantics; finite-difference checks are in test_gradients."""

import tracemalloc
import weakref

import numpy as np
import pytest

from msdnpan.classic_fusion import box_filter
from msdnpan.errors import ShapeError
from msdnpan import tensor_core as tc
from msdnpan.injection_net import (
    ModelConfig, PansharpenModel, pansharpen_with_details,
)
from msdnpan.losses import total_loss
from msdnpan.tensor_core import Tensor


def test_operator_sugar_matches_numpy():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((3, 4))
    t = Tensor(a, requires_grad=True)
    out = (2 * t + 1 - t / 2) * t - 3
    expected = (2 * a + 1 - a / 2) * a - 3
    np.testing.assert_allclose(out.data, expected, rtol=1e-12)


def test_int_input_promotes_to_float64():
    t = Tensor([[1, 2], [3, 4]])
    assert t.dtype == np.float64


def test_float32_is_preserved():
    t = Tensor(np.ones((2, 2), dtype=np.float32))
    out = tc.sigmoid(t + t)
    assert out.dtype == np.float32


def test_backward_rejects_non_scalar():
    t = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ShapeError):
        tc.backward(t + t, [t])


def test_diamond_graph_accumulates():
    # z = x*y + x, so dz/dx = y + 1 and dz/dy = x
    x = Tensor(np.array([2.0, 3.0]), requires_grad=True)
    y = Tensor(np.array([5.0, 7.0]), requires_grad=True)
    gx, gy = tc.backward((x * y + x).sum(), [x, y])
    np.testing.assert_array_equal(gx, np.array([6.0, 8.0]))
    np.testing.assert_array_equal(gy, np.array([2.0, 3.0]))


def test_shared_subgraph_used_twice():
    x = Tensor(np.array([3.0]), requires_grad=True)
    h = x * x
    (gx,) = tc.backward((h + h).sum(), [x])   # d/dx 2x^2 = 4x
    np.testing.assert_array_equal(gx, np.array([12.0]))


def test_broadcast_gradient_is_summed():
    a = Tensor(np.ones((2, 3)), requires_grad=True)
    b = Tensor(np.ones((1, 3)), requires_grad=True)
    ga, gb = tc.backward((a + b).sum(), [a, b])
    assert ga.shape == (2, 3)
    assert gb.shape == (1, 3)
    np.testing.assert_array_equal(gb, np.full((1, 3), 2.0))


def test_add_of_a_tensor_to_itself_keeps_gradients_private():
    # add hands one gradient array to both inputs; summing x's two
    # contributions must leave the one returned for y as it was
    rng = np.random.default_rng(11)
    x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    y = x + x
    g = rng.standard_normal((3, 4))
    gy, gx = tc.backward((y * Tensor(g)).sum(), [y, x])
    np.testing.assert_array_equal(gy, g)
    np.testing.assert_array_equal(gx, 2 * g)


def test_backward_returns_gradients_and_writes_no_tensor():
    x = Tensor(np.ones((2, 3), np.float32), requires_grad=True)
    unused = Tensor(np.ones(2), requires_grad=True)
    frozen = Tensor(np.ones((2, 3), np.float32))
    loss = tc.reduce_mean(x * frozen, axis=1).sum() + tc.reduce_sum(x)
    state = [(t, k, getattr(t, k)) for t in (x, unused, frozen, loss)
             for k in Tensor.__slots__]
    gx, g_unused, g_frozen = tc.backward(loss, [x, unused, frozen])
    assert gx.dtype == np.float32 and gx.shape == (2, 3)
    np.testing.assert_allclose(gx, np.full((2, 3), 1.0 + 1.0 / 3.0))
    assert g_unused is None and g_frozen is None
    assert all(getattr(t, k) is v for t, k, v in state)
    assert np.all(x.data == 1.0) and not hasattr(x, "grad")
    # a second call on the same graph gives the same gradient
    np.testing.assert_array_equal(tc.backward(loss, [x])[0], gx)


def test_reduce_max_splits_ties():
    x = Tensor(np.array([[1.0, 1.0, 0.5]]), requires_grad=True)
    (gx,) = tc.backward(tc.reduce_max(x, axis=1, keepdims=False).sum(), [x])
    np.testing.assert_array_equal(gx, np.array([[0.5, 0.5, 0.0]]))


def test_reduce_mean_value_and_axes():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((2, 3, 4))
    t = Tensor(a)
    np.testing.assert_allclose(tc.reduce_mean(t, axis=(0, 2)).data,
                               a.mean(axis=(0, 2)), rtol=1e-12)
    np.testing.assert_allclose(t.mean().data, a.mean(), rtol=1e-12)


def test_tile_mul_periodicity():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((2, 3, 3))
    out = tc.tile_mul(Tensor(np.ones((1, 2, 12, 15))), Tensor(a)).data
    assert out.shape == (1, 2, 12, 15)
    for i in range(12):
        for j in range(15):
            np.testing.assert_array_equal(out[0, :, i, j], a[:, i % 3, j % 3])
    for q, tiles in [((2, 12, 15), (2, 3, 3)), ((1, 3, 12, 15), (2, 3, 3)),
                     ((1, 2, 12, 14), (2, 3, 3)), ((1, 2, 12, 15), (2, 9))]:
        with pytest.raises(ShapeError):
            tc.tile_mul(Tensor(np.ones(q)), Tensor(np.ones(tiles)))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_tile_mul_matches_the_tiled_plane(dtype):
    """Forward and both gradients equal, bit for bit, multiplying by the
    whole tiled plane and summing that plane's gradient back per tile."""
    rng = np.random.default_rng(3)
    n, slots, s, h, w = 3, 4, 4, 12, 16
    tiles = Tensor(rng.standard_normal((slots, s, s)).astype(dtype),
                   requires_grad=True)
    q = Tensor(rng.standard_normal((n, slots, h, w)).astype(dtype),
               requires_grad=True)
    proj = Tensor(rng.standard_normal((n, slots, h, w)).astype(dtype))
    plane = Tensor(np.tile(tiles.data, (1, h // s, w // s))[None],
                   requires_grad=True)
    ref = tc.mul(plane, q)
    out = tc.tile_mul(q, tiles)
    assert out.dtype == dtype
    assert np.array_equal(out.data, ref.data)
    g_plane, g_q_ref = tc.backward((ref * proj).sum(), [plane, q])
    g_q, g_tiles = tc.backward((out * proj).sum(), [q, tiles])
    assert np.array_equal(g_q, g_q_ref)
    g_tiles_ref = g_plane.reshape(slots, h // s, s, w // s, s).sum(axis=(1, 3))
    assert g_tiles.dtype == dtype
    assert np.array_equal(g_tiles, g_tiles_ref)


def test_concat_channels_layout_and_checks():
    a = Tensor(np.zeros((2, 2, 3, 3)))
    b = Tensor(np.ones((2, 5, 3, 3)))
    out = tc.concat_channels(a, b)
    assert out.shape == (2, 7, 3, 3)
    np.testing.assert_array_equal(out.data[:, 2:], np.ones((2, 5, 3, 3)))
    with pytest.raises(ShapeError):
        tc.concat_channels(a, Tensor(np.ones((2, 5, 4, 3))))


def test_avg_pool2_inverts_nearest_up2():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((2, 3, 4, 6))
    roundtrip = tc.avg_pool2(tc.nearest_up2(Tensor(a)))
    np.testing.assert_allclose(roundtrip.data, a, rtol=1e-12)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(1, 1, 1, 1), (2, 3, 4, 6), (1, 2, 5, 3),
                                   (2, 16, 32, 32), (2, 16, 64, 64)])
def test_nearest_up2_backward_sums_each_block_like_a_reshape(shape, dtype):
    # bit for bit the block sums of g.reshape(n, c, h, 2, w, 2).sum((3, 5)),
    # so replacing that reduction changed no gradient
    n, c, h, w = shape
    rng = np.random.default_rng(h * w)
    a = tc.parameter("a", rng.standard_normal(shape).astype(dtype))
    g = rng.standard_normal((n, c, 2 * h, 2 * w)).astype(dtype)
    (grad,) = tc.backward(tc.reduce_sum(tc.mul(tc.nearest_up2(a), Tensor(g))),
                          [a])
    assert grad.dtype == dtype
    np.testing.assert_array_equal(
        grad, g.reshape(n, c, h, 2, w, 2).sum(axis=(3, 5)))


def test_avg_pool2_requires_even_extent():
    with pytest.raises(ShapeError):
        tc.avg_pool2(Tensor(np.zeros((1, 1, 3, 4))))


def test_conv2d_identity_kernel():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((2, 3, 5, 5))
    w = np.zeros((3, 3, 3, 3))
    for c in range(3):
        w[c, c, 1, 1] = 1.0   # centre tap passes the signal through
    out = tc.conv2d(Tensor(x), Tensor(w))
    np.testing.assert_allclose(out.data, x, rtol=1e-12)


def test_conv2d_matches_scalar_loops():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((1, 2, 4, 5))
    w = rng.standard_normal((3, 2, 3, 3))
    b = rng.standard_normal(3)
    out = tc.conv2d(Tensor(x), Tensor(w), Tensor(b)).data

    expected = np.zeros((1, 3, 4, 5))
    for o in range(3):
        for i in range(4):
            for j in range(5):
                acc = b[o]
                for c in range(2):
                    for u in range(3):
                        for v in range(3):
                            ii, jj = i + u - 1, j + v - 1
                            if 0 <= ii < 4 and 0 <= jj < 5:
                                acc += w[o, c, u, v] * x[0, c, ii, jj]
                expected[0, o, i, j] = acc
    np.testing.assert_allclose(out, expected, rtol=1e-10, atol=1e-12)


def test_conv2d_skips_input_gradient_of_a_constant_input(monkeypatch):
    calls = []
    grad_input = tc.backend.conv2d_grad_input

    def counting(gy, w):
        calls.append(gy.shape)
        return grad_input(gy, w)

    monkeypatch.setattr(tc.backend, "conv2d_grad_input", counting)
    stem = tc.ConvLayer("stem", 4, 8, 3, np.random.default_rng(12), relu=True)
    ms = Tensor(np.ones((2, 4, 6, 6), np.float32))
    g_ms, gw = tc.backward(stem(ms).sum(), [ms, stem.weight])
    assert calls == [] and g_ms is None and gw.any()

    ms = Tensor(np.ones((2, 4, 6, 6), np.float32), requires_grad=True)
    (g_ms,) = tc.backward(stem(ms).sum(), [ms])
    assert calls == [(2, 8, 6, 6)] and g_ms.shape == ms.shape


def test_conv2d_shape_checks():
    x = Tensor(np.zeros((1, 2, 4, 4)))
    with pytest.raises(ShapeError):
        tc.conv2d(x, Tensor(np.zeros((3, 5, 3, 3))))    # channel mismatch
    with pytest.raises(ShapeError):
        tc.conv2d(x, Tensor(np.zeros((3, 2, 2, 2))))    # even kernel
    with pytest.raises(ShapeError):
        tc.conv2d(Tensor(np.zeros((2, 4, 4))), Tensor(np.zeros((3, 2, 3, 3))))


def _bicubic_oracle(x, factor):
    # independent scalar evaluation: Catmull-Rom taps at half-pixel centres,
    # indices clamped to the edge
    def weight(d):
        d = abs(d)
        if d <= 1.0:
            return (1.5 * d - 2.5) * d * d + 1.0
        if d < 2.0:
            return ((-0.5 * d + 2.5) * d - 4.0) * d + 2.0
        return 0.0

    h, w = x.shape
    out = np.zeros((h * factor, w * factor))
    for oi in range(h * factor):
        sy = (oi + 0.5) / factor - 0.5
        by = int(np.floor(sy))
        for oj in range(w * factor):
            sx = (oj + 0.5) / factor - 0.5
            bx = int(np.floor(sx))
            acc = 0.0
            for dy in (-1, 0, 1, 2):
                for dx in (-1, 0, 1, 2):
                    wy = weight(sy - (by + dy))
                    wx = weight(sx - (bx + dx))
                    iy = min(max(by + dy, 0), h - 1)
                    ix = min(max(bx + dx, 0), w - 1)
                    acc += wy * wx * x[iy, ix]
            out[oi, oj] = acc
    return out


def test_bicubic_matches_scalar_oracle():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((5, 4))
    for factor in (2, 3, 4):
        got = tc.bicubic_upsample(Tensor(x), factor).data
        np.testing.assert_allclose(got, _bicubic_oracle(x, factor),
                                   rtol=1e-10, atol=1e-12)


def test_bicubic_constant_is_bit_exact():
    x = Tensor(np.full((1, 4, 6, 6), 5.0, dtype=np.float32))
    out = tc.bicubic_upsample(x, 4)
    assert out.shape == (1, 4, 24, 24)
    assert np.array_equal(out.data, np.full((1, 4, 24, 24), 5.0,
                                            dtype=np.float32))


def test_bicubic_float32_is_within_rounding_of_float64():
    rng = np.random.default_rng(13)
    x32 = rng.standard_normal((2, 3, 16, 16)).astype(np.float32)
    g32 = rng.standard_normal((2, 3, 64, 64)).astype(np.float32)
    outs, grads = [], []
    for dtype in (np.float32, np.float64):
        x = Tensor(x32.astype(dtype), requires_grad=True)
        out = tc.bicubic_upsample(x, 4)
        assert out.dtype == dtype
        outs.append(out.data)
        grads += tc.backward((out * Tensor(g32.astype(dtype))).sum(), [x])
    for lo, hi in (outs, grads):
        assert np.abs(lo - hi).max() <= 1e-6 * np.abs(hi).max()


def test_bicubic_factor_one_is_identity():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((3, 3))
    np.testing.assert_array_equal(tc.bicubic_upsample(Tensor(x), 1).data, x)


def test_bicubic_rejects_bad_factor():
    with pytest.raises(ShapeError):
        tc.bicubic_upsample(Tensor(np.zeros((4, 4))), 0)


# ---------------------------------------------------------------------------
# box filtering: classic_fusion's forward-only ndarray filter, checked here
# beside the bicubic resampler

def _box_oracle(x, k):
    p = k // 2
    h, w = x.shape
    out = np.zeros_like(x)
    for i in range(h):
        for j in range(w):
            acc = 0.0
            for u in range(-p, p + 1):
                for v in range(-p, p + 1):
                    ii = min(max(i + u, 0), h - 1)
                    jj = min(max(j + v, 0), w - 1)
                    acc += x[ii, jj]
            out[i, j] = acc / (k * k)
    return out


def test_box_filter_matches_scalar_oracle():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((6, 7))
    for k in (3, 5):
        np.testing.assert_allclose(box_filter(x, k), _box_oracle(x, k),
                                   rtol=1e-10, atol=1e-12)


def test_box_filter_constant_is_bit_exact():
    # 9 * 5.0 = 45.0 and 45.0 / 9.0 = 5.0 are both exact in binary
    x = np.full((4, 4), 5.0, dtype=np.float32)
    out = box_filter(x, 3)
    assert out.dtype == np.float32 and np.array_equal(out, x)


def test_box_filter_rejects_even_window():
    with pytest.raises(ShapeError):
        box_filter(np.zeros((4, 4)), 4)


def test_parameter_is_a_named_leaf():
    p = tc.parameter("w", np.ones((2, 3), np.float32))
    assert isinstance(p, Tensor) and p.name == "w" and p.requires_grad
    # a trainable tensor gets its leaf node when it is made
    assert p.dtype == np.float32 and p._node.parents == ()
    assert p._node.backward is None
    assert (p * 2.0).name is None


def test_dropped_intermediate_is_freed_when_no_backward_reads_it():
    p = tc.parameter("p", np.arange(6.0).reshape(1, 2, 3))
    a = p * 2.0
    c = tc.concat_channels(a, Tensor(np.ones((1, 1, 3))))
    dead = weakref.ref(a.data)
    del a               # scale and concat_channels read only shapes
    assert dead() is None
    np.testing.assert_array_equal(tc.backward(c.sum(), [p])[0],
                                  np.full((1, 2, 3), 2.0))


def test_conv_output_feeding_relu_is_freed():
    """A fused relu builds no pre-activation array: its closure holds the
    weight, the activated output, which masks the gradient, and a keeper
    that returns the input itself (a leaf has no recipe), so it reaches
    exactly those three arrays. A conv without relu holds no output, and
    scale's backward reads none; the recipe on scale's output holds the
    conv output while that output lives, so a dropped conv output is freed
    once the scale's output is dropped too."""
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal((1, 2, 6, 6)))
    w = tc.parameter("w", rng.standard_normal((3, 2, 3, 3)))
    r = tc.conv2d(x, w, relu=True)
    held = [cell.cell_contents for cell in r._node.backward.__closure__]
    arrays = [v for v in held if isinstance(v, np.ndarray)]
    keepers = [v for v in held if callable(v)]
    assert len(arrays) == 2 and any(v is r.data for v in arrays)
    assert len(keepers) == 1 and keepers[0]() is x.data
    mask = (r.data > 0).astype(r.dtype)
    np.testing.assert_array_equal(tc.backward(r.sum(), [w])[0],
                                  tc.backend.conv2d_grad_weight(x.data, mask, 3))

    h = tc.conv2d(x, w)
    s = h * 2.0
    loss = s.sum()
    dead = weakref.ref(h.data)
    del h
    assert dead() is not None   # s's recipe rebuilds s from it
    del s               # neither conv's, scale's nor sum's backward reads it
    assert dead() is None
    np.testing.assert_array_equal(tc.backward(loss, [w])[0],
                                  tc.backend.conv2d_grad_weight(
                                      x.data, np.full((1, 3, 6, 6), 2.0), 3))


def _bits(a):
    return a.dtype, a.shape, a.tobytes()


def _recipe_cases(dtype):
    """(name, taped output) of every op whose output carries a recipe."""
    rng = np.random.default_rng(21)
    x = tc.parameter("x", rng.standard_normal((2, 6, 8, 8)).astype(dtype))
    col = tc.parameter("col", rng.standard_normal((6, 1, 1)).astype(dtype))
    tiles = tc.parameter("tiles", rng.standard_normal((6, 2, 4)).astype(dtype))
    slope = tc.parameter("slope", np.linspace(-0.5, 1.5, 6).astype(dtype))
    # above backend.BAND_BYTES, so prelu adds its positive part in more
    # than one channel block, and its recipe in the same blocks
    big = tc.parameter("big", rng.standard_normal((1, 8, 256, 256))
                       .astype(dtype))
    assert big.data.nbytes > tc.backend.BAND_BYTES
    return [("prelu", tc.prelu(x, slope)),
            ("prelu_blocks", tc.prelu(big, tc.parameter(
                "slope8", np.linspace(-0.7, 2.5, 8).astype(dtype)))),
            ("mul", x * col),           # (2, 6, 8, 8) times (6, 1, 1)
            ("mul_left", tc.mul(col, x)),
            ("scale", x * -1.0),
            ("tile_mul", tc.tile_mul(x, tiles)),
            ("bicubic_upsample", tc.bicubic_upsample(x, 4)),
            ("prelu_of_scale", tc.prelu(-x, slope))]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_each_recipe_rebuilds_its_forward_array_bit_for_bit(dtype):
    for name, out in _recipe_cases(dtype):
        again = out._recipe()
        assert again is not out.data, name
        assert _bits(again) == _bits(out.data), name


def test_tape_free_outputs_carry_no_recipe():
    rng = np.random.default_rng(23)
    x = Tensor(rng.standard_normal((1, 2, 4, 4)))
    outs = [tc.prelu(x, Tensor(np.full(2, 0.25))), x * x, x * 3.0,
            tc.tile_mul(x, Tensor(np.ones((2, 2, 2)))),
            tc.bicubic_upsample(x, 2)]
    assert all(out._node is None and out._recipe is None for out in outs)


@pytest.mark.parametrize("op", ["prelu", "mul", "tile_mul"])
def test_conv_fed_a_recipe_matches_conv_fed_the_plane(op):
    """A conv whose input carries a recipe keeps the recipe and rebuilds
    the input in backward; its weight gradient is the one a conv fed the
    materialized plane computes, bit for bit, and the recipe's output is
    not kept."""
    rng = np.random.default_rng(24)
    q = tc.parameter("q", rng.standard_normal((2, 4, 8, 8)).astype(np.float32))
    other = {"prelu": (4,), "mul": (1, 4, 8, 8), "tile_mul": (4, 2, 2)}[op]
    b = tc.parameter("b", rng.standard_normal(other).astype(np.float32))
    make = {"prelu": tc.prelu, "mul": tc.mul, "tile_mul": tc.tile_mul}[op]
    w = tc.parameter("w", rng.standard_normal((3, 4, 3, 3)).astype(np.float32))
    g_up = rng.standard_normal((2, 3, 8, 8)).astype(np.float32)

    def weight_grad(feed_plane):
        fed = make(q, b)
        if feed_plane:
            fed = Tensor(fed.data.copy())
        dead = weakref.ref(fed.data)
        loss = (tc.conv2d(fed, w) * Tensor(g_up)).sum()
        del fed
        assert (dead() is None) == (not feed_plane)
        return tc.backward(loss, [w])[0]

    assert _bits(weight_grad(False)) == _bits(weight_grad(True))


def test_fused_relu_backward_frees_the_unmasked_gradient():
    """backward keeps no reference to the gradient it hands a closure, so
    the fused relu's unmasked gradient is freed once masked and the conv's
    backward runs beside the masked one alone. Basis, in planes of the
    output: 2.27 (the unmasked and masked gradients and the bool mask, as
    the separate relu op peaked); with the last gradient also held by a
    loop variable through the next closure, 3.0 (unmasked, masked and the
    input gradient)."""
    rng = np.random.default_rng(3)
    shape = (1, 8, 128, 128)
    x = Tensor(rng.standard_normal(shape).astype(np.float32),
               requires_grad=True)
    w = tc.parameter("w", rng.standard_normal((8, 8, 1, 1)).astype(np.float32))
    loss = (tc.conv2d(x, w, relu=True) * 2.0).sum()
    plane = x.data.nbytes
    tracemalloc.start()
    try:
        tc.backward(loss, [x, w])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * plane, f"backward peak {peak / plane:.2f} planes"


def _tile_mul_grad_tiles(g, q, th, tw):
    # tile_mul's own tiles-gradient formula, on the values q had
    n, slots, h, w = q.shape
    return (g * q).sum(axis=0).reshape(slots, h // th, th, w // tw,
                                       tw).sum(axis=(1, 3))


@pytest.mark.parametrize("shape", [(1, 64, 128, 128), (2, 16, 100, 100)])
def test_tape_free_ops_write_over_their_input_and_taped_ones_do_not(shape):
    """Tape-free, tile_mul and a 1x1 conv asked to overwrite write their
    output over q's and x's array, bit-equal to the out-of-place result;
    the 1x1 runs in several column blocks here, the last one partial for
    the second shape. Under a tape both leave their input untouched and
    give the gradients of the out-of-place ops."""
    rng = np.random.default_rng(21)
    n, c, h, w = shape
    q0 = rng.standard_normal(shape).astype(np.float32)
    tiles = rng.standard_normal((c, 4, 4)).astype(np.float32)
    layer = tc.ConvLayer("p", c, c, 1, rng)
    layer.bias.data[...] = rng.standard_normal(c)
    g = rng.standard_normal(shape).astype(np.float32)
    row = np.tile(tiles, (1, 1, w // 4)).reshape(1, c, 1, 4, w)
    ref_tile = (q0.reshape(n, c, h // 4, 4, w) * row).reshape(shape)
    ref_conv = tc.conv2d(Tensor(q0), layer.weight, layer.bias)
    assert not np.shares_memory(ref_conv.data, q0)

    for p in (layer.weight, layer.bias):
        p.requires_grad = False
    q = Tensor(q0.copy())
    out = tc.tile_mul(q, Tensor(tiles))
    assert np.shares_memory(out.data, q.data)
    assert np.array_equal(out.data, ref_tile)
    x = Tensor(q0.copy())
    out = layer(x, overwrite=True)
    assert np.shares_memory(out.data, x.data)
    assert np.array_equal(out.data, ref_conv.data)
    empty = Tensor(np.zeros((0,) + shape[1:], np.float32))
    assert layer(empty, overwrite=True).shape == empty.shape

    q = Tensor(q0.copy(), requires_grad=True)
    tt = Tensor(tiles, requires_grad=True)
    out = tc.tile_mul(q, tt)
    assert np.array_equal(out.data, ref_tile) and np.array_equal(q.data, q0)
    gq, gt = tc.backward((out * Tensor(g)).sum(), [q, tt])
    assert np.array_equal(gq, (g.reshape(n, c, h // 4, 4, w) * row)
                          .reshape(shape))
    assert np.array_equal(gt, _tile_mul_grad_tiles(g, q0, 4, 4))

    for p in (layer.weight, layer.bias):
        p.requires_grad = True
    grads = []
    for overwrite in (False, True):
        x = Tensor(q0.copy(), requires_grad=True)
        out = layer(x, overwrite=overwrite)
        assert np.array_equal(out.data, ref_conv.data)
        assert np.array_equal(x.data, q0)
        grads.append(tc.backward((out * Tensor(g)).sum(),
                                 [x, layer.weight, layer.bias]))
    for a, b in zip(*grads):
        assert np.array_equal(a, b)


def test_no_backward_closure_holds_a_tensor():
    cfg = ModelConfig(channels=8, memory_slots=8, nin_depth=1)
    model = PansharpenModel(cfg, np.random.default_rng(0))
    rng = np.random.default_rng(1)
    ms, gt, hp = (Tensor(rng.random(shape, np.float32)) for shape in
                  ((1, 4, 8, 8), (1, 4, 32, 32), (1, 1, 32, 32)))
    out, details = pansharpen_with_details(ms, model)
    loss = total_loss(out, gt, hp, details, 100.0)[0]
    nodes, stack = {}, [loss._node]
    while stack:
        node = stack.pop()
        if id(node) not in nodes:
            nodes[id(node)] = node
            stack.extend(p for p in node.parents if p is not None)
    held = [cell.cell_contents for node in nodes.values() if node.backward
            for cell in node.backward.__closure__ or ()]
    held += [x for value in held if isinstance(value, (tuple, list))
             for x in value]
    assert len(nodes) > 50
    assert not any(isinstance(value, Tensor) for value in held)


def test_parameters_walks_attributes_lists_and_tuples_in_order():
    class Block:
        pass

    inner, outer = Block(), Block()
    inner.b = tc.parameter("b", np.zeros(1))
    inner.frozen = Tensor(np.zeros(1))
    inner.a = tc.parameter("a", np.zeros(1))
    outer.scale = 4
    outer.pairs = [(tc.parameter("c", np.zeros(1)), inner)]
    outer.last = tc.parameter("d", np.zeros(1))
    assert [p.name for p in tc.parameters(outer)] == ["c", "b", "a", "d"]

    layer = tc.ConvLayer("conv", 2, 3, 3, np.random.default_rng(0))
    assert tc.parameters(layer) == [layer.weight, layer.bias]
    assert [p.name for p in tc.parameters(layer)] == ["conv.weight", "conv.bias"]


def test_conv_layer_checks_channels():
    layer = tc.ConvLayer("c", 3, 4, 3, np.random.default_rng(0))
    with pytest.raises(ShapeError):
        layer(Tensor(np.zeros((1, 2, 4, 4), dtype=np.float32)))


def test_kaiming_scale():
    rng = np.random.default_rng(10)
    w = tc.kaiming_normal(rng, (4000,), fan_in=8, dtype=np.float64)
    assert abs(w.std() - np.sqrt(2.0 / 8)) < 0.02
    # no generator: zeros, for a model whose values are loaded afterwards
    z = tc.kaiming_normal(None, (3, 2), fan_in=8, dtype=np.float32)
    assert z.dtype == np.float32 and z.shape == (3, 2) and not z.any()


# ---------------------------------------------------------------------------
# activations: exactly the np.where / boolean-index formulas they replaced

def _activation_input(rng, dtype, spread):
    x = rng.uniform(-spread, spread, (2, 3, 5, 6))
    x.flat[::7] = 0.0
    x.flat[3::11] = -0.0
    return x.astype(dtype)


def _where_sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _forward_and_grads(op, x, g, *extra):
    """op's output and the gradients of <op(x, *extra), g> with respect to
    x and each extra."""
    xt = Tensor(x, requires_grad=True)
    out = op(xt, *extra)
    return (out.data, *tc.backward((out * Tensor(g)).sum(), [xt, *extra]))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_relu_and_sigmoid_match_the_branching_formulas(dtype):
    rng = np.random.default_rng(14)
    g = rng.standard_normal((2, 3, 5, 6)).astype(dtype)

    x = _activation_input(rng, dtype, 3.0)
    for k in (1, 3):
        # relu as the epilogue of an identity convolution, banded for k 3
        eye = np.zeros((3, 3, k, k), dtype)
        eye[:, :, k // 2, k // 2] = np.eye(3)
        out, gx = _forward_and_grads(
            lambda t: tc.conv2d(t, Tensor(eye), relu=True), x, g)
        assert out.dtype == gx.dtype == dtype
        assert np.array_equal(out, np.where(x > 0, x, 0.0))
        assert np.array_equal(out, x * (x > 0))  # the mask product it replaced
        assert np.array_equal(gx, g * (x > 0))

    x = _activation_input(rng, dtype, 30.0)
    out, gx = _forward_and_grads(tc.sigmoid, x, g)
    ref = _where_sigmoid(x)
    assert out.dtype == gx.dtype == dtype
    assert np.array_equal(out, ref)
    assert np.array_equal(gx, g * ref * (1.0 - ref))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("distinct", [False, True])
def test_prelu_matches_the_branching_formulas(dtype, distinct):
    """One slope per channel: distinct values, or one value shared by
    every channel."""
    rng = np.random.default_rng(15)
    x = _activation_input(rng, dtype, 3.0)
    g = rng.standard_normal(x.shape).astype(dtype)
    slope_value = rng.uniform(0.05, 0.5, 3 if distinct else 1).astype(dtype)
    slope = Tensor(np.broadcast_to(slope_value, 3), requires_grad=True)
    out, gx, g_slope = _forward_and_grads(tc.prelu, x, g, slope)

    sl = slope.data.reshape((1, 3, 1, 1))
    pos = x > 0
    gs = g * np.where(pos, 0.0, x)
    assert out.dtype == gx.dtype == g_slope.dtype == dtype
    assert np.array_equal(out, np.where(pos, x, sl * x))
    assert np.array_equal(gx, g * np.where(pos, 1.0, sl))
    assert np.array_equal(g_slope, gs.sum(axis=(0, 2, 3)))


@pytest.mark.parametrize("shape", [(), (1,), (2,), (3, 1)])
def test_prelu_takes_one_slope_per_channel(shape):
    x = Tensor(np.ones((2, 3, 4, 4)))
    with pytest.raises(ShapeError):
        tc.prelu(x, Tensor(np.full(shape, 0.25)))


# ---------------------------------------------------------------------------
# forward ops: bit for bit the reshape-mean and mask-product formulas

def _signed_input(dtype):
    x = np.random.default_rng(16).standard_normal((2, 3, 6, 8)) * 4.0
    x.flat[::5] = 0.0
    x.flat[2::9] = -0.0
    return x.astype(dtype)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_avg_pool2_is_the_reshape_mean(dtype):
    x = _signed_input(dtype)
    out = tc.avg_pool2(Tensor(x)).data
    assert out.dtype == dtype
    assert np.array_equal(out, x.reshape(2, 3, 3, 2, 4, 2).mean(axis=(3, 5)))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("slope_value", [0.25, -0.7, 1.5, (0.1, -0.3, 2.5)])
def test_prelu_is_the_mask_product(dtype, slope_value):
    x = _signed_input(dtype)
    slope = np.broadcast_to(np.asarray(slope_value, dtype), 3)
    out = tc.prelu(Tensor(x), Tensor(slope)).data
    sl = slope.reshape((1, 3, 1, 1))
    pos = x > 0
    assert out.dtype == dtype
    assert np.array_equal(out, x * (pos + sl * ~pos))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("per_block", [5, 2, 1], ids=["one", "two", "each"])
def test_prelu_adds_its_positive_part_in_channel_blocks(monkeypatch, dtype,
                                                        per_block):
    """The positive part is added in blocks of channels; each value must be
    the two-term sum's, NaN and infinities included (x = -inf with slope 0
    gives NaN there too)."""
    x = np.random.default_rng(17).standard_normal((2, 5, 6, 8)) * 4.0
    x.flat[::5], x.flat[2::9] = 0.0, -0.0
    x.flat[1::13], x.flat[4::17], x.flat[6::19] = np.inf, -np.inf, np.nan
    x = x.astype(dtype)
    slope = np.array([-0.7, 0.0, 1.5, 0.25, 3.0], dtype)
    # blocks of per_block channels: the last of 2 holds one
    monkeypatch.setattr(tc.backend, "BAND_BYTES", x.nbytes * per_block // 5)
    sl = slope.reshape((1, 5, 1, 1))
    with np.errstate(invalid="ignore"):     # -inf * 0
        out = tc.prelu(Tensor(x), Tensor(slope)).data
        want = np.minimum(x, 0) * sl + np.maximum(x, 0)
    assert out.dtype == dtype
    assert np.array_equal(out, want, equal_nan=True)
