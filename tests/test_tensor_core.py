"""Forward semantics of the autodiff core (gradients live in test_gradients)."""

import numpy as np
import pytest

from msdnpan.errors import ShapeError
from msdnpan import tensor_core as tc
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
    out = tc.relu(t + t)
    assert out.dtype == np.float32


def test_backward_rejects_non_scalar():
    t = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ShapeError):
        tc.backward(t + t)


def test_diamond_graph_accumulates():
    # z = x*y + x, so dz/dx = y + 1 and dz/dy = x
    x = Tensor(np.array([2.0, 3.0]), requires_grad=True)
    y = Tensor(np.array([5.0, 7.0]), requires_grad=True)
    tc.backward((x * y + x).sum())
    np.testing.assert_array_equal(x.grad, np.array([6.0, 8.0]))
    np.testing.assert_array_equal(y.grad, np.array([2.0, 3.0]))


def test_shared_subgraph_used_twice():
    x = Tensor(np.array([3.0]), requires_grad=True)
    h = x * x
    tc.backward((h + h).sum())   # d/dx 2x^2 = 4x
    np.testing.assert_array_equal(x.grad, np.array([12.0]))


def test_broadcast_gradient_is_summed():
    a = Tensor(np.ones((2, 3)), requires_grad=True)
    b = Tensor(np.ones((1, 3)), requires_grad=True)
    tc.backward((a + b).sum())
    assert a.grad.shape == (2, 3)
    assert b.grad.shape == (1, 3)
    np.testing.assert_array_equal(b.grad, np.full((1, 3), 2.0))


def test_reduce_max_splits_ties():
    x = Tensor(np.array([[1.0, 1.0, 0.5]]), requires_grad=True)
    tc.backward(tc.reduce_max(x, axis=1, keepdims=False).sum())
    np.testing.assert_array_equal(x.grad, np.array([[0.5, 0.5, 0.0]]))


def test_reduce_mean_value_and_axes():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((2, 3, 4))
    t = Tensor(a)
    np.testing.assert_allclose(tc.reduce_mean(t, axis=(0, 2)).data,
                               a.mean(axis=(0, 2)), rtol=1e-12)
    np.testing.assert_allclose(t.mean().data, a.mean(), rtol=1e-12)


def test_tile2d_periodicity():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((2, 3, 3))
    out = tc.tile2d(Tensor(a), 4, 5).data
    assert out.shape == (2, 12, 15)
    for i in range(12):
        for j in range(15):
            np.testing.assert_array_equal(out[:, i, j], a[:, i % 3, j % 3])


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


def test_bicubic_factor_one_is_identity():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((3, 3))
    np.testing.assert_array_equal(tc.bicubic_upsample(Tensor(x), 1).data, x)


def test_bicubic_rejects_bad_factor():
    with pytest.raises(ShapeError):
        tc.bicubic_upsample(Tensor(np.zeros((4, 4))), 0)


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
        np.testing.assert_allclose(tc.box_filter(Tensor(x), k).data,
                                   _box_oracle(x, k), rtol=1e-10, atol=1e-12)


def test_box_filter_constant_is_bit_exact():
    # 9 * 5.0 = 45.0 and 45.0 / 9.0 = 5.0 are both exact in binary
    x = Tensor(np.full((4, 4), 5.0, dtype=np.float32))
    assert np.array_equal(tc.box_filter(x, 3).data, x.data)


def test_box_filter_rejects_even_window():
    with pytest.raises(ShapeError):
        tc.box_filter(Tensor(np.zeros((4, 4))), 4)


def test_box_filter_adjoint_identity():
    # <box(x), g> == <x, box_adjoint(g)> exercises the edge-pad fold
    rng = np.random.default_rng(9)
    x = Tensor(rng.standard_normal((5, 6)), requires_grad=True)
    g = rng.standard_normal((5, 6))
    out = tc.box_filter(x, 5)
    tc.backward((out * Tensor(g)).sum())
    lhs = float((out.data * g).sum())
    rhs = float((x.data * x.grad).sum())
    # both sides are the same bilinear form evaluated two ways
    assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(lhs))


def test_parameter_is_a_named_leaf_with_zero_grad():
    p = tc.parameter("w", np.ones((2, 3), np.float32))
    assert isinstance(p, Tensor) and p.name == "w" and p.requires_grad
    assert p.grad.dtype == np.float32 and not p.grad.any()
    assert (p * 2.0).name is None


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
