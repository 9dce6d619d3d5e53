"""Dense float tensors with reverse-mode automatic differentiation.

A Tensor wraps a numpy array plus an optional gradient. Operations record
their inputs and a backward closure on the output; ``backward`` replays the
tape in reverse topological order. The tape is dynamic: every forward call
builds a fresh graph, so Python's GC reclaims old graphs once the loss goes
out of scope.

Only what the models need is implemented: elementwise arithmetic with numpy
broadcasting, a handful of activations, stride-1 same-padded convolution,
separable bicubic upsampling, box filtering, pooling/tiling/reshape, and
sum/mean/max reductions. float32 and float64 are supported; gradients take
the dtype of the data they belong to.

A trainable parameter is a plain named Tensor made by ``parameter``;
``parameters`` finds every one reachable from a model's attributes.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from . import backend
from .errors import ShapeError

_FLOAT_TYPES = (np.float32, np.float64)


class Tensor:
    """A dense array plus autodiff bookkeeping."""

    __slots__ = ("data", "grad", "requires_grad", "name", "_prev", "_backward")

    def __init__(self, data, requires_grad=False, dtype=None, name=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in _FLOAT_TYPES:
            arr = arr.astype(np.float64)
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self.name = name
        self._prev = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    def item(self):
        return float(self.data)

    def zero_grad(self):
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        else:
            self.grad[...] = 0.0

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        label = f"{self.name!r}, " if self.name else ""
        return (f"Tensor({label}shape={self.data.shape}, "
                f"dtype={self.data.dtype}{flag})")

    # arithmetic sugar; scalars promote to constants
    def __add__(self, other):
        return add(self, _as_tensor(other, self.dtype))

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, _as_tensor(other, self.dtype))

    def __rsub__(self, other):
        return sub(_as_tensor(other, self.dtype), self)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return scale(self, float(other))
        return mul(self, other)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            return scale(self, 1.0 / float(other))
        return div(self, other)

    def __neg__(self):
        return neg(self)

    def sum(self, axis=None, keepdims=False):
        return reduce_sum(self, axis, keepdims)

    def mean(self, axis=None, keepdims=False):
        return reduce_mean(self, axis, keepdims)

    def max(self, axis=None, keepdims=False):
        return reduce_max(self, axis, keepdims)

    def reshape(self, shape):
        return reshape(self, shape)

    def backward(self):
        backward(self)


def _as_tensor(x, dtype):
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=dtype))


def constant(data, dtype=None):
    """A non-differentiable tensor."""
    return Tensor(data, requires_grad=False, dtype=dtype)


def _from_op(data, parents, bw):
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._prev = tuple(parents)
        out._backward = bw
    return out


def _accum(t, g):
    if not t.requires_grad:
        return
    g = np.asarray(g, dtype=t.data.dtype)
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += g


def _unbroadcast(g, shape):
    """Sum g down to `shape`, undoing numpy broadcasting."""
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def backward(root):
    """Accumulate d(root)/d(leaf) into .grad over the recorded graph."""
    if root.data.size != 1:
        raise ShapeError(f"backward expects a scalar, got shape {root.data.shape}")
    order = []
    seen = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._prev:
            if id(p) not in seen:
                stack.append((p, False))
    if root.grad is None:
        root.grad = np.ones_like(root.data)
    else:
        root.grad += np.ones_like(root.data)
    for node in reversed(order):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


# ---------------------------------------------------------------------------
# elementwise ops

def add(a, b):
    out = a.data + b.data

    def bw(g):
        _accum(a, _unbroadcast(g, a.data.shape))
        _accum(b, _unbroadcast(g, b.data.shape))

    return _from_op(out, (a, b), bw)


def sub(a, b):
    out = a.data - b.data

    def bw(g):
        _accum(a, _unbroadcast(g, a.data.shape))
        _accum(b, -_unbroadcast(g, b.data.shape))

    return _from_op(out, (a, b), bw)


def mul(a, b):
    out = a.data * b.data

    def bw(g):
        _accum(a, _unbroadcast(g * b.data, a.data.shape))
        _accum(b, _unbroadcast(g * a.data, b.data.shape))

    return _from_op(out, (a, b), bw)


def div(a, b):
    out = a.data / b.data

    def bw(g):
        _accum(a, _unbroadcast(g / b.data, a.data.shape))
        _accum(b, _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape))

    return _from_op(out, (a, b), bw)


def scale(a, factor):
    factor = float(factor)
    out = a.data * factor

    def bw(g):
        _accum(a, g * factor)

    return _from_op(out, (a,), bw)


def neg(a):
    def bw(g):
        _accum(a, -g)

    return _from_op(-a.data, (a,), bw)


def absolute(a):
    sign = np.sign(a.data)

    def bw(g):
        _accum(a, g * sign)

    return _from_op(np.abs(a.data), (a,), bw)


def exp(a):
    out = np.exp(a.data)

    def bw(g):
        _accum(a, g * out)

    return _from_op(out, (a,), bw)


def log(a):
    def bw(g):
        _accum(a, g / a.data)

    return _from_op(np.log(a.data), (a,), bw)


def relu(a):
    mask = a.data > 0

    def bw(g):
        _accum(a, g * mask)

    return _from_op(np.where(mask, a.data, 0.0), (a,), bw)


def sigmoid(a):
    x = a.data
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)

    def bw(g):
        _accum(a, g * out * (1.0 - out))

    return _from_op(out, (a,), bw)


def prelu(a, slope):
    """Parametric ReLU. slope is a scalar tensor or a per-channel vector
    (length = a.shape[1], broadcast over batch and space)."""
    if slope.data.ndim == 0 or slope.data.size == 1:
        sl = slope.data.reshape(())
        reduce_axes = None
    elif slope.data.ndim == 1:
        if a.data.ndim < 2 or slope.data.shape[0] != a.data.shape[1]:
            raise ShapeError(
                f"per-channel slope of length {slope.data.shape[0]} does not match "
                f"input with {a.data.shape[1] if a.data.ndim > 1 else 0} channels"
            )
        sl = slope.data.reshape((1, -1) + (1,) * (a.data.ndim - 2))
        reduce_axes = tuple(i for i in range(a.data.ndim) if i != 1)
    else:
        raise ShapeError("slope must be a scalar or a rank-1 per-channel vector")
    pos = a.data > 0
    out = np.where(pos, a.data, sl * a.data)

    def bw(g):
        _accum(a, g * np.where(pos, 1.0, sl))
        gs = g * np.where(pos, 0.0, a.data)
        if reduce_axes is None:
            _accum(slope, gs.sum().reshape(slope.data.shape))
        else:
            _accum(slope, gs.sum(axis=reduce_axes))

    return _from_op(out, (a, slope), bw)


# ---------------------------------------------------------------------------
# reductions

def _norm_axes(axis, ndim):
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(a % ndim for a in axis)


def _expand_grad(g, shape, axes, keepdims):
    if not keepdims:
        for a in sorted(axes):
            g = np.expand_dims(g, a)
    return np.broadcast_to(g, shape)


def reduce_sum(a, axis=None, keepdims=False):
    axes = _norm_axes(axis, a.data.ndim)
    out = a.data.sum(axis=axes, keepdims=keepdims)

    def bw(g):
        _accum(a, _expand_grad(g, a.data.shape, axes, keepdims))

    return _from_op(out, (a,), bw)


def reduce_mean(a, axis=None, keepdims=False):
    axes = _norm_axes(axis, a.data.ndim)
    count = 1
    for ax in axes:
        count *= a.data.shape[ax]
    out = a.data.mean(axis=axes, keepdims=keepdims)

    def bw(g):
        _accum(a, _expand_grad(g, a.data.shape, axes, keepdims) / count)

    return _from_op(out, (a,), bw)


def reduce_max(a, axis=None, keepdims=False):
    """Max reduction; on ties the gradient is split evenly among the maxima."""
    axes = _norm_axes(axis, a.data.ndim)
    full = a.data.max(axis=axes, keepdims=True)
    out = full if keepdims else full.reshape(
        tuple(s for i, s in enumerate(a.data.shape) if i not in axes)
    )

    def bw(g):
        mask = a.data == full
        count = mask.sum(axis=axes, keepdims=True)
        ge = _expand_grad(g, a.data.shape, axes, keepdims)
        _accum(a, ge * mask / count)

    return _from_op(out, (a,), bw)


# ---------------------------------------------------------------------------
# shape ops

def reshape(a, shape):
    shape = tuple(shape)
    out = a.data.reshape(shape)

    def bw(g):
        _accum(a, g.reshape(a.data.shape))

    return _from_op(out, (a,), bw)


def concat_channels(a, b):
    """Concatenate two feature maps along axis 1."""
    if a.data.ndim != b.data.ndim or a.data.ndim < 2:
        raise ShapeError("concat_channels expects two arrays of equal rank >= 2")
    for i, (sa, sb) in enumerate(zip(a.data.shape, b.data.shape)):
        if i != 1 and sa != sb:
            raise ShapeError(
                f"concat_channels axis {i} mismatch: {a.data.shape} vs {b.data.shape}"
            )
    ca = a.data.shape[1]
    out = np.concatenate([a.data, b.data], axis=1)

    def bw(g):
        _accum(a, g[:, :ca])
        _accum(b, g[:, ca:])

    return _from_op(out, (a, b), bw)


def tile2d(a, reps_h, reps_w):
    """Tile the last two axes (block repetition, so index i maps to i % h)."""
    if a.data.ndim < 2:
        raise ShapeError("tile2d expects rank >= 2")
    reps = (1,) * (a.data.ndim - 2) + (int(reps_h), int(reps_w))
    out = np.tile(a.data, reps)
    lead = a.data.shape[:-2]
    h, w = a.data.shape[-2:]

    def bw(g):
        gv = g.reshape(lead + (reps_h, h, reps_w, w))
        _accum(a, gv.sum(axis=(len(lead), len(lead) + 2)))

    return _from_op(out, (a,), bw)


def avg_pool2(a):
    """2x2 average pooling on an NCHW tensor with even spatial extents."""
    if a.data.ndim != 4:
        raise ShapeError("avg_pool2 expects rank 4")
    n, c, h, w = a.data.shape
    if h % 2 or w % 2:
        raise ShapeError(f"avg_pool2 needs even spatial extents, got {h}x{w}")
    out = a.data.reshape(n, c, h // 2, 2, w // 2, 2).mean(axis=(3, 5))

    def bw(g):
        gx = np.repeat(np.repeat(g, 2, axis=2), 2, axis=3) * 0.25
        _accum(a, gx)

    return _from_op(out, (a,), bw)


def nearest_up2(a):
    """2x nearest-neighbour upsampling on an NCHW tensor."""
    if a.data.ndim != 4:
        raise ShapeError("nearest_up2 expects rank 4")
    n, c, h, w = a.data.shape
    out = np.repeat(np.repeat(a.data, 2, axis=2), 2, axis=3)

    def bw(g):
        _accum(a, g.reshape(n, c, h, 2, w, 2).sum(axis=(3, 5)))

    return _from_op(out, (a,), bw)


# ---------------------------------------------------------------------------
# convolution

def conv2d(x, weight, bias=None):
    """Stride-1 cross-correlation with same padding (pad = k // 2).

    x: (n, ci, h, w); weight: (co, ci, k, k); bias: (co,) or None.
    """
    if x.data.ndim != 4:
        raise ShapeError(f"conv2d input must be rank 4, got rank {x.data.ndim}")
    if weight.data.ndim != 4:
        raise ShapeError("conv2d weight must be rank 4")
    if x.data.shape[1] != weight.data.shape[1]:
        raise ShapeError(
            f"conv2d channel mismatch: input has {x.data.shape[1]}, "
            f"weight expects {weight.data.shape[1]}"
        )
    k = weight.data.shape[2]
    if k != weight.data.shape[3] or k % 2 == 0:
        raise ShapeError("conv2d kernels must be square with odd extent")
    out = backend.conv2d_forward(x.data, weight.data)
    parents = [x, weight]
    if bias is not None:
        out = out + bias.data.reshape(1, -1, 1, 1)
        parents.append(bias)

    def bw(g):
        g = np.ascontiguousarray(g)
        _accum(x, backend.conv2d_grad_input(g, weight.data))
        _accum(weight, backend.conv2d_grad_weight(x.data, g, k))
        if bias is not None:
            _accum(bias, g.sum(axis=(0, 2, 3)))

    return _from_op(out, tuple(parents), bw)


# ---------------------------------------------------------------------------
# resampling

def _cubic_weight(d):
    # Catmull-Rom (a = -0.5)
    d = abs(d)
    if d <= 1.0:
        return (1.5 * d - 2.5) * d * d + 1.0
    if d < 2.0:
        return ((-0.5 * d + 2.5) * d - 4.0) * d + 2.0
    return 0.0


@lru_cache(maxsize=None)
def _bicubic_matrix(n_in, factor):
    """Interpolation matrix (n_in*factor, n_in), half-pixel centres,
    edge-clamped taps. Rows sum to 1 exactly in exact arithmetic, and the
    entries are dyadic rationals when factor is a power of two."""
    a = np.zeros((n_in * factor, n_in), dtype=np.float64)
    for o in range(n_in * factor):
        x = (o + 0.5) / factor - 0.5
        base = int(np.floor(x))
        t = x - base
        for m in (-1, 0, 1, 2):
            idx = min(max(base + m, 0), n_in - 1)
            a[o, idx] += _cubic_weight(t - m)
    return a


def bicubic_upsample(x, factor):
    """Separable bicubic upsampling of the last two axes by an integer factor."""
    factor = int(factor)
    if factor < 1:
        raise ShapeError(f"upsample factor must be >= 1, got {factor}")
    if x.data.ndim < 2:
        raise ShapeError("bicubic_upsample expects rank >= 2")
    if factor == 1:
        return reshape(x, x.data.shape)
    h, w = x.data.shape[-2:]
    ah = _bicubic_matrix(h, factor).astype(x.data.dtype)
    aw = _bicubic_matrix(w, factor).astype(x.data.dtype)
    out = np.einsum("ih,...hw->...iw", ah, x.data)
    out = np.einsum("jw,...iw->...ij", aw, out)

    def bw(g):
        gx = np.einsum("jw,...ij->...iw", aw, g)
        gx = np.einsum("ih,...iw->...hw", ah, gx)
        _accum(x, gx)

    return _from_op(out, (x,), bw)


def box_filter(x, window):
    """Mean filter over a window x window neighbourhood of the last two axes,
    replicate-padded so the output has the input's extent. The window sum is
    accumulated first and divided once, so flat regions stay exactly flat for
    values with short mantissas."""
    k = int(window)
    if k < 1 or k % 2 == 0:
        raise ShapeError(f"box_filter window must be odd and positive, got {window}")
    if x.data.ndim < 2:
        raise ShapeError("box_filter expects rank >= 2")
    if k == 1:
        return reshape(x, x.data.shape)
    p = k // 2
    h, w = x.data.shape[-2:]
    pad = [(0, 0)] * (x.data.ndim - 2) + [(p, p), (p, p)]
    xe = np.pad(x.data, pad, mode="edge")
    s = np.zeros_like(x.data)
    for u in range(k):
        for v in range(k):
            s += xe[..., u : u + h, v : v + w]
    out = s / float(k * k)

    def bw(g):
        gs = g / float(k * k)
        gxe = np.zeros(xe.shape, dtype=g.dtype)
        for u in range(k):
            for v in range(k):
                gxe[..., u : u + h, v : v + w] += gs
        _accum(x, _fold_edge_pad(gxe, p))

    return _from_op(out, (x,), bw)


def _fold_edge_pad(g, p):
    """Adjoint of np.pad(mode='edge') over the last two axes."""
    core = g[..., p:-p, :].copy()
    core[..., 0, :] += g[..., :p, :].sum(axis=-2)
    core[..., -1, :] += g[..., -p:, :].sum(axis=-2)
    g = core
    core = g[..., :, p:-p].copy()
    core[..., :, 0] += g[..., :, :p].sum(axis=-1)
    core[..., :, -1] += g[..., :, -p:].sum(axis=-1)
    return core


# ---------------------------------------------------------------------------
# parameters and layers

def parameter(name, value):
    """A named trainable leaf tensor with a zero-initialised gradient buffer."""
    t = Tensor(value, requires_grad=True, name=name)
    t.grad = np.zeros_like(t.data)
    return t


def parameters(obj):
    """Every trainable tensor reachable from obj through attributes, lists
    and tuples, in definition order."""
    if isinstance(obj, Tensor):
        return [obj] if obj.requires_grad else []
    if isinstance(obj, (list, tuple)):
        items = obj
    else:
        items = getattr(obj, "__dict__", {}).values()
    return [p for item in items for p in parameters(item)]


def kaiming_normal(rng, shape, fan_in, dtype):
    std = np.sqrt(2.0 / fan_in)
    return rng.normal(0.0, std, size=shape).astype(dtype)


class ConvLayer:
    """Square odd-kernel convolution layer with bias, Kaiming-initialised."""

    def __init__(self, name, in_channels, out_channels, kernel_size, rng,
                 dtype=np.float32):
        k = int(kernel_size)
        if k < 1 or k % 2 == 0:
            raise ShapeError(f"kernel size must be odd, got {kernel_size}")
        self.name = name
        self.in_channels = int(in_channels)
        self.out_channels = int(out_channels)
        self.kernel_size = k
        fan_in = self.in_channels * k * k
        self.weight = parameter(
            name + ".weight",
            kaiming_normal(rng, (self.out_channels, self.in_channels, k, k),
                           fan_in, dtype),
        )
        self.bias = parameter(name + ".bias", np.zeros(self.out_channels, dtype))

    def __call__(self, x):
        if x.data.shape[1] != self.in_channels:
            raise ShapeError(
                f"{self.name}: expected {self.in_channels} input channels, "
                f"got {x.data.shape[1]}"
            )
        return conv2d(x, self.weight, self.bias)
