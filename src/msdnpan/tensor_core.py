"""Dense float tensors with reverse-mode automatic differentiation.

A Tensor wraps a numpy array. Operations record their inputs and a
backward closure on the output; ``backward(loss, leaves)`` replays the tape
in reverse topological order and returns the leaves' gradients. Each
closure returns one gradient (or None) per input, which ``backward`` sums
out of place in a dict local to the call: no Tensor holds gradient state,
so threads may back-propagate separate graphs that share parameters.
Returned gradients may be views shared with the tape or with each other,
so callers treat them as read-only. The tape is dynamic: every forward
call builds a fresh graph, so Python's GC reclaims old graphs once the loss
goes out of scope. A forward op computes only its output; anything its
backward needs (a relu or prelu mask, say) the closure derives from the
inputs when it runs, so a forward pass over frozen tensors records and
keeps nothing.

Only what the models need is implemented: elementwise arithmetic with numpy
broadcasting, a handful of activations, stride-1 same-padded convolution,
separable bicubic upsampling, pooling, reshape, a product with periodically
repeated tiles, and sum/mean/max reductions. float32 and float64 are
supported; gradients take the dtype of the data they belong to. Fixed
operators that nothing trains (box filtering, the classic baselines, the
metrics) work on plain ndarrays outside this module.

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

    __slots__ = ("data", "requires_grad", "name", "_prev", "_backward")

    def __init__(self, data, requires_grad=False, dtype=None, name=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in _FLOAT_TYPES:
            arr = arr.astype(np.float64)
        self.data = arr
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
        return scale(self, -1.0)

    def sum(self, axis=None, keepdims=False):
        return reduce_sum(self, axis, keepdims)

    def mean(self, axis=None, keepdims=False):
        return reduce_mean(self, axis, keepdims)

    def max(self, axis=None, keepdims=False):
        return reduce_max(self, axis, keepdims)

    def reshape(self, shape):
        return reshape(self, shape)


def _as_tensor(x, dtype):
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=dtype))


def _from_op(data, parents, bw):
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._prev = tuple(parents)
        out._backward = bw
    return out


def _unbroadcast(g, shape):
    """Sum g down to `shape`, undoing numpy broadcasting."""
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def backward(root, leaves):
    """Gradients of the scalar root with respect to each of leaves.

    Returns a list parallel to leaves: each one's gradient, in its dtype,
    or None where the graph does not reach it (or it requires no grad).
    Nothing is written to any Tensor, and a returned array may be a view
    shared with another gradient or with the tape, so callers must treat
    it as read-only."""
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
    wanted = {id(t) for t in leaves}
    grads = {id(root): np.ones_like(root.data)}
    for node in reversed(order):
        if node._backward is None:
            continue
        # an intermediate's gradient is dropped once its closure has run
        key = id(node)
        g = grads.get(key) if key in wanted else grads.pop(key, None)
        if g is None:
            continue
        for parent, pg in zip(node._prev, node._backward(g)):
            if pg is None or not parent.requires_grad:
                continue
            # out of place: the same array may reach several parents
            pg = np.asarray(pg, dtype=parent.data.dtype)
            seen_g = grads.get(id(parent))
            grads[id(parent)] = pg if seen_g is None else seen_g + pg
    return [grads.get(id(t)) for t in leaves]


# ---------------------------------------------------------------------------
# elementwise ops

def add(a, b):
    out = a.data + b.data

    def bw(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

    return _from_op(out, (a, b), bw)


def sub(a, b):
    out = a.data - b.data

    def bw(g):
        return _unbroadcast(g, a.data.shape), -_unbroadcast(g, b.data.shape)

    return _from_op(out, (a, b), bw)


def mul(a, b):
    out = a.data * b.data

    def bw(g):
        return (_unbroadcast(g * b.data, a.data.shape),
                _unbroadcast(g * a.data, b.data.shape))

    return _from_op(out, (a, b), bw)


def div(a, b):
    out = a.data / b.data

    def bw(g):
        return (_unbroadcast(g / b.data, a.data.shape),
                _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape))

    return _from_op(out, (a, b), bw)


def scale(a, factor):
    factor = float(factor)
    out = a.data * factor

    def bw(g):
        return (g * factor,)

    return _from_op(out, (a,), bw)


def absolute(a):
    def bw(g):
        return (g * np.sign(a.data),)

    return _from_op(np.abs(a.data), (a,), bw)


def exp(a):
    out = np.exp(a.data)

    def bw(g):
        return (g * out,)

    return _from_op(out, (a,), bw)


def log(a):
    def bw(g):
        return (g / a.data,)

    return _from_op(np.log(a.data), (a,), bw)


def relu(a):
    def bw(g):
        return (g * (a.data > 0),)

    return _from_op(np.maximum(a.data, 0), (a,), bw)


def sigmoid(a):
    # exp(-|x|) cannot overflow; the mask picks numerator 1 (x >= 0) or e
    pos = a.data >= 0
    e = np.exp(-np.abs(a.data))
    out = (pos + e * ~pos) / (1 + e)

    def bw(g):
        return (g * out * (1.0 - out),)

    return _from_op(out, (a,), bw)


def prelu(a, slope):
    """Parametric ReLU with a per-channel slope vector (length a.shape[1],
    broadcast over batch and space)."""
    channels = a.data.shape[1] if a.data.ndim > 1 else 0
    if slope.data.shape != (channels,):
        raise ShapeError(f"slope of shape {slope.data.shape} is not one value "
                         f"per channel of an input with {channels} channels")
    sl = slope.data.reshape((1, -1) + (1,) * (a.data.ndim - 2))
    reduce_axes = tuple(i for i in range(a.data.ndim) if i != 1)
    # x * slope where x <= 0, else x: branch-free, and exact because one of
    # the two terms is always zero
    out = np.minimum(a.data, 0) * sl
    out += np.maximum(a.data, 0)

    def bw(g):
        pos = a.data > 0
        return (g * (pos + sl * ~pos),
                (g * np.minimum(a.data, 0)).sum(axis=reduce_axes))

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
        return (_expand_grad(g, a.data.shape, axes, keepdims),)

    return _from_op(out, (a,), bw)


def reduce_mean(a, axis=None, keepdims=False):
    axes = _norm_axes(axis, a.data.ndim)
    count = 1
    for ax in axes:
        count *= a.data.shape[ax]
    out = a.data.mean(axis=axes, keepdims=keepdims)

    def bw(g):
        return (_expand_grad(g, a.data.shape, axes, keepdims) / count,)

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
        return (ge * mask / count,)

    return _from_op(out, (a,), bw)


# ---------------------------------------------------------------------------
# shape ops

def reshape(a, shape):
    shape = tuple(shape)
    out = a.data.reshape(shape)

    def bw(g):
        return (g.reshape(a.data.shape),)

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
        return g[:, :ca], g[:, ca:]

    return _from_op(out, (a, b), bw)


def tile_mul(q, tiles):
    """q (n, N, H, W) times tile i of tiles (N, th, tw), repeated over plane
    i (index (y, x) reads the tile at (y % th, x % tw)).

    Only one row of tiles, (N, th, W), is built; it broadcasts over q's
    H/th bands, so no (N, H, W) plane exists in either pass.
    """
    if q.data.ndim != 4 or tiles.data.ndim != 3:
        raise ShapeError(f"tile_mul expects (n, N, H, W) and (N, th, tw), "
                         f"got {q.data.shape} and {tiles.data.shape}")
    n, slots, h, w = q.data.shape
    th, tw = tiles.data.shape[1:]
    if tiles.data.shape[0] != slots or h % th or w % tw:
        raise ShapeError(f"tile_mul: {tiles.data.shape} tiles do not tile "
                         f"the planes of {q.data.shape}")
    row = np.tile(tiles.data, (1, 1, w // tw)).reshape(1, slots, 1, th, w)
    bands = (n, slots, h // th, th, w)
    out = (q.data.reshape(bands) * row).reshape(q.data.shape)

    def bw(g):
        gq = (g.reshape(bands) * row).reshape(q.data.shape)
        # the tiled-plane order: sum the batch, then every repeat of a tile
        gt = (g * q.data).sum(axis=0).reshape(
            slots, h // th, th, w // tw, tw).sum(axis=(1, 3))
        return gq, gt

    return _from_op(out, (q, tiles), bw)


def avg_pool2(a):
    """2x2 average pooling on an NCHW tensor with even spatial extents."""
    if a.data.ndim != 4:
        raise ShapeError("avg_pool2 expects rank 4")
    h, w = a.data.shape[2:]
    if h % 2 or w % 2:
        raise ShapeError(f"avg_pool2 needs even spatial extents, got {h}x{w}")
    # (x00 + x01) + (x10 + x11), the order numpy's mean over each 2x2 block
    # sums in, from two strided adds: that strided reduction is over 10x slower
    cols = a.data[..., 0::2] + a.data[..., 1::2]
    out = cols[:, :, 0::2] + cols[:, :, 1::2]
    out /= 4

    def bw(g):
        return (np.repeat(np.repeat(g, 2, axis=2), 2, axis=3) * 0.25,)

    return _from_op(out, (a,), bw)


def nearest_up2(a):
    """2x nearest-neighbour upsampling on an NCHW tensor."""
    if a.data.ndim != 4:
        raise ShapeError("nearest_up2 expects rank 4")
    n, c, h, w = a.data.shape
    out = np.repeat(np.repeat(a.data, 2, axis=2), 2, axis=3)

    def bw(g):
        return (g.reshape(n, c, h, 2, w, 2).sum(axis=(3, 5)),)

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
        out += bias.data.reshape(1, -1, 1, 1)
        parents.append(bias)

    def bw(g):
        g = np.ascontiguousarray(g)
        gx = (backend.conv2d_grad_input(g, weight.data) if x.requires_grad
              else None)
        gw = backend.conv2d_grad_weight(x.data, g, k)
        return (gx, gw) if bias is None else (gx, gw, g.sum(axis=(0, 2, 3)))

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
    # allocate the output first: one too large fails (MemoryError) before
    # the interpolation matrices' Python loops run
    out = np.empty(x.data.shape[:-2] + (h * factor, w * factor), x.data.dtype)
    ah = _bicubic_matrix(h, factor).astype(x.data.dtype)
    aw = _bicubic_matrix(w, factor).astype(x.data.dtype)
    np.matmul(ah @ x.data, aw.T, out=out)

    def bw(g):
        return (ah.T @ (g @ aw),)

    return _from_op(out, (x,), bw)


# ---------------------------------------------------------------------------
# parameters and layers

def parameter(name, value):
    """A named trainable leaf tensor."""
    return Tensor(value, requires_grad=True, name=name)


def parameters(obj):
    """Every trainable tensor reachable from obj through attributes, lists
    and tuples, in definition order. A frozen tensor (requires_grad False)
    is not listed, so a model frozen for inference has no parameters()."""
    if isinstance(obj, Tensor):
        return [obj] if obj.requires_grad else []
    if isinstance(obj, (list, tuple)):
        items = obj
    else:
        items = getattr(obj, "__dict__", {}).values()
    return [p for item in items for p in parameters(item)]


def kaiming_normal(rng, shape, fan_in, dtype):
    """He-normal initial values; zeros when rng is None, for a model whose
    values are about to be overwritten (a loaded checkpoint)."""
    if rng is None:
        return np.zeros(shape, dtype)
    std = np.sqrt(2.0 / fan_in)
    return rng.normal(0.0, std, size=shape).astype(dtype)


class ConvLayer:
    """Square odd-kernel convolution layer with bias, Kaiming-initialised."""

    def __init__(self, name, in_channels, out_channels, kernel_size, rng,
                 dtype=np.float32):
        k = kernel_size
        self.weight = parameter(
            name + ".weight",
            kaiming_normal(rng, (out_channels, in_channels, k, k),
                           in_channels * k * k, dtype),
        )
        self.bias = parameter(name + ".bias", np.zeros(out_channels, dtype))

    def __call__(self, x):
        # conv2d checks the kernel extent and the input channels
        return conv2d(x, self.weight, self.bias)
