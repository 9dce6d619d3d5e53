"""Dense float tensors with reverse-mode automatic differentiation.

A Tensor wraps a numpy array and, if it takes part in differentiation,
a graph node. Each op that has a differentiable input gives its output a
node that holds its inputs' nodes, their dtypes and a backward closure;
``backward(loss, leaves)`` replays the nodes in reverse topological order
and returns the leaves' gradients. Each closure returns one gradient (or
None) per input, which ``backward`` sums out of place in a dict local to
the call: no Tensor or node holds gradient state, so threads may
back-propagate separate graphs that share parameters. Returned gradients
may be views shared with the tape or with each other, so callers treat
them as read-only. The tape is dynamic: every forward call builds a fresh
graph, so Python's GC reclaims old graphs once the loss goes out of scope.

A node never holds a Tensor, and each closure captures exactly the arrays
its backward reads, or a recipe for them: its inputs for mul, conv2d or
log, its output for exp, sigmoid or a convolution with a fused relu, only
shapes for add, reshape or pooling. A recipe is a function that rebuilds
an op's output by the op's own numpy expression, in the same order, so
the rebuilt array is bit-equal to the forward one. A taped output of
prelu, mul or tile_mul carries one built from arrays the op's backward
holds anyway, and one of scale or bicubic_upsample a recipe that holds the
op's input (for the upsample, 1/16 the size) while the output Tensor
lives. The two ops that read an input in backward, conv2d (for its weight
gradient) and prelu, keep that input's recipe where it has one, in place
of its array, and call it when their backward runs. An intermediate that
the model code drops is therefore freed unless some backward reads it and
nothing rebuilds it. A forward op computes only its output (a relu or
prelu mask, say, is derived when backward runs), so a forward pass over
frozen tensors records and keeps nothing, recipes included.

Relu exists only as a convolution epilogue: the backend adds the bias and
takes max(., 0) as it writes each band of the output, so no pre-activation
plane is ever built. While no tape records, two ops write over an input
their caller gives up: `tile_mul` writes over q, and a 1x1 `conv2d` asked
to overwrite writes over x, in column blocks. Under a tape both leave
their inputs alone.

Only what the models need is implemented: elementwise arithmetic with numpy
broadcasting, sigmoid and prelu, stride-1 same-padded convolution,
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


class _Node:
    """A tape entry: the input nodes (None where an input needs no
    gradient), their dtypes and the backward closure. A leaf has no inputs
    and no closure."""

    __slots__ = ("parents", "dtypes", "backward")

    def __init__(self, parents=(), dtypes=(), backward=None):
        self.parents = parents
        self.dtypes = dtypes
        self.backward = backward


class Tensor:
    """A dense array plus its graph node (None when it needs no gradient)
    and, for some taped op outputs, a recipe that rebuilds the array."""

    __slots__ = ("data", "name", "_node", "_recipe")

    def __init__(self, data, requires_grad=False, dtype=None, name=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in _FLOAT_TYPES:
            arr = arr.astype(np.float64)
        self.data = arr
        self.name = name
        self._node = _Node() if requires_grad else None
        self._recipe = None

    @property
    def requires_grad(self):
        return self._node is not None

    @requires_grad.setter
    def requires_grad(self, flag):
        # freezing drops the node; graphs recorded before keep their own
        if not flag:
            self._node = None
        elif self._node is None:
            self._node = _Node()

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


def _from_op(data, parents, bw, recipe=None):
    out = Tensor(data)
    nodes = tuple(p._node for p in parents)
    if any(n is not None for n in nodes):
        out._node = _Node(nodes, tuple(p.data.dtype for p in parents), bw)
        out._recipe = recipe
    return out


def _keep(t):
    """What a backward closure holds to read t's array: t's recipe where it
    has one, else a function that returns the array."""
    if t._recipe is not None:
        return t._recipe
    data = t.data
    return lambda: data


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
    if root._node is None:      # nothing was recorded
        return [None] * len(leaves)
    order = []
    seen = set()
    stack = [(root._node, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if p is not None and id(p) not in seen:
                stack.append((p, False))
    wanted = {id(t._node) for t in leaves}
    grads = {id(root._node): np.ones_like(root.data)}
    for node in reversed(order):
        if node.backward is None:
            continue
        # an intermediate's gradient is dropped once its closure has run;
        # the closure's argument is then its only reference (no loop
        # variable still holds the last one), so a closure that rebinds it,
        # as a fused relu's mask does, frees it
        key = id(node)
        if grads.get(key) is None:
            continue
        pgs = node.backward(grads[key] if key in wanted else grads.pop(key))
        for parent, dtype, pg in zip(node.parents, node.dtypes, pgs):
            if pg is None or parent is None:
                continue
            # out of place: the same array may reach several parents
            pg = np.asarray(pg, dtype=dtype)
            seen_g = grads.get(id(parent))
            grads[id(parent)] = pg if seen_g is None else seen_g + pg
        pgs = pg = seen_g = None
    return [grads.get(id(t._node)) for t in leaves]


# ---------------------------------------------------------------------------
# elementwise ops

def add(a, b):
    out = a.data + b.data
    sa, sb = a.data.shape, b.data.shape

    def bw(g):
        return _unbroadcast(g, sa), _unbroadcast(g, sb)

    return _from_op(out, (a, b), bw)


def sub(a, b):
    out = a.data - b.data
    sa, sb = a.data.shape, b.data.shape

    def bw(g):
        return _unbroadcast(g, sa), -_unbroadcast(g, sb)

    return _from_op(out, (a, b), bw)


def mul(a, b):
    x, y = a.data, b.data

    def bw(g):
        return _unbroadcast(g * y, x.shape), _unbroadcast(g * x, y.shape)

    return _from_op(x * y, (a, b), bw, lambda: x * y)


def div(a, b):
    x, y = a.data, b.data
    out = x / y

    def bw(g):
        return (_unbroadcast(g / y, x.shape),
                _unbroadcast(-g * x / (y * y), y.shape))

    return _from_op(out, (a, b), bw)


def scale(a, factor):
    factor = float(factor)
    x = a.data

    def bw(g):
        return (g * factor,)

    return _from_op(x * factor, (a,), bw, lambda: x * factor)


def absolute(a):
    x = a.data

    def bw(g):
        return (g * np.sign(x),)

    return _from_op(np.abs(x), (a,), bw)


def exp(a):
    out = np.exp(a.data)

    def bw(g):
        return (g * out,)

    return _from_op(out, (a,), bw)


def log(a):
    x = a.data

    def bw(g):
        return (g / x,)

    return _from_op(np.log(x), (a,), bw)


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
    ndim = a.data.ndim
    sl = slope.data.reshape((1, -1) + (1,) * (ndim - 2))
    reduce_axes = tuple(i for i in range(ndim) if i != 1)
    step = max(1, backend.BAND_BYTES * channels // max(1, a.data.nbytes))
    keep_x = _keep(a)

    def forward(x):
        # x * slope where x <= 0, else x: branch-free, and exact because one
        # of the two terms is always zero. The second term is added in
        # channel blocks of about backend.BAND_BYTES, so only a block of it
        # is live
        out = np.minimum(x, 0).astype(np.result_type(x, sl), copy=False)
        out *= sl
        for c in range(0, channels, step):
            out[:, c:c + step] += np.maximum(x[:, c:c + step], 0)
        return out

    def bw(g):
        x = keep_x()
        pos = x > 0
        return (g * (pos + sl * ~pos),
                (g * np.minimum(x, 0)).sum(axis=reduce_axes))

    return _from_op(forward(a.data), (a, slope), bw,
                    lambda: forward(keep_x()))


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
    shape = a.data.shape

    def bw(g):
        return (_expand_grad(g, shape, axes, keepdims),)

    return _from_op(out, (a,), bw)


def reduce_mean(a, axis=None, keepdims=False):
    axes = _norm_axes(axis, a.data.ndim)
    count = 1
    for ax in axes:
        count *= a.data.shape[ax]
    out = a.data.mean(axis=axes, keepdims=keepdims)
    shape = a.data.shape

    def bw(g):
        return (_expand_grad(g, shape, axes, keepdims) / count,)

    return _from_op(out, (a,), bw)


def reduce_max(a, axis=None, keepdims=False):
    """Max reduction; on ties the gradient is split evenly among the maxima."""
    x = a.data
    axes = _norm_axes(axis, x.ndim)
    full = x.max(axis=axes, keepdims=True)
    out = full if keepdims else full.reshape(
        tuple(s for i, s in enumerate(x.shape) if i not in axes)
    )

    def bw(g):
        mask = x == full
        count = mask.sum(axis=axes, keepdims=True)
        ge = _expand_grad(g, x.shape, axes, keepdims)
        return (ge * mask / count,)

    return _from_op(out, (a,), bw)


# ---------------------------------------------------------------------------
# shape ops

def reshape(a, shape):
    shape = tuple(shape)
    out = a.data.reshape(shape)
    before = a.data.shape

    def bw(g):
        return (g.reshape(before),)

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
    H/th bands, so no (N, H, W) plane exists in either pass. The caller
    gives q up: while no tape records (neither input requires grad), the
    product is written over q's array when it has q's dtype.
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
    x = q.data
    xb = x.reshape(bands)

    def product():
        return (xb * row).reshape(x.shape)

    if (q.requires_grad or tiles.requires_grad
            or np.result_type(x, row) != x.dtype):
        out = product()
    else:   # no tape records: the product goes over q's array
        out = np.multiply(xb, row, out=xb).reshape(x.shape)

    def bw(g):
        gq = (g.reshape(bands) * row).reshape(x.shape)
        # the tiled-plane order: sum the batch, then every repeat of a tile
        gt = (g * x).sum(axis=0).reshape(
            slots, h // th, th, w // tw, tw).sum(axis=(1, 3))
        return gq, gt

    return _from_op(out, (q, tiles), bw, product)


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
        # columns, then rows: the same sums, in the same order, as
        # g.reshape(n, c, h, 2, w, 2).sum(axis=(3, 5)), without its
        # strided reduction
        cols = g[..., 0::2] + g[..., 1::2]
        return (cols[:, :, 0::2] + cols[:, :, 1::2],)

    return _from_op(out, (a,), bw)


# ---------------------------------------------------------------------------
# convolution

def conv2d(x, weight, bias=None, relu=False, overwrite=False):
    """Stride-1 cross-correlation with same padding (pad = k // 2).

    x: (n, ci, h, w); weight: (co, ci, k, k); bias: (co,) or None. With
    relu the output is max(conv + bias, 0), applied as the backend writes
    it, and the backward masks its gradient by that kept output. With
    overwrite the caller gives x up: while no tape records, a 1x1
    convolution with co == ci writes its output over x's array.
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
    parents = (x, weight) if bias is None else (x, weight, bias)
    overwrite = overwrite and not any(p.requires_grad for p in parents)
    xd, wd = x.data, weight.data
    out = backend.conv2d_forward(xd, wd, None if bias is None else bias.data,
                                 relu=relu, overwrite=overwrite)
    # plain values, so that the closure holds no Tensor, the input's
    # recipe where it has one, and the output only where the relu mask
    # needs it
    grad_x, has_bias = x.requires_grad, bias is not None
    keep_x = _keep(x)
    kept = out if relu else None

    def bw(g):
        if kept is not None:
            g = g * (kept > 0)
        g = np.ascontiguousarray(g)
        gx = backend.conv2d_grad_input(g, wd) if grad_x else None
        gw = backend.conv2d_grad_weight(keep_x(), g, k)
        return (gx, gw, g.sum(axis=(0, 2, 3))) if has_bias else (gx, gw)

    return _from_op(out, parents, bw)


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
    xd = x.data
    h, w = xd.shape[-2:]
    shape = xd.shape[:-2] + (h * factor, w * factor)
    # allocate the output first: one too large fails (MemoryError) before
    # the interpolation matrices' Python loops run
    out = np.empty(shape, xd.dtype)
    ah = _bicubic_matrix(h, factor).astype(xd.dtype)
    aw = _bicubic_matrix(w, factor).astype(xd.dtype)

    def upsample(buf):
        return np.matmul(ah @ xd, aw.T, out=buf)

    def bw(g):
        return (ah.T @ (g @ aw),)

    return _from_op(upsample(out), (x,), bw,
                    lambda: upsample(np.empty(shape, xd.dtype)))


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
    """Square odd-kernel convolution layer with bias, Kaiming-initialised;
    with relu, max(., 0) is fused into its output."""

    def __init__(self, name, in_channels, out_channels, kernel_size, rng,
                 dtype=np.float32, relu=False):
        k = kernel_size
        self.weight = parameter(
            name + ".weight",
            kaiming_normal(rng, (out_channels, in_channels, k, k),
                           in_channels * k * k, dtype),
        )
        self.bias = parameter(name + ".bias", np.zeros(out_channels, dtype))
        self.relu = relu

    def __call__(self, x, overwrite=False):
        # conv2d checks the kernel extent and the input channels
        return conv2d(x, self.weight, self.bias, self.relu, overwrite)
