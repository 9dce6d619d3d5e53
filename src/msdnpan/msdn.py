"""Memory-based spatial-detail network.

A bank of learned s*s detail tiles is expanded to image size, gated by a
per-pixel query encoded from upsampled MS features, decoded into a detail
map, and combined with a weighted-coefficient map so the channel sum yields
a single synthetic detail plane. At inference time this replaces any use of
a real high-resolution panchromatic input.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError
from .tensor_core import (
    ConvLayer, concat_channels, kaiming_normal, parameter, relu, reshape,
    sigmoid, tile2d,
)


class MsdnWeights:
    """All trainable pieces of the detail network, sized by a ModelConfig
    (channels, memory_slots, scale, spatial_kernel, reduction)."""

    def __init__(self, config, rng, dtype=np.float32, name="msdn"):
        self.config = config
        c, n, s = config.channels, config.memory_slots, config.scale
        # N learnable tiles of s*s pixels, stored flat as (N, s*s)
        self.memory = parameter(
            name + ".bank.items", kaiming_normal(rng, (n, s * s), s * s, dtype))
        self.query_conv = ConvLayer(name + ".query_conv", c, n, 3, rng, dtype)
        self.query_proj = ConvLayer(name + ".query_proj", n, n, 1, rng, dtype)
        self.decode_conv = ConvLayer(name + ".decode_conv", n, c, 3, rng, dtype)
        self.detail_proj = ConvLayer(name + ".detail_proj", c, c, 1, rng, dtype)
        self.spatial_conv = ConvLayer(
            name + ".spatial_conv", 2, 1, config.spatial_kernel, rng, dtype)
        self.coeff_in = ConvLayer(name + ".coeff_in", c, c, 1, rng, dtype)
        self.coeff_out = ConvLayer(name + ".coeff_out", c, c, 1, rng, dtype)
        hidden = max(c // config.reduction, 1)
        self.channel_squeeze = ConvLayer(name + ".channel_squeeze", c, hidden, 1,
                                         rng, dtype)
        self.channel_excite = ConvLayer(name + ".channel_excite", hidden, c, 1,
                                        rng, dtype)


def expand_memory(memory, scale, height, width):
    """Tile every memory item periodically over a height x width plane.

    memory is the (N, scale*scale) bank of flat tiles. Returns a rank-3
    tensor (N, height, width). Extents must be multiples of scale.
    """
    if memory.ndim != 2 or memory.shape[1] != scale * scale:
        raise ShapeError(
            f"memory {memory.shape} does not hold {scale}x{scale} tiles")
    if height % scale or width % scale:
        raise ShapeError(
            f"plane {height}x{width} is not a multiple of the tile size {scale}")
    tiles = reshape(memory, (memory.shape[0], scale, scale))
    return tile2d(tiles, height // scale, width // scale)


def encode_query(features, weights):
    """Per-pixel memory addressing weights: 1x1 conv over relu(3x3 conv)."""
    if features.ndim != 4 or features.shape[1] != weights.config.channels:
        raise ShapeError(
            f"query encoder expects (n, {weights.config.channels}, h, w), "
            f"got {features.shape}")
    return weights.query_proj(relu(weights.query_conv(features)))


def spatial_attention(features, weights):
    """Sigmoid gate from the channel-mean and channel-max maps."""
    avg = features.mean(axis=1, keepdims=True)
    mx = features.max(axis=1, keepdims=True)
    return sigmoid(weights.spatial_conv(concat_channels(avg, mx)))


def decode_memory(expanded, query, weights):
    """Detail feature map M_D from the expanded memory and the query."""
    if expanded.ndim != 3:
        raise ShapeError("expanded memory must be rank 3 (N, h, w)")
    if query.ndim != 4 or query.shape[1] != expanded.shape[0]:
        raise ShapeError(
            f"query {query.shape} does not address {expanded.shape[0]} memory slots")
    if query.shape[2:] != expanded.shape[1:]:
        raise ShapeError(
            f"query plane {query.shape[2:]} != memory plane {expanded.shape[1:]}")
    n, h, w = expanded.shape
    addressed = reshape(expanded, (1, n, h, w)) * query
    feat = relu(weights.decode_conv(addressed))
    gated = feat * spatial_attention(feat, weights)
    return weights.detail_proj(gated)


def channel_attention(features, weights):
    """Squeeze-and-excitation gate: pooled 1x1 bottleneck, sigmoid output."""
    pooled = features.mean(axis=(2, 3), keepdims=True)
    return sigmoid(weights.channel_excite(relu(weights.channel_squeeze(pooled))))


def weighted_coefficients(features, weights):
    """Coefficient map M_C re-weighted per channel by attention."""
    if features.ndim != 4 or features.shape[1] != weights.config.channels:
        raise ShapeError(
            f"coefficient branch expects (n, {weights.config.channels}, h, w), "
            f"got {features.shape}")
    a = weights.coeff_in(features)
    return weights.coeff_out(channel_attention(a, weights) * a)


def compose_spatial_details(detail, coeff):
    """Single-plane synthetic details: channel sum of detail * coeff."""
    if detail.shape != coeff.shape:
        raise ShapeError(
            f"detail {detail.shape} and coefficient {coeff.shape} maps differ")
    return (detail * coeff).sum(axis=1, keepdims=True)


def msdn_forward(features, weights):
    """Run the full detail network.

    features: (n, C, H, W) upsampled MS features at PAN resolution.
    Returns (P_s, M_C): the (n, 1, H, W) detail plane and the coefficient map.
    """
    if features.ndim != 4:
        raise ShapeError("msdn_forward expects a rank-4 feature map")
    _, _, h, w = features.shape
    expanded = expand_memory(weights.memory, weights.config.scale, h, w)
    query = encode_query(features, weights)
    detail = decode_memory(expanded, query, weights)
    coeff = weighted_coefficients(features, weights)
    return compose_spatial_details(detail, coeff), coeff
