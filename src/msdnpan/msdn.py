"""Memory-based spatial-detail network.

A bank of learned s*s detail tiles, each repeated periodically over its
query plane (no image-sized copy of the bank is built), gates a per-pixel
query encoded from upsampled MS features. The product is decoded into a
detail map and combined with a weighted-coefficient map so the channel
sum yields a single synthetic detail plane. At inference time this
replaces any use of a real high-resolution panchromatic input.

These layers trust the shapes the model hands them; `pansharpen_with_details`
checks the MS batch once, and one validated ModelConfig sizes every weight.
"""

from __future__ import annotations

import numpy as np

from .tensor_core import (
    ConvLayer, concat_channels, kaiming_normal, parameter, relu, reshape,
    sigmoid, tile_mul,
)

SPATIAL_KERNEL = 7      # spatial-attention conv extent
REDUCTION = 4           # channel-attention bottleneck ratio


class MsdnWeights:
    """All trainable pieces of the detail network, sized by a ModelConfig
    (channels, memory_slots, scale)."""

    def __init__(self, config, rng, dtype=np.float32):
        self.config = config
        c, n, s = config.channels, config.memory_slots, config.scale
        # N learnable tiles of s*s pixels, stored flat as (N, s*s)
        self.memory = parameter(
            "msdn.bank.items", kaiming_normal(rng, (n, s * s), s * s, dtype))
        self.query_conv = ConvLayer("msdn.query_conv", c, n, 3, rng, dtype)
        self.query_proj = ConvLayer("msdn.query_proj", n, n, 1, rng, dtype)
        self.decode_conv = ConvLayer("msdn.decode_conv", n, c, 3, rng, dtype)
        self.detail_proj = ConvLayer("msdn.detail_proj", c, c, 1, rng, dtype)
        self.spatial_conv = ConvLayer(
            "msdn.spatial_conv", 2, 1, SPATIAL_KERNEL, rng, dtype)
        self.coeff_in = ConvLayer("msdn.coeff_in", c, c, 1, rng, dtype)
        self.coeff_out = ConvLayer("msdn.coeff_out", c, c, 1, rng, dtype)
        hidden = max(c // REDUCTION, 1)
        self.channel_squeeze = ConvLayer("msdn.channel_squeeze", c, hidden, 1,
                                         rng, dtype)
        self.channel_excite = ConvLayer("msdn.channel_excite", hidden, c, 1,
                                        rng, dtype)


def expand_memory(memory, scale, query):
    """Gate each query plane by its memory item, tiled periodically.

    memory is the (N, scale*scale) bank of flat tiles and query an
    (n, N, H, W) tensor whose extents are multiples of scale. Returns the
    product, (n, N, H, W); the tiled (N, H, W) plane is never built.
    """
    return tile_mul(query, reshape(memory, (memory.shape[0], scale, scale)))


def encode_query(features, weights):
    """Per-pixel memory addressing weights: 1x1 conv over relu(3x3 conv)."""
    return weights.query_proj(relu(weights.query_conv(features)))


def spatial_attention(features, weights):
    """Sigmoid gate from the channel-mean and channel-max maps."""
    avg = features.mean(axis=1, keepdims=True)
    mx = features.max(axis=1, keepdims=True)
    return sigmoid(weights.spatial_conv(concat_channels(avg, mx)))


def decode_memory(addressed, weights):
    """Detail feature map M_D from the memory-gated query."""
    feat = relu(weights.decode_conv(addressed))
    del addressed   # so a tape-free pass frees the query here
    gated = feat * spatial_attention(feat, weights)
    del feat
    return weights.detail_proj(gated)


def channel_attention(features, weights):
    """Squeeze-and-excitation gate: pooled 1x1 bottleneck, sigmoid output."""
    pooled = features.mean(axis=(2, 3), keepdims=True)
    return sigmoid(weights.channel_excite(relu(weights.channel_squeeze(pooled))))


def weighted_coefficients(features, weights):
    """Coefficient map M_C re-weighted per channel by attention."""
    a = weights.coeff_in(features)
    return weights.coeff_out(channel_attention(a, weights) * a)


def compose_spatial_details(detail, coeff):
    """Single-plane synthetic details: channel sum of detail * coeff."""
    return (detail * coeff).sum(axis=1, keepdims=True)


def msdn_forward(features, weights):
    """Run the full detail network.

    features: (n, C, H, W) upsampled MS features at PAN resolution.
    Returns P_s, the (n, 1, H, W) detail plane.
    """
    # nested, so a tape-free pass frees the query once its product exists
    detail = decode_memory(
        expand_memory(weights.memory, weights.config.scale,
                      encode_query(features, weights)),
        weights)
    coeff = weighted_coefficients(features, weights)
    return compose_spatial_details(detail, coeff)
