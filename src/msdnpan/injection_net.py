"""Detail injection: head encoder, U-shaped NIN, and the full sharpening model.

The head lifts the 4-band MS image into feature space at MS resolution.
Those features are bicubically upsampled and fed to the detail network,
whose single-plane output the NIN turns into a 4-band injection residual.
The sharpened product is bicubic(MS) + residual, so inference needs the MS
image only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .msdn import MsdnWeights, msdn_forward
from .tensor_core import (
    ConvLayer, avg_pool2, bicubic_upsample, concat_channels, nearest_up2,
    parameter, parameters, prelu, relu,
)

BANDS = 4


@dataclass
class ModelConfig:
    scale: int = 4              # s, MS-to-PAN resolution ratio
    channels: int = 32          # C, feature width
    memory_slots: int = 64      # N, memory bank size
    head_blocks: int = 4
    nin_depth: int = 3
    spatial_kernel: int = 7     # spatial-attention conv extent
    reduction: int = 4          # channel-attention bottleneck ratio

    def validate(self):
        if self.channels % 2:
            raise ValueError("channels must be even (negative-path convs halve them)")
        if self.head_blocks < 0:
            raise ValueError("head_blocks must be >= 0")
        if self.nin_depth < 1:
            raise ValueError("nin_depth must be >= 1")
        if self.memory_slots < 1:
            raise ValueError("memory_slots must be >= 1")
        if self.scale < 1:
            raise ValueError("scale must be >= 1")
        if self.channels < 1:               # 0 passes the even check above
            raise ValueError("channels must be >= 1")
        if self.spatial_kernel % 2 == 0 or self.spatial_kernel < 1:
            raise ValueError("spatial_kernel must be odd and positive")
        if self.reduction < 1:
            raise ValueError("reduction must be >= 1")
        return self


class HeadWeights:
    """Stem conv plus a chain of two-conv residual blocks."""

    def __init__(self, config, rng, dtype=np.float32, name="head"):
        c = config.channels
        self.stem = ConvLayer(name + ".stem", BANDS, c, 3, rng, dtype)
        self.blocks = []
        for i in range(config.head_blocks):
            self.blocks.append((
                ConvLayer(f"{name}.block{i}.conv1", c, c, 3, rng, dtype),
                ConvLayer(f"{name}.block{i}.conv2", c, c, 3, rng, dtype),
            ))


def head(ms, weights):
    """Encode a (n, 4, h, w) MS image into (n, C, h, w) features."""
    if ms.ndim != 4 or ms.shape[1] != BANDS:
        raise ShapeError(f"head expects (n, {BANDS}, h, w), got {ms.shape}")
    feat = relu(weights.stem(ms))
    for c1, c2 in weights.blocks:
        feat = feat + c2(relu(c1(feat)))
    return feat


class InjectionBlockWeights:
    """One NIN block: separate convs for the positive and negative signal
    parts, a fusion conv, and a residual connection."""

    def __init__(self, name, channels, rng, dtype=np.float32):
        if channels % 2:
            raise ShapeError(f"injection block needs even channels, got {channels}")
        c = channels
        self.slope_pos = parameter(
            name + ".slope_pos", np.full(c, 0.25, dtype=dtype))
        self.slope_neg = parameter(
            name + ".slope_neg", np.full(c, 0.25, dtype=dtype))
        self.conv_pos = ConvLayer(name + ".conv_pos", c, c // 2, 3, rng, dtype)
        self.conv_neg = ConvLayer(name + ".conv_neg", c, c // 2, 3, rng, dtype)
        self.fuse = ConvLayer(name + ".fuse", c, c, 3, rng, dtype)


def injection_block(y, block):
    """x_p from prelu(y), x_n from prelu(-y), fused and added back to y."""
    xp = block.conv_pos(prelu(y, block.slope_pos))
    xn = block.conv_neg(prelu(-y, block.slope_neg))
    return block.fuse(concat_channels(xp, xn)) + y


class NinWeights:
    """Embedding conv, encoder/decoder injection blocks, output projection."""

    def __init__(self, config, rng, dtype=np.float32, name="nin"):
        c, d = config.channels, config.nin_depth
        self.depth = d
        self.embed = ConvLayer(name + ".embed", 1, c, 3, rng, dtype)
        self.encoder = [
            InjectionBlockWeights(f"{name}.enc{i}", c, rng, dtype)
            for i in range(d)
        ]
        self.decoder = [
            InjectionBlockWeights(f"{name}.dec{i}", c, rng, dtype)
            for i in range(d - 1)
        ]
        self.project = ConvLayer(name + ".project", c, BANDS, 1, rng, dtype)


def nin_forward(details, weights):
    """Turn a (n, 1, H, W) detail plane into a (n, 4, H, W) residual.

    Encoder blocks run at successively halved resolution; decoder blocks
    upsample back with additive skips. Depth 1 degenerates to a single
    block at full resolution.
    """
    if details.ndim != 4 or details.shape[1] != 1:
        raise ShapeError(f"nin expects (n, 1, h, w), got {details.shape}")
    d = weights.depth
    div = 1 << (d - 1)
    _, _, h, w = details.shape
    if h % div or w % div:
        raise ShapeError(
            f"spatial extents {h}x{w} must be multiples of {div} for depth {d}")
    embedded = weights.embed(details)
    skips = []
    feat = embedded
    for level, blk in enumerate(weights.encoder):
        if level:
            feat = avg_pool2(feat)
        feat = injection_block(feat, blk)
        skips.append(feat)
    feat = skips[-1]
    for blk, skip in zip(weights.decoder, reversed(skips[:-1])):
        feat = injection_block(nearest_up2(feat) + skip, blk)
    return weights.project(embedded + feat)


class PansharpenModel:
    """Head + detail network + NIN with a flat, uniquely named parameter map."""

    def __init__(self, config, rng, dtype=np.float32):
        config.validate()
        self.config = config
        self.head = HeadWeights(config, rng, dtype)
        self.msdn = MsdnWeights(config, rng, dtype)
        self.nin = NinWeights(config, rng, dtype)
        names = [p.name for p in self.parameters()]
        if len(names) != len(set(names)):
            raise ValueError("duplicate parameter names in model")

    def parameters(self):
        return parameters([self.head, self.msdn, self.nin])

    def named_parameters(self):
        return {p.name: p for p in self.parameters()}

    def zero_grad(self):
        for p in self.parameters():
            p.zero_grad()


def pansharpen_with_details(ms, model):
    """Full forward pass. Returns (sharpened, detail plane, coefficient map)."""
    cfg = model.config
    if ms.ndim != 4 or ms.shape[1] != BANDS:
        raise ShapeError(f"pansharpen expects (n, {BANDS}, h, w), got {ms.shape}")
    if ms.shape[2] < 4 or ms.shape[3] < 4:
        raise ShapeError(f"MS patches must be at least 4x4, got {ms.shape[2:]}")
    feat = head(ms, model.head)
    feat_up = bicubic_upsample(feat, cfg.scale)
    details, coeff = msdn_forward(feat_up, model.msdn)
    residual = nin_forward(details, model.nin)
    return bicubic_upsample(ms, cfg.scale) + residual, details, coeff


def pansharpen(ms, model):
    """Sharpened (n, 4, s*h, s*w) product from a (n, 4, h, w) MS image."""
    return pansharpen_with_details(ms, model)[0]
