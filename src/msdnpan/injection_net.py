"""Detail injection: head encoder, U-shaped NIN, and the full sharpening model.

The head lifts the 4-band MS image into feature space at MS resolution.
Those features are bicubically upsampled and fed to the detail network,
whose single-plane output the NIN turns into a 4-band injection residual.
The sharpened product is bicubic(MS) + residual, so inference needs the MS
image only.

`pansharpen_with_details` is the one place that checks the MS batch (bands,
rank, size, extents for the NIN depth); the layers trust the model's shapes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .msdn import MsdnWeights, msdn_forward
from .tensor_core import (
    ConvLayer, avg_pool2, bicubic_upsample, concat_channels, nearest_up2,
    parameter, parameters, prelu,
)

BANDS = 4


@dataclass
class ModelConfig:
    scale: int = 4              # s, MS-to-PAN resolution ratio
    channels: int = 32          # C, feature width
    memory_slots: int = 64      # N, memory bank size
    head_blocks: int = 4
    nin_depth: int = 3

    def validate(self):
        for name, value in vars(self).items():      # every field is an int
            if type(value) is not int:
                raise TypeError(f"{name} must be int, got {value!r}")
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
        return self


class HeadWeights:
    """Stem conv plus a chain of two-conv residual blocks."""

    def __init__(self, config, rng, dtype=np.float32):
        c = config.channels
        self.stem = ConvLayer("head.stem", BANDS, c, 3, rng, dtype, relu=True)
        self.blocks = []
        for i in range(config.head_blocks):
            self.blocks.append((
                ConvLayer(f"head.block{i}.conv1", c, c, 3, rng, dtype,
                          relu=True),
                ConvLayer(f"head.block{i}.conv2", c, c, 3, rng, dtype),
            ))


def head(ms, weights):
    """Encode a (n, 4, h, w) MS image into (n, C, h, w) features."""
    feat = weights.stem(ms)
    for c1, c2 in weights.blocks:
        feat = feat + c2(c1(feat))
    return feat


class InjectionBlockWeights:
    """One NIN block: separate convs for the positive and negative signal
    parts, a fusion conv, and a residual connection."""

    def __init__(self, name, channels, rng, dtype=np.float32):
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
    # x_n first and each plane dropped after its last use, so a tape-free
    # pass holds at most one prelu output beside y; the graph, concat
    # order (x_p, x_n) included, is the same whatever runs first
    x_n = block.conv_neg(prelu(-y, block.slope_neg))
    x_p = block.conv_pos(prelu(y, block.slope_pos))
    both = concat_channels(x_p, x_n)
    del x_p, x_n
    fused = block.fuse(both)
    del both
    return fused + y


class NinWeights:
    """Embedding conv, encoder/decoder injection blocks, output projection."""

    def __init__(self, config, rng, dtype=np.float32):
        c, d = config.channels, config.nin_depth
        self.embed = ConvLayer("nin.embed", 1, c, 3, rng, dtype)
        self.encoder = [
            InjectionBlockWeights(f"nin.enc{i}", c, rng, dtype)
            for i in range(d)
        ]
        self.decoder = [
            InjectionBlockWeights(f"nin.dec{i}", c, rng, dtype)
            for i in range(d - 1)
        ]
        # zero weight: a fresh model outputs bicubic(MS) exactly, and
        # training starts from that baseline (Goyal et al., arXiv:1706.02677)
        self.project = ConvLayer("nin.project", c, BANDS, 1, None, dtype)


def nin_forward(details, weights):
    """Turn a (n, 1, H, W) detail plane into a (n, 4, H, W) residual.

    Encoder blocks run at successively halved resolution; decoder blocks
    upsample back with additive skips. Depth 1 degenerates to a single
    block at full resolution.
    """
    embedded = weights.embed(details)
    skips = []
    feat = embedded
    for level, blk in enumerate(weights.encoder):
        if level:
            feat = avg_pool2(feat)
        feat = injection_block(feat, blk)
        skips.append(feat)
    # each skip is popped as the decoder consumes it, and so freed after
    # use; feat is rebound to the upsampled sum before the block runs
    feat = skips.pop()
    for blk in weights.decoder:
        feat = nearest_up2(feat) + skips.pop()
        feat = injection_block(feat, blk)
    return weights.project(embedded + feat)


class PansharpenModel:
    """Head + detail network + NIN with a flat, uniquely named parameter map."""

    def __init__(self, config, rng, dtype=np.float32):
        config.validate()
        self.config = config
        self.head = HeadWeights(config, rng, dtype)
        self.msdn = MsdnWeights(config, rng, dtype)
        self.nin = NinWeights(config, rng, dtype)

    def parameters(self):
        return parameters([self.head, self.msdn, self.nin])

    def named_parameters(self):
        return {p.name: p for p in self.parameters()}


def pansharpen_with_details(ms, model):
    """Full forward pass. Returns (sharpened, detail plane)."""
    cfg = model.config
    if ms.ndim != 4 or ms.shape[1] != BANDS:
        raise ShapeError(f"pansharpen expects (n, {BANDS}, h, w), got {ms.shape}")
    if ms.shape[2] < 4 or ms.shape[3] < 4:
        raise ShapeError(f"MS patches must be at least 4x4, got {ms.shape[2:]}")
    div = 1 << (cfg.nin_depth - 1)
    h, w = cfg.scale * ms.shape[2], cfg.scale * ms.shape[3]
    if h % div or w % div:
        raise ShapeError(f"sharpened extents {h}x{w} must be multiples of "
                         f"{div} for NIN depth {cfg.nin_depth}")
    # the upsampled features are freed before the NIN runs
    details = msdn_forward(bicubic_upsample(head(ms, model.head), cfg.scale),
                           model.msdn)
    residual = nin_forward(details, model.nin)
    return bicubic_upsample(ms, cfg.scale) + residual, details


def pansharpen(ms, model):
    """Sharpened (n, 4, s*h, s*w) product from a (n, 4, h, w) MS image."""
    return pansharpen_with_details(ms, model)[0]
