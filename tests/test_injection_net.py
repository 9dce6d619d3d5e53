"""Head encoder, injection blocks, the U-shaped group, and the full model."""

import tracemalloc

import numpy as np
import pytest

from msdnpan import injection_net
from msdnpan.errors import ShapeError
from msdnpan.injection_net import (
    BANDS, HeadWeights, InjectionBlockWeights, ModelConfig, NinWeights,
    PansharpenModel, head, injection_block, nin_forward, pansharpen,
    pansharpen_with_details,
)
from msdnpan.msdn import (
    compose_spatial_details, encode_query, spatial_attention,
    weighted_coefficients,
)
from msdnpan.tensor_core import (
    Tensor, avg_pool2, backward, bicubic_upsample, concat_channels,
    nearest_up2, prelu,
)
from msdnpan.trainer import desk_config


def _config(**kw):
    base = dict(scale=4, channels=8, memory_slots=4, head_blocks=1,
                nin_depth=2)
    base.update(kw)
    return ModelConfig(**base)


def _model(seed=0, **kw):
    return PansharpenModel(_config(**kw), np.random.default_rng(seed),
                           dtype=np.float64)


def _ms(seed, n=1, h=4, w=4):
    rng = np.random.default_rng(seed)
    return Tensor(rng.uniform(0.1, 0.9, size=(n, BANDS, h, w)))


def test_bands_constant():
    assert BANDS == 4


def test_head_shapes_and_zero_blocks():
    cfg = _config(head_blocks=0)
    w = HeadWeights(cfg, np.random.default_rng(1), dtype=np.float64)
    out = head(_ms(2), w)
    assert out.shape == (1, 8, 4, 4)
    assert (out.data >= 0).all()    # relu output with no residual blocks
    with pytest.raises(ShapeError):
        head(Tensor(np.zeros((1, 3, 4, 4))), w)


def test_injection_block_with_zero_fuse_is_identity():
    blk = InjectionBlockWeights("b", 8, np.random.default_rng(3),
                                dtype=np.float64)
    blk.fuse.weight.data = np.zeros_like(blk.fuse.weight.data)
    blk.fuse.bias.data = np.zeros_like(blk.fuse.bias.data)
    y = Tensor(np.random.default_rng(4).standard_normal((2, 8, 6, 6)))
    out = injection_block(y, blk)
    np.testing.assert_array_equal(out.data, y.data)


def test_injection_block_slopes_init():
    blk = InjectionBlockWeights("b", 8, np.random.default_rng(5))
    np.testing.assert_array_equal(blk.slope_pos.data, np.full(8, 0.25,
                                                              np.float32))
    assert blk.slope_neg.data.shape == (8,)


def test_nin_output_shape_and_depth1():
    for depth in (1, 2, 3):
        cfg = _config(nin_depth=depth)
        w = NinWeights(cfg, np.random.default_rng(6), dtype=np.float64)
        details = Tensor(np.random.default_rng(7).standard_normal((2, 1, 8, 8)))
        out = nin_forward(details, w)
        assert out.shape == (2, BANDS, 8, 8)
        assert len(w.encoder) == depth
        assert len(w.decoder) == depth - 1


def test_nin_checks_divisibility():
    cfg = _config(nin_depth=3)    # needs extents divisible by 4
    w = NinWeights(cfg, np.random.default_rng(8), dtype=np.float64)
    with pytest.raises(ShapeError):
        nin_forward(Tensor(np.zeros((1, 1, 6, 6))), w)
    with pytest.raises(ShapeError):
        nin_forward(Tensor(np.zeros((1, 2, 8, 8))), w)


def test_pansharpen_shapes():
    model = _model()
    out, details = pansharpen_with_details(_ms(9, n=2, h=4, w=6), model)
    assert out.shape == (2, BANDS, 16, 24)
    assert details.shape == (2, 1, 16, 24)


def test_zero_projection_reduces_to_bicubic():
    # the output projection starts at zero, so a fresh model is bicubic
    model = _model(seed=10)
    assert not model.nin.project.weight.data.any()
    assert not model.nin.project.bias.data.any()
    ms = _ms(11)
    out = pansharpen(ms, model)
    np.testing.assert_array_equal(out.data, bicubic_upsample(ms, 4).data)


def test_pansharpen_input_validation(monkeypatch):
    model = _model()
    with pytest.raises(ShapeError):
        pansharpen(Tensor(np.zeros((1, 3, 4, 4))), model)       # bands
    with pytest.raises(ShapeError):
        pansharpen(Tensor(np.zeros((4, 4, 4))), model)          # rank
    with pytest.raises(ShapeError):
        pansharpen(Tensor(np.zeros((1, 4, 2, 4))), model)       # too small

    # NIN depth 2 pools once, so the sharpened extents must be even; the
    # model rejects 5x5 at scale 1 before any layer runs
    def head_must_not_run(*args):
        raise AssertionError("head ran on a batch the model should reject")

    model = PansharpenModel(ModelConfig(scale=1, nin_depth=2),
                            np.random.default_rng(0))
    monkeypatch.setattr(injection_net, "head", head_must_not_run)
    with pytest.raises(ShapeError, match="NIN depth 2"):
        pansharpen(Tensor(np.zeros((1, 4, 5, 5), np.float32)), model)


def test_model_config_validation():
    with pytest.raises(ValueError):
        _config(channels=7).validate()
    with pytest.raises(ValueError):
        _config(nin_depth=0).validate()
    with pytest.raises(ValueError):
        _config(head_blocks=-1).validate()


@pytest.mark.parametrize("field, value", [
    ("memory_slots", 0), ("scale", 0), ("channels", 0),
])
def test_model_config_rejects_bad_detail_network(field, value):
    # channels=0 passes the even-channels check and needs its own
    with pytest.raises(ValueError):
        _config(**{field: value}).validate()
    with pytest.raises(ValueError):
        PansharpenModel(_config(**{field: value}), np.random.default_rng(0))


def test_named_parameters_cover_all_and_are_unique():
    model = _model(seed=12)
    params = model.parameters()
    named = model.named_parameters()
    assert len(named) == len(params)
    prefixes = {name.split(".")[0] for name in named}
    assert prefixes == {"head", "msdn", "nin"}


def test_desk_model_parameter_list_is_pinned():
    # Checkpoints and Adam state are keyed by these names in this order.
    model = PansharpenModel(desk_config().model, np.random.default_rng(0))
    params = model.parameters()
    names = [p.name for p in params]
    assert len(params) == 65
    assert sum(p.data.size for p in params) == 39627
    assert names[0] == "head.stem.weight"
    assert names[-1] == "nin.project.bias"
    assert len(set(names)) == len(names)


def test_backward_reaches_every_parameter():
    model = _model(seed=13)
    params = model.parameters()
    out = pansharpen(_ms(14), model)
    grads = backward(out.sum(), params)
    assert all(g.shape == p.shape and g.dtype == p.dtype
               for p, g in zip(params, grads))
    assert any(float(np.abs(g).max()) > 0 for g in grads)


def test_forward_is_deterministic():
    a = pansharpen(_ms(15), _model(seed=16)).data
    b = pansharpen(_ms(15), _model(seed=16)).data
    np.testing.assert_array_equal(a, b)


def _frozen_full_model():
    """A seeded full-config float32 model with a drawn output projection
    (a zero one would make the product bicubic(MS) whatever the rest does),
    frozen as `infer` freezes it."""
    model = PansharpenModel(ModelConfig(), np.random.default_rng((5, 0)))
    w = model.nin.project.weight
    w.data[...] = np.random.default_rng(9).normal(0.0, 0.1, w.shape)
    for p in model.parameters():
        p.requires_grad = False
    return model


def _tiled_plane_pansharpen(ms, model):
    """The forward pass written out with the memory tiled into a whole
    (1, N, H, W) plane and every intermediate held by a local."""
    cfg, mw, nin = model.config, model.msdn, model.nin
    feat_up = bicubic_upsample(head(ms, model.head), cfg.scale)
    _, _, h, w = feat_up.shape
    tiles = mw.memory.data.reshape(cfg.memory_slots, cfg.scale, cfg.scale)
    plane = Tensor(np.tile(tiles, (1, h // cfg.scale, w // cfg.scale))[None])
    query = encode_query(feat_up, mw)
    feat = mw.decode_conv(plane * query)     # relu fused into the layer
    detail = mw.detail_proj(feat * spatial_attention(feat, mw))
    details = compose_spatial_details(detail, weighted_coefficients(feat_up, mw))

    def block(y, blk):
        xp = blk.conv_pos(prelu(y, blk.slope_pos))
        xn = blk.conv_neg(prelu(-y, blk.slope_neg))
        return blk.fuse(concat_channels(xp, xn)) + y

    embedded = nin.embed(details)
    skips, feat = [], embedded
    for level, blk in enumerate(nin.encoder):
        feat = block(avg_pool2(feat) if level else feat, blk)
        skips.append(feat)
    feat = skips[-1]
    for blk, skip in zip(nin.decoder, reversed(skips[:-1])):
        feat = block(nearest_up2(feat) + skip, blk)
    residual = nin.project(embedded + feat)
    return bicubic_upsample(ms, cfg.scale) + residual, details


def test_full_model_matches_the_tiled_plane_forward():
    model = _frozen_full_model()
    ms = Tensor(np.random.default_rng(0).random((1, BANDS, 8, 12), np.float32))
    out, details = pansharpen_with_details(ms, model)
    ref_out, ref_details = _tiled_plane_pansharpen(ms, model)
    assert np.array_equal(details.data, ref_details.data)
    assert np.array_equal(out.data, ref_out.data)
    assert not np.array_equal(out.data, bicubic_upsample(ms, 4).data)


def _tape_free_traced_peak(size):
    model = _frozen_full_model()
    ms = Tensor(np.random.default_rng(0).random((1, BANDS, size, size),
                                                np.float32))
    pansharpen(ms, model)  # warm-up: first-call caches
    tracemalloc.start()
    try:
        pansharpen(ms, model)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_tape_free_full_model_traced_peak():
    """No (N, H, W) memory plane, each whole-image plane freed after its
    last use, convolutions in bands of rows and prelu's positive part added
    in channel blocks. Basis: a 32x32 MS input peaks at 10.6 MiB of traced
    allocations (a NIN prelu; `tile_mul` reaches 10.2); with whole-plane
    convolutions, the gated query held through `decode_memory` and
    prelu's two full temporaries it peaked at 12.3 MiB, and with the tiled
    plane and the planes held to the end of their functions at 20.4 MiB."""
    peak = _tape_free_traced_peak(32)
    assert peak <= 11.5 * 2 ** 20, f"traced peak {peak / 2 ** 20:.1f} MiB"


def test_tape_free_full_model_traced_peak_at_ms64():
    """Relu fused into the conv that makes it, the query's 1x1 and its
    memory product written over the arrays they read, and each whole plane
    dropped at its last use. Basis: a 64x64 MS input peaks at 34.3 MiB (the
    last NIN decoder block's fuse conv); with a separate relu op, both
    written out of place and the coefficient and injection-block planes
    held longer it peaked at 40.3 MiB, at six sites."""
    peak = _tape_free_traced_peak(64)
    assert peak <= 36 * 2 ** 20, f"traced peak {peak / 2 ** 20:.1f} MiB"
