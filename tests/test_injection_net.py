"""Head encoder, injection blocks, the U-shaped group, and the full model."""

import numpy as np
import pytest

from msdnpan.errors import ShapeError
from msdnpan.injection_net import (
    BANDS, HeadWeights, InjectionBlockWeights, ModelConfig, NinWeights,
    PansharpenModel, head, injection_block, nin_forward, pansharpen,
    pansharpen_with_details,
)
from msdnpan.tensor_core import Tensor, bicubic_upsample
from msdnpan.trainer import desk_config


def _config(**kw):
    base = dict(scale=4, channels=8, memory_slots=4, head_blocks=1,
                nin_depth=2, spatial_kernel=3, reduction=2)
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
    with pytest.raises(ShapeError):
        InjectionBlockWeights("b", 7, np.random.default_rng(5))


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
    out, details, coeff = pansharpen_with_details(_ms(9, n=2, h=4, w=6), model)
    assert out.shape == (2, BANDS, 16, 24)
    assert details.shape == (2, 1, 16, 24)
    assert coeff.shape == (2, 8, 16, 24)


def test_zero_projection_reduces_to_bicubic():
    model = _model(seed=10)
    model.nin.project.weight.data = np.zeros_like(model.nin.project.weight.data)
    model.nin.project.bias.data = np.zeros_like(model.nin.project.bias.data)
    ms = _ms(11)
    out = pansharpen(ms, model)
    np.testing.assert_array_equal(out.data, bicubic_upsample(ms, 4).data)


def test_pansharpen_input_validation():
    model = _model()
    with pytest.raises(ShapeError):
        pansharpen(Tensor(np.zeros((1, 3, 4, 4))), model)       # bands
    with pytest.raises(ShapeError):
        pansharpen(Tensor(np.zeros((4, 4, 4))), model)          # rank
    with pytest.raises(ShapeError):
        pansharpen(Tensor(np.zeros((1, 4, 2, 4))), model)       # too small


def test_model_config_validation():
    with pytest.raises(ValueError):
        _config(channels=7).validate()
    with pytest.raises(ValueError):
        _config(nin_depth=0).validate()
    with pytest.raises(ValueError):
        _config(head_blocks=-1).validate()


@pytest.mark.parametrize("field, value", [
    ("memory_slots", 0), ("scale", 0), ("channels", 0), ("spatial_kernel", 4),
    ("spatial_kernel", -1), ("reduction", 0),
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


def test_zero_grad_resets_buffers():
    model = _model(seed=13)
    out = pansharpen(_ms(14), model)
    out.sum().backward()
    assert any(float(np.abs(p.grad).max()) > 0 for p in model.parameters())
    model.zero_grad()
    assert all(float(np.abs(p.grad).max()) == 0 for p in model.parameters())


def test_forward_is_deterministic():
    a = pansharpen(_ms(15), _model(seed=16)).data
    b = pansharpen(_ms(15), _model(seed=16)).data
    np.testing.assert_array_equal(a, b)
