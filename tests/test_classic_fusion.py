"""CS/MRA/SFIM baselines and the high-pass extractor."""

import numpy as np
import pytest

from msdnpan.classic_fusion import (
    InjectionConfig, cs_inject, hp_details, inject, mra_inject,
)
from msdnpan.errors import ShapeError
from msdnpan.tensor_core import Tensor, box_filter


def _pair(seed, bands=4, h=8, w=8, pan_low=0.2, pan_high=0.9):
    rng = np.random.default_rng(seed)
    ms = Tensor(rng.uniform(0.1, 0.9, size=(bands, h, w)))
    pan = Tensor(rng.uniform(pan_low, pan_high, size=(1, h, w)))
    return ms, pan


def test_hp_of_constant_is_exactly_zero():
    pan = Tensor(np.full((1, 6, 6), 0.75, dtype=np.float32))
    assert np.array_equal(hp_details(pan).data, np.zeros((1, 6, 6),
                                                         dtype=np.float32))


def test_hp_plus_lowpass_reconstructs_pan():
    _, pan = _pair(0)
    hp = hp_details(pan, 5)
    low = box_filter(pan, 5)
    np.testing.assert_allclose(hp.data + low.data, pan.data, rtol=1e-12)
    with pytest.raises(ShapeError):
        hp_details(pan, 4)


def test_cs_with_matching_intensity_returns_ms():
    ms, _ = _pair(1)
    # equal-weight intensity of the MS stack as the "pan": difference is 0
    pan = Tensor(ms.data.mean(axis=0, keepdims=True))
    cfg = InjectionConfig(mode="cs")
    out = cs_inject(ms, pan, cfg)
    np.testing.assert_allclose(out.data, ms.data, rtol=0, atol=1e-15)


def test_cs_matches_scalar_formula():
    ms, pan = _pair(2)
    cfg = InjectionConfig(gain=1.5, mode="cs")
    out = cs_inject(ms, pan, cfg).data
    intensity = sum(0.25 * ms.data[k] for k in range(4))
    for k in range(4):
        expected = ms.data[k] + 1.5 * (pan.data[0] - intensity)
        np.testing.assert_allclose(out[k], expected, rtol=1e-12)
    # float32, 4 bands: the band mean equals the 0.25-weighted sum bit for
    # bit, because scaling by 0.25 commutes with rounding
    ms32 = ms.data.astype(np.float32)
    pan32 = pan.data.astype(np.float32)
    out32 = cs_inject(Tensor(ms32), Tensor(pan32), cfg).data
    weighted = (ms32 * np.float32(0.25)).sum(axis=0, keepdims=True)
    assert out32.dtype == np.float32
    np.testing.assert_array_equal(
        out32, ms32 + np.float32(1.5) * (pan32 - weighted))


def test_mra_additive_matches_scalar_formula():
    ms, pan = _pair(3)
    cfg = InjectionConfig(gain=1.25, window=3, mode="mra_additive")
    out = mra_inject(ms, pan, cfg).data
    low = box_filter(pan, 3).data
    for k in range(4):
        np.testing.assert_allclose(out[k],
                                   ms.data[k] + 1.25 * (pan.data[0] - low[0]),
                                   rtol=1e-12)


def test_mra_additive_constant_pan_returns_ms():
    ms, _ = _pair(4)
    pan = Tensor(np.full((1, 8, 8), 0.5))
    cfg = InjectionConfig(mode="mra_additive")
    np.testing.assert_array_equal(mra_inject(ms, pan, cfg).data, ms.data)


def test_sfim_cross_multiplication_identity():
    # away from the clamp, output * lowpass == ms * pan elementwise
    ms, pan = _pair(5, pan_low=0.5, pan_high=1.5)
    cfg = InjectionConfig(window=5, mode="sfim_multiplicative")
    out = mra_inject(ms, pan, cfg).data
    low = box_filter(pan, 5).data
    np.testing.assert_allclose(out * low[None, 0],
                               ms.data * pan.data[None, 0], rtol=1e-12)


def test_sfim_constant_pan_ratio_is_exactly_one():
    ms, _ = _pair(6)
    pan = Tensor(np.full((1, 8, 8), 0.625))   # box filter of a constant is exact
    cfg = InjectionConfig(mode="sfim_multiplicative")
    np.testing.assert_array_equal(mra_inject(ms, pan, cfg).data, ms.data)


def test_sfim_clamps_near_zero_lowpass():
    rng = np.random.default_rng(7)
    ms = Tensor(rng.uniform(0.1, 0.9, size=(4, 8, 8)))
    pan = Tensor(rng.uniform(-1e-9, 1e-9, size=(1, 8, 8)))
    cfg = InjectionConfig(mode="sfim_multiplicative")
    out = mra_inject(ms, pan, cfg).data
    assert np.isfinite(out).all()


def test_inject_dispatch():
    ms, pan = _pair(8)
    cs = inject(ms, pan, InjectionConfig(mode="cs"))
    mra = inject(ms, pan, InjectionConfig(mode="mra_additive"))
    assert not np.array_equal(cs.data, mra.data)


def test_shape_checks():
    ms, pan = _pair(9)
    cfg = InjectionConfig()
    with pytest.raises(ShapeError):
        mra_inject(Tensor(np.zeros((4, 8))), pan, cfg)
    with pytest.raises(ShapeError):
        mra_inject(ms, Tensor(np.zeros((2, 8, 8))), cfg)
    with pytest.raises(ShapeError):
        mra_inject(ms, Tensor(np.zeros((1, 4, 8))), cfg)


def test_config_validation():
    with pytest.raises(ValueError):
        InjectionConfig(window=4).validate()
    with pytest.raises(ValueError):
        InjectionConfig(mode="pca").validate()
    for gain in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            InjectionConfig(gain=gain).validate()
    ok = InjectionConfig(gain=0.0, window=1, mode="cs")
    assert ok.validate() is ok
