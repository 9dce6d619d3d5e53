"""CS/MRA/SFIM baselines and the high-pass extractor."""

import numpy as np
import pytest

from msdnpan.classic_fusion import box_filter, hp_details, inject
from msdnpan.errors import ShapeError


def _pair(seed, bands=4, h=8, w=8, pan_low=0.2, pan_high=0.9):
    rng = np.random.default_rng(seed)
    ms = rng.uniform(0.1, 0.9, size=(bands, h, w))
    pan = rng.uniform(pan_low, pan_high, size=(1, h, w))
    return ms, pan


def test_hp_of_constant_is_exactly_zero():
    pan = np.full((1, 6, 6), 0.75, dtype=np.float32)
    assert np.array_equal(hp_details(pan), np.zeros((1, 6, 6),
                                                    dtype=np.float32))


def test_hp_plus_lowpass_reconstructs_pan():
    _, pan = _pair(0)
    hp = hp_details(pan, 5)
    low = box_filter(pan, 5)
    np.testing.assert_allclose(hp + low, pan, rtol=1e-12)
    with pytest.raises(ShapeError):
        hp_details(pan, 4)


def test_cs_with_matching_intensity_returns_ms():
    ms, _ = _pair(1)
    # equal-weight intensity of the MS stack as the "pan": difference is 0
    pan = ms.mean(axis=0, keepdims=True)
    out = inject(ms, pan, "cs")
    np.testing.assert_allclose(out, ms, rtol=0, atol=1e-15)


def test_cs_matches_scalar_formula():
    ms, pan = _pair(2)
    out = inject(ms, pan, "cs", gain=1.5)
    intensity = sum(0.25 * ms[k] for k in range(4))
    for k in range(4):
        expected = ms[k] + 1.5 * (pan[0] - intensity)
        np.testing.assert_allclose(out[k], expected, rtol=1e-12)
    # float32, 4 bands: the band mean equals the 0.25-weighted sum bit for
    # bit, because scaling by 0.25 commutes with rounding
    ms32 = ms.astype(np.float32)
    pan32 = pan.astype(np.float32)
    out32 = inject(ms32, pan32, "cs", gain=1.5)
    weighted = (ms32 * np.float32(0.25)).sum(axis=0, keepdims=True)
    assert out32.dtype == np.float32
    np.testing.assert_array_equal(
        out32, ms32 + np.float32(1.5) * (pan32 - weighted))


def test_mra_additive_matches_scalar_formula():
    ms, pan = _pair(3)
    out = inject(ms, pan, "mra-add", gain=1.25, window=3)
    low = box_filter(pan, 3)
    for k in range(4):
        np.testing.assert_allclose(out[k], ms[k] + 1.25 * (pan[0] - low[0]),
                                   rtol=1e-12)


def test_mra_additive_constant_pan_returns_ms():
    ms, _ = _pair(4)
    pan = np.full((1, 8, 8), 0.5)
    np.testing.assert_array_equal(inject(ms, pan, "mra-add"), ms)


def test_sfim_cross_multiplication_identity():
    # away from the clamp, output * lowpass == ms * pan elementwise
    ms, pan = _pair(5, pan_low=0.5, pan_high=1.5)
    out = inject(ms, pan, "sfim", window=5)
    low = box_filter(pan, 5)
    np.testing.assert_allclose(out * low[None, 0], ms * pan[None, 0],
                               rtol=1e-12)


def test_sfim_constant_pan_ratio_is_exactly_one():
    ms, _ = _pair(6)
    pan = np.full((1, 8, 8), 0.625)   # box filter of a constant is exact
    np.testing.assert_array_equal(inject(ms, pan, "sfim"), ms)


def test_sfim_clamps_near_zero_lowpass():
    rng = np.random.default_rng(7)
    ms = rng.uniform(0.1, 0.9, size=(4, 8, 8))
    pan = rng.uniform(-1e-9, 1e-9, size=(1, 8, 8))
    assert np.isfinite(inject(ms, pan, "sfim")).all()


def test_inject_dispatch():
    ms, pan = _pair(8)
    outs = [inject(ms, pan, method) for method in ("cs", "mra-add", "sfim")]
    for i in range(3):
        for j in range(i):
            assert not np.array_equal(outs[i], outs[j])


def test_shape_checks():
    ms, pan = _pair(9)
    with pytest.raises(ShapeError):
        inject(np.zeros((4, 8)), pan, "mra-add")
    with pytest.raises(ShapeError):
        inject(ms, np.zeros((2, 8, 8)), "mra-add")
    with pytest.raises(ShapeError):
        inject(ms, np.zeros((1, 4, 8)), "mra-add")


def test_config_validation():
    ms, pan = _pair(10)
    # every method checks both values, whether or not it reads them
    for method in ("cs", "mra-add", "sfim"):
        with pytest.raises(ValueError):
            inject(ms, pan, method, window=4)
        for gain in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                inject(ms, pan, method, gain=gain)
    with pytest.raises(ValueError):
        inject(ms, pan, "pca")
    np.testing.assert_array_equal(inject(ms, pan, "cs", gain=0.0, window=1),
                                  ms)
