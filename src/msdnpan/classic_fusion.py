"""Classic detail-injection baselines and the high-pass detail extractor.

Component substitution (CS) injects the difference between the PAN band and
an intensity built from the MS bands; multiresolution analysis (MRA) injects
the difference between the PAN band and its low-pass version, either
additively or multiplicatively (SFIM). All three operate on the upsampled
MS image, band by band.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .tensor_core import box_filter, constant

MODES = ("cs", "mra_additive", "sfim_multiplicative")

_SFIM_FLOOR = 1e-6


@dataclass
class InjectionConfig:
    gain: float = 1.0           # detail injection gain, shared by all bands
    window: int = 5             # low-pass box extent
    mode: str = "mra_additive"

    def validate(self):
        if not math.isfinite(self.gain):
            raise ValueError(f"gain must be finite, got {self.gain!r}")
        if self.window < 1 or self.window % 2 == 0:
            raise ValueError(f"window must be odd and positive, got {self.window}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        return self


def _check_pair(ms_up, pan):
    if ms_up.ndim != 3:
        raise ShapeError(f"MS stack must be rank 3 (bands, h, w), got {ms_up.shape}")
    if pan.ndim != 3 or pan.shape[0] != 1:
        raise ShapeError(f"PAN must be rank 3 (1, h, w), got {pan.shape}")
    if ms_up.shape[1:] != pan.shape[1:]:
        raise ShapeError(
            f"spatial extents differ: MS {ms_up.shape[1:]} vs PAN {pan.shape[1:]}")


def hp_details(pan, window=5):
    """High-pass of the PAN band: pan minus its box-filtered low-pass."""
    return pan - box_filter(pan, window)


def cs_inject(ms_up, pan, config):
    """Component substitution: per band, ms + gain * (pan - intensity), the
    intensity being the equal-weight band mean."""
    _check_pair(ms_up, pan)
    config.validate()
    intensity = ms_up.mean(axis=0, keepdims=True)
    return ms_up + (pan - intensity) * config.gain


def mra_inject(ms_up, pan, config):
    """Multiresolution injection. Mode ``mra_additive`` adds the gain-scaled
    high-pass; ``sfim_multiplicative`` rescales each band by pan / lowpass,
    with the denominator clamped away from zero."""
    _check_pair(ms_up, pan)
    config.validate()
    lowpass = box_filter(pan, config.window)
    if config.mode == "sfim_multiplicative":
        denom = np.where(np.abs(lowpass.data) < _SFIM_FLOOR,
                         np.where(lowpass.data < 0, -_SFIM_FLOOR, _SFIM_FLOOR),
                         lowpass.data)
        ratio = constant(pan.data / denom, dtype=ms_up.data.dtype)
        return ms_up * ratio
    return ms_up + (pan - lowpass) * config.gain


def inject(ms_up, pan, config):
    """Dispatch on config.mode."""
    if config.mode == "cs":
        return cs_inject(ms_up, pan, config)
    return mra_inject(ms_up, pan, config)
