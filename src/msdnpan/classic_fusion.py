"""Classic detail-injection baselines and the high-pass detail extractor.

Component substitution (CS) injects the difference between the PAN band and
an intensity built from the MS bands; multiresolution analysis (MRA) injects
the difference between the PAN band and its low-pass version, either
additively or multiplicatively (SFIM). All three operate on the upsampled
MS image, band by band.

These are fixed operators that nothing trains, so they take and return
plain ndarrays and never enter the autodiff tape.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ShapeError

METHODS = ("cs", "mra-add", "sfim")

_SFIM_FLOOR = 1e-6


def box_filter(x, window):
    """Mean filter over a window x window neighbourhood of the last two axes,
    replicate-padded so the output has the input's extent. The window sum is
    accumulated first and divided once, so flat regions stay exactly flat for
    values with short mantissas. A window whose edge-padded copy cannot be
    allocated raises MemoryError."""
    k = int(window)
    if k < 1 or k % 2 == 0:
        raise ShapeError(f"box_filter window must be odd and positive, got {window}")
    if x.ndim < 2:
        raise ShapeError("box_filter expects rank >= 2")
    if k == 1:
        return x
    p = k // 2
    h, w = x.shape[-2:]
    # the padded copy grows with the window squared; numpy rejects one past
    # its index range with a ValueError or TypeError, so that is checked here
    padded = (*x.shape[:-2], h + 2 * p, w + 2 * p)
    if math.prod(padded) * x.itemsize > np.iinfo(np.intp).max:
        raise MemoryError(f"box_filter window {k}: a padded copy of shape "
                          f"{padded} is too large to index")
    xe = np.pad(x, [(0, 0)] * (x.ndim - 2) + [(p, p), (p, p)], mode="edge")
    s = np.zeros_like(x)
    for u in range(k):
        for v in range(k):
            s += xe[..., u : u + h, v : v + w]
    return s / float(k * k)


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


def inject(ms_up, pan, method, gain=1.0, window=5):
    """Fuse the upsampled MS stack with the PAN band by one of METHODS.

    ``cs`` adds gain * (pan - intensity), the intensity being the
    equal-weight band mean; ``mra-add`` adds gain * (pan - lowpass);
    ``sfim`` rescales each band by pan / lowpass, with the denominator
    clamped away from zero. The low-pass is a box filter of extent
    ``window``. Only cs and mra-add read the gain and only mra-add and sfim
    read the window, but both are checked for every method.
    """
    _check_pair(ms_up, pan)
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    gain = float(gain)
    if not math.isfinite(gain):
        raise ValueError(f"gain must be finite, got {gain!r}")
    if window < 1 or window % 2 == 0:
        raise ValueError(f"window must be odd and positive, got {window}")
    if method == "cs":
        intensity = ms_up.mean(axis=0, keepdims=True)
        return ms_up + (pan - intensity) * gain
    lowpass = box_filter(pan, window)
    if method == "mra-add":
        return ms_up + (pan - lowpass) * gain
    denom = np.where(np.abs(lowpass) < _SFIM_FLOOR,
                     np.where(lowpass < 0, -_SFIM_FLOOR, _SFIM_FLOOR),
                     lowpass)
    return ms_up * np.asarray(pan / denom, dtype=ms_up.dtype)
