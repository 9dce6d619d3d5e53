"""Quality assessment for sharpened products.

Reduced-resolution (reference-based): RMSE, SAM, ERGAS, SCC, Q4.
Full-resolution (no-reference): D_lambda, D_s, QNR.

Conventions: ``q4`` is the universal Q index of the band-mean image, not
the quaternion Q4 of Alparone et al. (IEEE GRSL 2004); ERGAS normalises
each band by the prediction mean; D_lambda, D_s and QNR take the usual
exponents p = q = alpha = beta = 1.

All statistics are computed in float64 from correctly rounded sums.
``_fsum`` gets them by error-free extraction (Rump, Ogita and Oishi,
"Accurate floating-point summation, part I", SIAM J. Sci. Comput. 2008):
adding and subtracting a power of two sigma above n times the largest
magnitude splits each element exactly into a high part on a grid that
numpy sums without rounding and a low remainder; a few passes leave a
remainder that is zero or that math.fsum adds to the exact partial sums. The result is bit-equal
to ``math.fsum`` of the elements. Input that is not finite, or so large
that sigma would overflow, goes to ``math.fsum`` itself, so NaN, infinities
and intermediate overflow behave exactly as they do there.

Besides stability this gives a useful exactness property: replicating an
image k*k-fold scales every sum by exactly k*k, so means, variances, and
covariances of a nearest-neighbour upsample are bit-equal to those of the
original and D_lambda of such an upsample is exactly 0.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .data_pipeline import wald_downsample
from .errors import DegenerateInputError, ShapeError

_LAPLACIAN = np.array([[0.0, 1.0, 0.0], [1.0, -4.0, 1.0], [0.0, 1.0, 0.0]])


def _arr(x, rank=None, name="input"):
    a = np.asarray(x, dtype=np.float64)
    if rank is not None and a.ndim != rank:
        raise ShapeError(f"{name} must be rank {rank}, got rank {a.ndim}")
    return a


# Each extraction pass removes about 53 - log2(n) bits from every element;
# what is left after the cap goes to math.fsum as it is.
_EXTRACT_PASSES = 4


def _fsum(a):
    """Correctly rounded sum of all elements: bit-equal to
    ``math.fsum(a.ravel().tolist())``, including its results and errors
    on non-finite input, without building a list for finite input."""
    p = np.asarray(a, dtype=np.float64).ravel()
    nbits = (p.size + 2).bit_length()
    m = max(p.max(initial=0.0), -p.min(initial=0.0))
    if not math.isfinite(m) or math.frexp(m)[1] + nbits > 1023:
        return math.fsum(p.tolist())
    partials = []
    q = None
    for _ in range(_EXTRACT_PASSES):
        if m == 0.0:
            return math.fsum(partials)
        # sigma = 2**k with (n + 2) * max|p| < sigma: each q is a multiple
        # of 2**-53 * sigma and their magnitudes add up to less than sigma,
        # so q.sum() is exact in any order, and so is p - q
        sigma = math.ldexp(1.0, math.frexp(m)[1] + nbits)
        if q is None:  # the first pass leaves the caller's array alone
            q = p + sigma
            q -= sigma
            p = p - q
        else:
            np.add(p, sigma, out=q)
            q -= sigma
            p -= q
        partials.append(float(q.sum()))
        m = max(p.max(), -p.min())
    return math.fsum(partials + p[p != 0.0].tolist())


def _fmean(a):
    return _fsum(a) / a.size


def _moments(x, y):
    """(mx, my, vx, vy, cov): means, variances clamped at 0, covariance."""
    mx, my = _fmean(x), _fmean(y)
    vx = max(_fmean(x * x) - mx * mx, 0.0)
    vy = max(_fmean(y * y) - my * my, 0.0)
    cov = _fmean(x * y) - mx * my
    return mx, my, vx, vy, cov


def rmse(x, y):
    """Root of the mean squared difference."""
    x, y = _arr(x), _arr(y)
    if x.shape != y.shape:
        raise ShapeError(f"rmse shapes differ: {x.shape} vs {y.shape}")
    d = x - y
    return math.sqrt(_fmean(d * d))


def sam(x, y):
    """Mean spectral angle in radians between per-pixel band vectors.

    Pixels where either spectrum has zero norm contribute angle 0. (A
    popular shortcut sums the bands before taking one arccos, whose
    argument can exceed 1; the standard per-pixel mean angle is computed
    instead.)
    The angle uses the half-angle form 2*atan2(|u-v|, |u+v|) on the unit
    spectra, which is exact for identical inputs and stays accurate where
    arccos loses precision near cos = +-1.
    """
    x, y = _arr(x, 3, "X"), _arr(y, 3, "Y")
    if x.shape != y.shape:
        raise ShapeError(f"sam shapes differ: {x.shape} vs {y.shape}")
    if x.shape[0] < 2:
        raise ShapeError("sam needs at least 2 bands")
    nx = np.sqrt(np.einsum("khw,khw->hw", x, x))
    ny = np.sqrt(np.einsum("khw,khw->hw", y, y))
    ok = (nx > 0) & (ny > 0)
    ux = x / np.where(ok, nx, 1.0)
    uy = y / np.where(ok, ny, 1.0)
    d = ux - uy
    s = ux + uy
    nd = np.sqrt(np.einsum("khw,khw->hw", d, d))
    ns = np.sqrt(np.einsum("khw,khw->hw", s, s))
    angles = np.where(ok, 2.0 * np.arctan2(nd, ns), 0.0)
    return _fmean(angles)


def ergas(x, y, ratio=0.25):
    """Relative global synthesis error, with X the prediction.

    100 * ratio * sqrt(mean_k (RMSE(X_k, Y_k) / mean(X_k))^2), where ratio
    is the PAN/MS resolution ratio h/l. Each band is normalised by the
    prediction mean.
    """
    if not (math.isfinite(ratio) and ratio > 0):
        raise ValueError(f"ratio must be finite and > 0, got {ratio!r}")
    x, y = _arr(x, 3, "X"), _arr(y, 3, "Y")
    if x.shape != y.shape:
        raise ShapeError(f"ergas shapes differ: {x.shape} vs {y.shape}")
    total = []
    for k in range(x.shape[0]):
        mean_k = _fmean(x[k])
        if mean_k == 0.0:
            raise DegenerateInputError(f"band {k} has zero mean")
        total.append((rmse(x[k], y[k]) / mean_k) ** 2)
    return 100.0 * ratio * math.sqrt(math.fsum(total) / x.shape[0])


def _laplacian(img):
    # valid 3x3 correlation; the kernel is symmetric
    out = np.zeros((img.shape[0] - 2, img.shape[1] - 2))
    for u in range(3):
        for v in range(3):
            c = _LAPLACIAN[u, v]
            if c:
                out += c * img[u:u + img.shape[0] - 2, v:v + img.shape[1] - 2]
    return out


def scc(x, y):
    """Pearson correlation of Laplacian-filtered images, pooled over bands."""
    x, y = _arr(x, 3, "X"), _arr(y, 3, "Y")
    if x.shape != y.shape:
        raise ShapeError(f"scc shapes differ: {x.shape} vs {y.shape}")
    if x.shape[1] < 3 or x.shape[2] < 3:
        raise ShapeError("scc needs at least 3x3 images")
    fx = np.stack([_laplacian(x[k]) for k in range(x.shape[0])])
    fy = np.stack([_laplacian(y[k]) for k in range(y.shape[0])])
    _, _, vx, vy, cov = _moments(fx, fy)
    if vx == 0.0 or vy == 0.0:
        raise DegenerateInputError("zero variance after Laplacian filtering")
    return cov / math.sqrt(vx * vy)


def q_index(x, y):
    """Universal quality index: correlation * luminance * contrast, from
    global statistics. If both deviations vanish the index is 1 for
    identical images and 0 otherwise."""
    x, y = _arr(x, 2, "x"), _arr(y, 2, "y")
    if x.shape != y.shape:
        raise ShapeError(f"q_index shapes differ: {x.shape} vs {y.shape}")
    mx, my, vx, vy, cov = _moments(x, y)
    sx, sy = math.sqrt(vx), math.sqrt(vy)
    if sx * sy == 0.0:
        return 1.0 if np.array_equal(x, y) else 0.0
    lum_den = mx * mx + my * my
    lum = 1.0 if lum_den == 0.0 else 2.0 * mx * my / lum_den
    return (cov / (sx * sy)) * lum * (2.0 * sx * sy / (vx + vy))


def q4(x, y):
    """Q index of the band-mean images (4-band inputs).

    This is not the quaternion Q4 of Alparone et al. (2004), which also
    scores inter-band spectral distortion.
    """
    x, y = _arr(x, 3, "X"), _arr(y, 3, "Y")
    if x.shape != y.shape:
        raise ShapeError(f"q4 shapes differ: {x.shape} vs {y.shape}")
    if x.shape[0] != 4:
        raise ShapeError(f"q4 expects 4 bands, got {x.shape[0]}")
    w = np.full(4, 0.25)
    xc = np.einsum("k,khw->hw", w, x)
    yc = np.einsum("k,khw->hw", w, y)
    return q_index(xc, yc)


def scale_ratio(small, big, what):
    """The integer factor s with big == s * small on both axes, or a
    ShapeError naming `what`."""
    if min(*small, *big) < 1 or big[0] % small[0] or big[1] % small[1]:
        raise ShapeError(
            f"{what}: {big} is not a positive multiple of {small}")
    s = big[0] // small[0]
    if s != big[1] // small[1]:
        raise ShapeError(f"{what}: anisotropic scale in {big} vs {small}")
    return s


def d_lambda(ms, fused):
    """Spectral distortion: mean absolute change of the inter-band Q values
    between scales (exponent p = 1)."""
    ms, fused = _arr(ms, 3, "ms"), _arr(fused, 3, "fused")
    k = ms.shape[0]
    if k < 2:
        raise ShapeError("d_lambda needs at least 2 bands")
    if fused.shape[0] != k:
        raise ShapeError(f"band counts differ: {k} vs {fused.shape[0]}")
    scale_ratio(ms.shape[1:], fused.shape[1:], "d_lambda")
    # q_index is symmetric, so each unordered pair stands for both orders
    terms = [abs(q_index(ms[i], ms[j]) - q_index(fused[i], fused[j]))
             for i, j in itertools.combinations(range(k), 2)]
    return math.fsum(terms) / len(terms)


def d_s(ms, fused, pan):
    """Spatial distortion: mean absolute change of each band's Q against PAN
    between scales (exponent q = 1)."""
    ms, fused = _arr(ms, 3, "ms"), _arr(fused, 3, "fused")
    pan = _arr(pan, 3, "pan")
    if pan.shape[0] != 1:
        raise ShapeError(f"pan must have a single band, got {pan.shape[0]}")
    if fused.shape[0] != ms.shape[0]:
        raise ShapeError(
            f"band counts differ: {ms.shape[0]} vs {fused.shape[0]}")
    if pan.shape[1:] != fused.shape[1:]:
        raise ShapeError(
            f"pan {pan.shape[1:]} does not match fused {fused.shape[1:]}")
    s = scale_ratio(ms.shape[1:], fused.shape[1:], "d_s")
    p = pan[0]
    p_low = wald_downsample(p, s)
    terms = [
        abs(q_index(fused[i], p) - q_index(ms[i], p_low))
        for i in range(ms.shape[0])
    ]
    return math.fsum(terms) / len(terms)


def qnr(d_lambda_value, d_s_value):
    """(1 - D_lambda) * (1 - D_s): exponents alpha = beta = 1.

    Each distortion is a mean of |Q - Q| with Q in [-1, 1], so it lies in
    [0, 2]; QNR is negative when exactly one of them exceeds 1."""
    for name, v in (("d_lambda", d_lambda_value), ("d_s", d_s_value)):
        if not 0.0 <= v <= 2.0:
            raise ValueError(f"{name} must lie in [0, 2], got {v}")
    return (1.0 - d_lambda_value) * (1.0 - d_s_value)


def pearson(x, y):
    """Plain Pearson correlation between two equally shaped arrays."""
    x, y = _arr(x), _arr(y)
    if x.shape != y.shape:
        raise ShapeError(f"pearson shapes differ: {x.shape} vs {y.shape}")
    _, _, vx, vy, cov = _moments(x, y)
    if vx == 0.0 or vy == 0.0:
        raise DegenerateInputError("pearson undefined for constant input")
    return cov / math.sqrt(vx * vy)


def reduced_resolution_report(pred, gt, ratio=0.25):
    """SAM, ERGAS, SCC, and Q4 of a prediction against its reference."""
    pred, gt = _arr(pred), _arr(gt)
    return {
        "sam": sam(pred, gt),
        "ergas": ergas(pred, gt, ratio),
        "scc": scc(pred, gt),
        "q4": q4(pred, gt),
    }


def full_resolution_report(pred, ms, pan):
    """QNR with its spectral and spatial distortion components."""
    pred, ms, pan = _arr(pred), _arr(ms), _arr(pan)
    dl = d_lambda(ms, pred)
    ds = d_s(ms, pred, pan)
    return {"qnr": qnr(dl, ds), "d_lambda": dl, "d_s": ds}
