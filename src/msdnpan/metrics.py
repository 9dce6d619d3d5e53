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
numpy sums without rounding and a low remainder. The sigmas of all passes
are fixed from the global maximum, so the passes run block by block over
cache-sized pieces, each block's partial sums add up exactly across
blocks, and a product x * y is formed one block at a time. What a few
passes leave is zero or goes to math.fsum with the exact partial sums.
The result is bit-equal to ``math.fsum`` of the elements. Input that is
not finite, or so large that sigma would overflow, goes to ``math.fsum``
itself, so NaN, infinities and intermediate overflow behave exactly as
they do there.

Each statistic is summed once: D_lambda and D_s take every band's mean
and mean square once per scale (shared between them in
``full_resolution_report``), so only the cross products are summed per
pair of images, and every Q value comes from one formula.

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


def _arr(x, rank=None, name="input"):
    a = np.asarray(x, dtype=np.float64)
    if rank is not None and a.ndim != rank:
        raise ShapeError(f"{name} must be rank {rank}, got rank {a.ndim}")
    return a


# Each extraction pass removes about 53 - log2(n) bits from every element;
# what is left after the cap goes to math.fsum as it is.
_EXTRACT_PASSES = 4

# Elements per block: the two float64 scratch buffers of _fsum (256 KiB
# each) stay in a core's L2 cache while every pass runs over them.
_BLOCK = 1 << 15


def _absmax(p):
    return max(p.max(initial=0.0), -p.min(initial=0.0))


def _fsum(x, y=None):
    """Correctly rounded sum of the elements of x, or of the products
    x * y: bit-equal to ``math.fsum((x * y).ravel().tolist())``, including
    its results and errors on non-finite input, without building the
    products or a list for finite input."""
    x = np.asarray(x, dtype=np.float64).ravel()
    if y is not None:
        y = np.asarray(y, dtype=np.float64).ravel()
    n = x.size
    nbits = (n + 2).bit_length()
    # bounds every |x * y| as rounding is monotonic; a loose bound only
    # leaves more to the later passes
    m = _absmax(x) if y is None else _absmax(x) * _absmax(y)
    if not math.isfinite(m) or math.frexp(m)[1] + nbits > 1023:
        return math.fsum((x if y is None else x * y).tolist())
    if m == 0.0:
        return 0.0
    # sigma_1 = 2**k with (n + 2) * max|p| < sigma_1: each q is a multiple
    # of 2**-53 * sigma and their magnitudes add up to less than sigma, so
    # every block's q.sum(), their total and p - q are exact. What is left
    # is at most 2**-53 * sigma_i, below sigma_(i+1) / (n + 2). (A sigma
    # that underflows to 0 meets a remainder already 0.)
    top = math.frexp(m)[1] + nbits
    sigmas = [math.ldexp(1.0, top - i * (53 - nbits))
              for i in range(_EXTRACT_PASSES)]
    totals = [0.0] * _EXTRACT_PASSES
    rest = []
    q = np.empty(min(n, _BLOCK))
    p = np.empty_like(q)
    for start in range(0, n, _BLOCK):
        pb = x[start:start + _BLOCK]
        qb = q[:pb.size]
        if y is not None:
            pb = np.multiply(pb, y[start:start + _BLOCK], out=p[:pb.size])
        for i, sigma in enumerate(sigmas):
            np.add(pb, sigma, out=qb)
            qb -= sigma
            # the first pass leaves the caller's array alone
            pb = np.subtract(pb, qb, out=p[:pb.size])
            totals[i] += float(qb.sum())
            if not pb.any():
                break
        else:
            rest += pb[pb != 0.0].tolist()
    return math.fsum(totals + rest)


def _fmean(x, y=None):
    return _fsum(x, y) / x.size


def _moments(x, y):
    """(mx, my, vx, vy, cov): means, variances clamped at 0, covariance."""
    mx, my = _fmean(x), _fmean(y)
    vx = max(_fmean(x, x) - mx * mx, 0.0)
    vy = max(_fmean(y, y) - my * my, 0.0)
    cov = _fmean(x, y) - mx * my
    return mx, my, vx, vy, cov


def rmse(x, y):
    """Root of the mean squared difference."""
    x, y = _arr(x), _arr(y)
    if x.shape != y.shape:
        raise ShapeError(f"rmse shapes differ: {x.shape} vs {y.shape}")
    d = x - y
    return math.sqrt(_fmean(d, d))


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
    k, h, w = x.shape
    angles = np.empty((h, w))
    rows = max(1, _BLOCK // (k * w))     # band stacks of about one block
    for r in range(0, h, rows):
        xb, yb = x[:, r:r + rows], y[:, r:r + rows]
        nx = np.sqrt(np.einsum("khw,khw->hw", xb, xb))
        ny = np.sqrt(np.einsum("khw,khw->hw", yb, yb))
        ok = (nx > 0) & (ny > 0)
        ux = xb / np.where(ok, nx, 1.0)
        uy = yb / np.where(ok, ny, 1.0)
        d = ux - uy
        s = ux + uy
        nd = np.sqrt(np.einsum("khw,khw->hw", d, d))
        ns = np.sqrt(np.einsum("khw,khw->hw", s, s))
        angles[r:r + rows] = np.where(ok, 2.0 * np.arctan2(nd, ns), 0.0)
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
    """Valid 3x3 Laplacian correlation over the last two axes.

    The taps add in the order a zero-initialised accumulation would, so
    the values match it up to the sign of a zero, which no sum sees."""
    h, w = img.shape[-2:]

    def at(u, v):
        return img[..., u:u + h - 2, v:v + w - 2]

    out = at(0, 1) + at(1, 0)
    out -= 4.0 * at(1, 1)
    out += at(1, 2)
    out += at(2, 1)
    return out


def scc(x, y):
    """Pearson correlation of Laplacian-filtered images, pooled over bands."""
    x, y = _arr(x, 3, "X"), _arr(y, 3, "Y")
    if x.shape != y.shape:
        raise ShapeError(f"scc shapes differ: {x.shape} vs {y.shape}")
    if x.shape[1] < 3 or x.shape[2] < 3:
        raise ShapeError("scc needs at least 3x3 images")
    _, _, vx, vy, cov = _moments(_laplacian(x), _laplacian(y))
    if vx == 0.0 or vy == 0.0:
        raise DegenerateInputError("zero variance after Laplacian filtering")
    return cov / math.sqrt(vx * vy)


def _stats(img):
    """(img, mean, mean square): what a Q index needs of one image alone."""
    return img, _fmean(img), _fmean(img, img)


def _q(a, b):
    """Q index of two ``_stats`` triples; only their mean product is
    summed here."""
    x, mx, mxx = a
    y, my, myy = b
    vx = max(mxx - mx * mx, 0.0)
    vy = max(myy - my * my, 0.0)
    sx, sy = math.sqrt(vx), math.sqrt(vy)
    if sx * sy == 0.0:
        return 1.0 if np.array_equal(x, y) else 0.0
    cov = _fmean(x, y) - mx * my
    lum_den = mx * mx + my * my
    lum = 1.0 if lum_den == 0.0 else 2.0 * mx * my / lum_den
    return (cov / (sx * sy)) * lum * (2.0 * sx * sy / (vx + vy))


def q_index(x, y):
    """Universal quality index: correlation * luminance * contrast, from
    global statistics. If both deviations vanish the index is 1 for
    identical images and 0 otherwise."""
    x, y = _arr(x, 2, "x"), _arr(y, 2, "y")
    if x.shape != y.shape:
        raise ShapeError(f"q_index shapes differ: {x.shape} vs {y.shape}")
    return _q(_stats(x), _stats(y))


class _Bands:
    """A rank-3 band stack whose bands' ``_stats`` are each summed once,
    however many Q values use them."""

    def __init__(self, a, name):
        self.a = _arr(a, 3, name)
        self.shape = self.a.shape
        self._stats = [None] * self.shape[0]

    def __getitem__(self, k):
        if self._stats[k] is None:
            self._stats[k] = _stats(self.a[k])
        return self._stats[k]


def _bands(a, name):
    return a if isinstance(a, _Bands) else _Bands(a, name)


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
    ms, fused = _bands(ms, "ms"), _bands(fused, "fused")
    k = ms.shape[0]
    if k < 2:
        raise ShapeError("d_lambda needs at least 2 bands")
    if fused.shape[0] != k:
        raise ShapeError(f"band counts differ: {k} vs {fused.shape[0]}")
    scale_ratio(ms.shape[1:], fused.shape[1:], "d_lambda")
    # Q is symmetric, so each unordered pair stands for both orders
    terms = [abs(_q(ms[i], ms[j]) - _q(fused[i], fused[j]))
             for i, j in itertools.combinations(range(k), 2)]
    return math.fsum(terms) / len(terms)


def d_s(ms, fused, pan):
    """Spatial distortion: mean absolute change of each band's Q against PAN
    between scales (exponent q = 1)."""
    ms, fused = _bands(ms, "ms"), _bands(fused, "fused")
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
    p = _stats(pan[0])
    p_low = _stats(wald_downsample(pan[0], s))
    terms = [abs(_q(fused[i], p) - _q(ms[i], p_low))
             for i in range(ms.shape[0])]
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
    """QNR with its spectral and spatial distortion components. D_lambda
    and D_s share each band's mean and mean square."""
    ms, pred = _Bands(ms, "ms"), _Bands(pred, "fused")
    dl = d_lambda(ms, pred)
    ds = d_s(ms, pred, pan)
    return {"qnr": qnr(dl, ds), "d_lambda": dl, "d_s": ds}
