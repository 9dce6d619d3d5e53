"""Quality assessment for sharpened products.

Reduced-resolution (reference-based): SAM, ERGAS, SCC, Q4.
Full-resolution (no-reference): D_lambda, D_s, QNR.

Conventions: ``q4`` is the universal Q index of the band-mean image, not
the quaternion Q4 of Alparone et al. (IEEE GRSL 2004); ERGAS normalises
each band by the prediction mean; D_lambda, D_s and QNR take the usual
exponents p = q = alpha = beta = 1.

All statistics are computed in float64 from correctly rounded sums.
``_sums`` gets every sum a metric needs in one pass over cache-sized
blocks, by error-free extraction (Rump, Ogita and Oishi, "Accurate
floating-point summation, part I", SIAM J. Sci. Comput. 2008): adding and
subtracting a power of two sigma above n times a block's largest
magnitude splits each of its n elements exactly into a high part on a
grid that numpy sums without rounding and a low remainder. Each block
takes its sigmas from its own maximum, each operand's taken once per
block however many terms read it, so every block's pass sums are exact;
math.fsum adds these exact pieces, and what a few passes leave, into the
correctly rounded total. Products x * y, differences, spectral angles
and SCC's Laplacian are formed one block at a time inside the pass (the
Laplacian from each row block and its two halo rows, in the same
operation order), never as whole-image arrays. Inputs are not copied
either: float32 stays float32 and each pass converts a block to float64
only as it reads it, which is exact, and PAN becomes float64 once, as a
single plane. So on a 512x512 scene the reduced-resolution report peaks
at 4.5 MiB of traced allocations (20.5 with whole float64 copies of its
two inputs, 39.9 with whole-image Laplacians besides) and the
full-resolution report at 3.7 MiB (11.1 with copies). The result is
bit-equal to math.fsum of the elements. A term whose input is not finite,
or so large that sigma or a running sum could overflow, goes to math.fsum
itself, so NaN, infinities and intermediate overflow behave exactly as
they do there.

Each statistic is summed once: ``full_resolution_report`` takes every
band's and PAN's mean and mean square, and the mean product of every pair
of them, in one pass per scale, which D_lambda and D_s then share, and
every Q value comes from one formula.

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
    """x as an array with its rank checked. float32 stays float32 and any
    other type becomes float64; a pass converts each block it reads to
    float64 (exactly), so no metric copies a whole float32 input."""
    a = np.asarray(x)
    if a.dtype != np.float32:
        a = a.astype(np.float64, copy=False)
    if rank is not None and a.ndim != rank:
        raise ShapeError(f"{name} must be rank {rank}, got rank {a.ndim}")
    return a


def _f64(block):
    """A block as float64: a view of float64 input, else an exact copy."""
    return np.asarray(block, dtype=np.float64)


# Each extraction pass removes about 53 - log2(n) bits from every element
# of a block of n; what is left after the cap goes to math.fsum as it is.
_EXTRACT_PASSES = 4

# Elements per block: an operand's block and the two float64 scratch
# buffers of _sums (256 KiB each) stay in a core's L2 cache while every
# pass runs over them.
_BLOCK = 1 << 15

# Terms whose blocks' bounds add up beyond this go to math.fsum whole.
_REACH = 2.0 ** 1023


def _absmax(p):
    return max(p.max(initial=0.0), -p.min(initial=0.0))


def _sums(blocks, terms):
    """Correctly rounded sums of several terms in one pass over blocks.

    ``blocks()`` yields one tuple per block that holds a block of every
    operand, as equally long 1-D float64 arrays. A term ``(i,)`` sums the
    elements of operand i and ``(i, j)`` the products of operands i and j.
    Each result is bit-equal to ``math.fsum`` of the term's elements in
    block order, including its result or error on non-finite input, and
    finite input builds neither the products nor a list. If terms raise
    there, the first of them in ``terms`` raises here.
    """
    pieces = [[] for _ in terms]
    reach = [0.0] * len(terms)
    fallen = set()
    q = p = np.empty(0)
    for ops in blocks():
        n = ops[0].size
        if n > q.size:
            q, p = np.empty(n), np.empty(n)
        qb, pb = q[:n], p[:n]
        nbits = (n + 2).bit_length()
        bound = {}              # each operand's max |.| in this block
        for t, term in enumerate(terms):
            if t in fallen:
                continue
            m = 1.0
            for i in term:
                if i not in bound:
                    bound[i] = _absmax(ops[i])
                # bounds every |x * y| as rounding is monotonic; a loose
                # bound only leaves more to the later passes
                m *= bound[i]
            if m == 0.0:
                continue
            # sigma_1 = 2**top with (n + 2) * m < sigma_1: each q is a
            # multiple of 2**-53 * sigma and their magnitudes add up to
            # less than sigma, so the block's q.sum() and p - q are exact.
            # What is left is at most 2**-53 * sigma_i, below
            # sigma_(i+1) / (n + 2). (A sigma that underflows to 0 meets a
            # remainder already 0.) The blocks' 2**top add up to at most
            # _REACH, so no running sum of the elements overflows in any
            # order, and math.fsum of the exact pieces is the sum.
            top = math.frexp(m)[1] + nbits if math.isfinite(m) else 1024
            if top <= 1023:
                reach[t] += math.ldexp(1.0, top)
            if top > 1023 or reach[t] > _REACH:
                fallen.add(t)
                continue
            x = ops[term[0]]
            if len(term) == 2:
                x = np.multiply(x, ops[term[1]], out=pb)
            for k in range(_EXTRACT_PASSES):
                sigma = math.ldexp(1.0, top - k * (53 - nbits))
                np.add(x, sigma, out=qb)
                qb -= sigma
                # the first pass leaves the caller's operand alone
                x = np.subtract(x, qb, out=pb)
                pieces[t].append(float(qb.sum()))
                if not x.any():
                    break
            else:
                pieces[t] += x[x != 0.0].tolist()
        # the source may build the next block's operands: free these first
        ops = x = None
    if fallen:
        # a second pass lists these terms' elements for math.fsum itself
        for t in fallen:
            pieces[t] = []
        for ops in blocks():
            for t in fallen:
                x = ops[terms[t][0]]
                if len(terms[t]) == 2:
                    x = x * ops[terms[t][1]]
                pieces[t] += x.tolist()
    return [math.fsum(v) for v in pieces]


def _blocked(*arrays):
    """A ``_sums`` block source over equally sized arrays: slices of
    _BLOCK elements of each, in C order."""
    flat = [a.ravel() for a in arrays]
    return lambda: (tuple(_f64(a[s:s + _BLOCK]) for a in flat)
                    for s in range(0, flat[0].size, _BLOCK))


def _moments(blocks, n):
    """(mx, my, vx, vy, cov) of the two operands of a ``_sums`` block
    source with n elements each: means, variances clamped at 0,
    covariance."""
    mx, my, mxx, myy, mxy = (
        s / n for s in _sums(blocks, [(0,), (1,), (0, 0), (1, 1), (0, 1)]))
    vx = max(mxx - mx * mx, 0.0)
    vy = max(myy - my * my, 0.0)
    return mx, my, vx, vy, mxy - mx * my


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
    rows = max(1, _BLOCK // (k * w))     # band stacks of about one block

    def angles():
        for r in range(0, h, rows):
            xb, yb = _f64(x[:, r:r + rows]), _f64(y[:, r:r + rows])
            nx = np.sqrt(np.einsum("khw,khw->hw", xb, xb))
            ny = np.sqrt(np.einsum("khw,khw->hw", yb, yb))
            ok = (nx > 0) & (ny > 0)
            ux = xb / np.where(ok, nx, 1.0)
            uy = yb / np.where(ok, ny, 1.0)
            d = ux - uy
            s = ux + uy
            nd = np.sqrt(np.einsum("khw,khw->hw", d, d))
            ns = np.sqrt(np.einsum("khw,khw->hw", s, s))
            yield (np.where(ok, 2.0 * np.arctan2(nd, ns), 0.0).ravel(),)

    (total,) = _sums(angles, [(0,)])
    return total / (h * w)


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
    bands = x.shape[0]
    xf, yf = x.reshape(bands, -1), y.reshape(bands, -1)
    n = xf.shape[1]

    def blocks():       # each band of X, then each band of X - Y
        for s in range(0, n, _BLOCK):
            xb = _f64(xf[:, s:s + _BLOCK])
            # Y's block is widened inside the subtraction, not copied first
            yield (*xb, *np.subtract(xb, yf[:, s:s + _BLOCK],
                                     dtype=np.float64))

    sums = _sums(blocks, [t for k in range(bands)
                          for t in ((k,), (bands + k, bands + k))])
    total = []
    for k in range(bands):
        mean_k = sums[2 * k] / n
        if mean_k == 0.0:
            raise DegenerateInputError(f"band {k} has zero mean")
        total.append((math.sqrt(sums[2 * k + 1] / n) / mean_k) ** 2)
    return 100.0 * ratio * math.sqrt(math.fsum(total) / bands)


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
    k, h, w = x.shape
    rows = max(1, _BLOCK // (w - 2))

    def laplacians():   # row blocks, in the C order of the whole stacks
        for b in range(k):
            for r in range(0, h - 2, rows):
                yield (_laplacian(_f64(x[b, r:r + rows + 2])).ravel(),
                       _laplacian(_f64(y[b, r:r + rows + 2])).ravel())

    _, _, vx, vy, cov = _moments(laplacians, k * (h - 2) * (w - 2))
    if vx == 0.0 or vy == 0.0:
        raise DegenerateInputError("zero variance after Laplacian filtering")
    return cov / math.sqrt(vx * vy)


class _Planes:
    """Equally sized planes, with every sum the Q index of a listed pair
    of them reads, from one ``_sums`` pass: each plane's mean and mean
    square and each pair's mean product. ``shape`` is that of the band
    stack the planes start with, where d_lambda and d_s check it."""

    def __init__(self, planes, pairs, shape=None):
        self.planes, self.shape = planes, shape
        m = len(planes)
        sums = _sums(_blocked(*planes),
                     [t for i in range(m) for t in ((i,), (i, i))] + pairs)
        means = [v / planes[0].size for v in sums]
        self.mean, self.square = means[0:2 * m:2], means[1:2 * m:2]
        self.product = dict(zip(pairs, means[2 * m:]))

    def q(self, i, j):
        """Q index of planes i and j."""
        mx, my = self.mean[i], self.mean[j]
        vx = max(self.square[i] - mx * mx, 0.0)
        vy = max(self.square[j] - my * my, 0.0)
        sx, sy = math.sqrt(vx), math.sqrt(vy)
        if sx * sy == 0.0:
            same = np.array_equal(self.planes[i], self.planes[j])
            return 1.0 if same else 0.0
        cov = self.product[i, j] - mx * my
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
    return _Planes([x, y], [(0, 1)]).q(0, 1)


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


def _bands(a, name):
    """A band stack, as given by ``full_resolution_report`` or as an
    array."""
    return a if isinstance(a, _Planes) else _arr(a, 3, name)


def _check_d_lambda(ms, fused):
    k = ms.shape[0]
    if k < 2:
        raise ShapeError("d_lambda needs at least 2 bands")
    if fused.shape[0] != k:
        raise ShapeError(f"band counts differ: {k} vs {fused.shape[0]}")
    scale_ratio(ms.shape[1:], fused.shape[1:], "d_lambda")


def _check_d_s(ms, fused, pan):
    """The scale ratio of D_s's inputs, or a ShapeError."""
    if pan.shape[0] != 1:
        raise ShapeError(f"pan must have a single band, got {pan.shape[0]}")
    if fused.shape[0] != ms.shape[0]:
        raise ShapeError(
            f"band counts differ: {ms.shape[0]} vs {fused.shape[0]}")
    if pan.shape[1:] != fused.shape[1:]:
        raise ShapeError(
            f"pan {pan.shape[1:]} does not match fused {fused.shape[1:]}")
    return scale_ratio(ms.shape[1:], fused.shape[1:], "d_s")


def d_lambda(ms, fused):
    """Spectral distortion: mean absolute change of the inter-band Q values
    between scales (exponent p = 1)."""
    ms, fused = _bands(ms, "ms"), _bands(fused, "fused")
    _check_d_lambda(ms, fused)
    # Q is symmetric, so each unordered pair stands for both orders
    pairs = list(itertools.combinations(range(ms.shape[0]), 2))
    if not isinstance(ms, _Planes):     # not summed by the report
        ms, fused = _Planes([*ms], pairs), _Planes([*fused], pairs)
    terms = [abs(ms.q(i, j) - fused.q(i, j)) for i, j in pairs]
    return math.fsum(terms) / len(terms)


def d_s(ms, fused, pan):
    """Spatial distortion: mean absolute change of each band's Q against PAN
    between scales (exponent q = 1)."""
    ms, fused = _bands(ms, "ms"), _bands(fused, "fused")
    pan = _arr(pan, 3, "pan")
    s = _check_d_s(ms, fused, pan)
    k = ms.shape[0]
    pairs = [(i, k) for i in range(k)]      # plane k is PAN at each scale
    if not isinstance(ms, _Planes):         # not summed by the report
        plane = _f64(pan[0])
        ms = _Planes([*ms, wald_downsample(plane, s)], pairs)
        fused = _Planes([*fused, plane], pairs)
    terms = [abs(fused.q(i, k) - ms.q(i, k)) for i in range(k)]
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
    _, _, vx, vy, cov = _moments(_blocked(x, y), x.size)
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
    """QNR with its spectral and spatial distortion components. One pass
    per scale sums what D_lambda and D_s read there: each band's and PAN's
    mean and mean square, and the mean product of every pair of them."""
    ms, pred = _arr(ms, 3, "ms"), _arr(pred, 3, "fused")
    _check_d_lambda(ms, pred)
    pan = _arr(pan, 3, "pan")
    s = _check_d_s(ms, pred, pan)
    pairs = list(itertools.combinations(range(ms.shape[0] + 1), 2))
    plane = _f64(pan[0])        # downsampled in float64, as the sums read it
    ms = _Planes([*ms, wald_downsample(plane, s)], pairs, ms.shape)
    pred = _Planes([*pred, plane], pairs, pred.shape)
    dl = d_lambda(ms, pred)
    ds = d_s(ms, pred, pan)
    return {"qnr": qnr(dl, ds), "d_lambda": dl, "d_s": ds}
