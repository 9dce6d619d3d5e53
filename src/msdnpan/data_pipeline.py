"""Dataset construction and file I/O.

Scenes are synthesized (rectangles, ellipses, smooth gradients, and a
high-frequency texture that only the panchromatic band carries), then
reduced per Wald's protocol: the generated image is the ground truth, its
block-averaged downsample is the model input, and the high-pass of the
panchromatic band is the detail target. Everything is derived from one
integer seed so datasets are bit-reproducible. A SceneSample holds plain
float32 arrays; the trainer stacks and flips them per batch.

Tensor files (.msdt): magic "MSDT", version byte 1, ndim byte (1-4), then
ndim little-endian uint32 extents, then row-major little-endian float32
values. Only this module knows that layout: `write_blob` and `read_blob`
move one such blob through a binary file object, for .msdt files and for
the blobs of a checkpoint alike. The writer hands the file the array's own
buffer, and the reader checks the header and the payload length against
what is left of the file before it allocates the array it reads into, so
neither holds a second copy of the values. PPM/PGM export writes binary
P6/P5 with per-image min-max scaling.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .classic_fusion import hp_details
from .errors import FormatError, NumericError, ShapeError
from .tensor_core import Tensor

MAGIC = b"MSDT"
VERSION = 1
MANIFEST_VERSION = 1
TRAIN_FRACTION = 0.9

PAN_WEIGHTS = (0.25, 0.25, 0.25, 0.25)
TEXTURE_KAPPA = 0.1


@dataclass
class SceneSample:
    """One scene's float32 arrays: MS input, ground truth, PAN, high-pass."""
    ms: np.ndarray
    gt: np.ndarray
    pan: np.ndarray | None
    hp: np.ndarray | None
    id: str


@dataclass
class DatasetManifest:
    root: str
    ids: list
    split: dict
    seed: int
    params: dict = field(default_factory=dict)

    def train_ids(self):
        return [i for i in self.ids if self.split[i] == "train"]

    def test_ids(self):
        return [i for i in self.ids if self.split[i] == "test"]


def wald_downsample(img, factor):
    """Block-average the last two axes by an integer factor."""
    factor = int(factor)
    if factor < 1:
        raise ShapeError(f"factor must be >= 1, got {factor}")
    data = np.asarray(img)
    if data.ndim < 2:
        raise ShapeError("wald_downsample expects rank >= 2")
    h, w = data.shape[-2:]
    if h % factor or w % factor:
        raise ShapeError(f"extents {h}x{w} not divisible by {factor}")
    if factor > 1:
        shape = data.shape[:-2] + (h // factor, factor, w // factor, factor)
        data = data.reshape(shape).mean(axis=(-3, -1))
    return np.ascontiguousarray(data)


def synth_scene(seed, size, scale=4, hp_window=5, kappa=TEXTURE_KAPPA,
                sample_id=None):
    """Deterministic synthetic scene at ground-truth resolution `size`.

    The PAN band is the PAN_WEIGHTS sum of the bands plus kappa times a
    stripe/noise texture; with kappa = 0 it is exactly the weighted sum.
    """
    size = int(size)
    if size % scale:
        raise ShapeError(f"size {size} not divisible by scale {scale}")
    bands = len(PAN_WEIGHTS)
    rng = np.random.default_rng(seed)
    grid = (np.arange(size) + 0.5) / size
    yy = grid[:, None]
    xx = grid[None, :]

    gt = np.empty((bands, size, size))
    for b in range(bands):
        base = rng.uniform(0.2, 0.5)
        gx, gy = rng.uniform(-0.25, 0.25, size=2)
        gt[b] = base + gx * xx + gy * yy

    for _ in range(int(rng.integers(4, 8))):
        kind = int(rng.integers(0, 2))
        cx, cy = rng.uniform(0.15, 0.85, size=2)
        rx, ry = rng.uniform(0.08, 0.3, size=2)
        refl = rng.uniform(0.05, 0.95, size=bands)
        alpha = rng.uniform(0.6, 1.0)
        if kind == 0:
            mask = (np.abs(xx - cx) <= rx) & (np.abs(yy - cy) <= ry)
        else:
            mask = ((xx - cx) / rx) ** 2 + ((yy - cy) / ry) ** 2 <= 1.0
        for b in range(bands):
            band = gt[b]
            band[mask] = (1.0 - alpha) * band[mask] + alpha * refl[b]
    np.clip(gt, 0.0, 1.0, out=gt)

    theta = rng.uniform(0.0, np.pi)
    freq = rng.uniform(6.0, 14.0)
    phase = rng.uniform(0.0, 2.0 * np.pi)
    # 0.6 sin(2 pi freq (x cos theta + y sin theta) + phase) + 0.4 noise,
    # built in place
    texture = xx * np.cos(theta) + yy * np.sin(theta)
    texture *= 2.0 * np.pi * freq
    texture += phase
    np.sin(texture, out=texture)
    texture *= 0.6
    noise = rng.standard_normal((size, size))
    noise /= max(np.abs(noise).max(), 1e-12)
    noise *= 0.4
    texture += noise
    del noise

    # the weighted band sum, band by band in the order sum(axis=0) adds
    pan = gt[0] * PAN_WEIGHTS[0]
    for b in range(1, bands):
        pan += gt[b] * PAN_WEIGHTS[b]
    if kappa:
        texture *= kappa
        pan += texture
        np.clip(pan, 0.0, 1.0, out=pan)
    del texture

    gt32 = gt.astype(np.float32)
    del gt
    pan32 = pan.astype(np.float32)[None]
    del pan
    ms = wald_downsample(gt32, scale)
    hp = hp_details(pan32, hp_window)
    sid = sample_id if sample_id is not None else f"scene_{seed}"
    return SceneSample(ms=ms, gt=gt32, pan=pan32, hp=hp, id=sid)


# ---------------------------------------------------------------------------
# tensor file format

def _blob_array(arr):
    """arr as the C-contiguous little-endian float32 array an .msdt blob
    stores (arr itself when it is one already); FormatError when no header
    can describe it."""
    a = np.ascontiguousarray(arr, dtype="<f4")
    if a.ndim < 1 or a.ndim > 4:
        raise FormatError(f"tensor rank {a.ndim} outside the supported 1..4")
    if any(s >= 2 ** 32 for s in a.shape):
        raise FormatError("tensor extent overflows the 32-bit header field")
    return a


def write_blob(f, arr):
    """Write arr to the binary file object f as one .msdt blob: the header,
    then the buffer of its float32 values, with no copy when arr already
    is contiguous little-endian float32."""
    a = _blob_array(arr)
    f.write(MAGIC + bytes((VERSION, a.ndim))
            + struct.pack(f"<{a.ndim}I", *a.shape))
    f.write(a.reshape(-1).view(np.uint8))


def read_blob(f, left, source, whole=False):
    """Read the .msdt blob at the position of the binary file object f,
    of which `left` bytes remain, into one fresh float32 array.

    The header is checked, then the payload length against `left` (with
    `whole`, the blob must be all of it), and only then is the array
    allocated and the payload read straight into it, so a header that
    claims more than the file holds raises FormatError, never MemoryError.
    """
    head = f.read(6)
    if len(head) < 6 or head[:4] != MAGIC:
        raise FormatError(f"{source}: not a tensor file (bad magic)")
    if head[4] != VERSION:
        raise FormatError(f"{source}: unsupported version {head[4]}")
    ndim = head[5]
    if not 1 <= ndim <= 4:
        raise FormatError(f"{source}: invalid tensor rank {ndim}")
    extents = f.read(4 * ndim)
    if len(extents) < 4 * ndim:
        raise FormatError(f"{source}: truncated tensor extents")
    shape = struct.unpack(f"<{ndim}I", extents)
    expected = 6 + 4 * ndim + 4 * math.prod(shape)
    if expected > left or (whole and expected != left):
        raise FormatError(f"{source}: expected {expected} bytes for shape "
                          f"{shape}, got {left}")
    out = np.empty(shape, dtype="<f4")
    if f.readinto(out.reshape(-1).view(np.uint8)) != out.nbytes:
        raise FormatError(f"{source}: file shrank while it was read")
    return out


def save_tensor(path, t):
    """Write t to path as an .msdt file; its rank and extents are checked
    before the file is opened."""
    a = _blob_array(t)
    with open(path, "wb") as f:
        write_blob(f, a)


def load_tensor(path):
    """Read an .msdt file into a Tensor holding a fresh float32 array."""
    try:
        f = open(path, "rb")
    except FileNotFoundError:
        raise FormatError(f"{path}: no such file") from None
    with f:
        return Tensor(read_blob(f, os.fstat(f.fileno()).st_size, str(path),
                                whole=True))


def check_image(arr, source):
    """Return arr if it is a non-empty rank-3 (bands, h, w) array of finite
    values; else raise ShapeError (rank or size) or NumericError (NaN or
    inf) naming source."""
    if arr.ndim != 3 or arr.size == 0:
        raise ShapeError(f"{source}: expected a non-empty rank-3 tensor "
                         f"(bands, h, w), got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise NumericError(f"{source}: input contains NaN or inf")
    return arr


def export_ppm(path, img):
    """Write a 1-channel PGM (P5) or 3-channel PPM (P6), maxval 255.

    Values are min-max scaled over the whole image and rounded half-up;
    a constant image maps to all zeros.
    """
    data = np.asarray(img, dtype=np.float64)
    if data.ndim != 3 or data.shape[0] not in (1, 3):
        raise ShapeError(f"export_ppm expects (1|3, h, w), got {data.shape}")
    lo, hi = data.min(), data.max()
    if hi > lo:
        scaled = (data - lo) / (hi - lo) * 255.0
        pixels = np.floor(scaled + 0.5).clip(0, 255).astype(np.uint8)
    else:
        pixels = np.zeros(data.shape, dtype=np.uint8)
    c, h, w = data.shape
    kind = b"P5" if c == 1 else b"P6"
    header = kind + f"\n{w} {h}\n255\n".encode("ascii")
    body = pixels[0] if c == 1 else np.moveaxis(pixels, 0, -1)
    Path(path).write_bytes(header + np.ascontiguousarray(body).tobytes())


# ---------------------------------------------------------------------------
# dataset layout

def split_of(seed, sample_id):
    """Deterministic 90/10 assignment from (seed, id) alone."""
    digest = hashlib.sha256(f"{seed}:{sample_id}".encode()).digest()
    frac = int.from_bytes(digest[:8], "big") / 2.0 ** 64
    return "train" if frac < TRAIN_FRACTION else "test"


def _scene_seed(seed, index):
    # spreads dataset seeds so nearby dataset/indexes do not collide
    return int(seed) * 100003 + int(index)


def generate_dataset(root, count, size, seed, scale=4, hp_window=5):
    """Write `count` scenes plus manifest.json under `root`. The arguments
    are checked, and the first scene built, before anything is created."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if scale < 1:
        raise ValueError(f"scale must be >= 1, got {scale}")
    if size < 1 or size % scale:
        raise ValueError(
            f"size must be a positive multiple of scale {scale}, got {size}")
    if hp_window < 1 or hp_window % 2 == 0:
        raise ValueError(
            f"hp_window must be odd and positive, got {hp_window}")
    rootp = Path(root)
    ids, split = [], {}
    for i in range(count):
        sid = f"scene_{i:04d}"
        sample = synth_scene(_scene_seed(seed, i), size, scale=scale,
                             hp_window=hp_window, sample_id=sid)
        d = rootp / sid
        d.mkdir(parents=True, exist_ok=True)
        save_tensor(d / "ms.msdt", sample.ms)
        save_tensor(d / "gt.msdt", sample.gt)
        save_tensor(d / "pan.msdt", sample.pan)
        save_tensor(d / "hp.msdt", sample.hp)
        ids.append(sid)
        split[sid] = split_of(seed, sid)
    params = {"count": count, "size": size, "scale": scale,
              "hp_window": hp_window, "kappa": TEXTURE_KAPPA}
    manifest = DatasetManifest(root=str(root), ids=ids, split=split,
                               seed=int(seed), params=params)
    payload = {"version": MANIFEST_VERSION, "seed": manifest.seed, "ids": ids,
               "split": split, "params": params}
    (rootp / "manifest.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return manifest


def read_json(raw, what):
    """Parse JSON bytes; bytes that are not JSON text, nest too deeply or
    hold too long an integer raise FormatError(f"{what} (reason)")."""
    try:
        return json.loads(raw)
    except (ValueError, RecursionError) as e:
        raise FormatError(f"{what} ({e})") from None


def load_manifest(root):
    path = Path(root) / "manifest.json"
    try:
        raw = path.read_bytes()
    except FileNotFoundError:
        raise FormatError(f"{path}: no such file") from None
    payload = read_json(raw, f"{path}: invalid JSON")
    if not isinstance(payload, dict):
        raise FormatError(f"{path}: expected a JSON object")
    for key in ("version", "seed", "ids", "split", "params"):
        if key not in payload:
            raise FormatError(f"{path}: missing key {key!r}")
    version = payload["version"]
    if type(version) is not int or version != MANIFEST_VERSION:
        raise FormatError(f"{path}: unsupported manifest version {version!r} "
                          f"(expected {MANIFEST_VERSION})")
    ids, split, seed = payload["ids"], payload["split"], payload["seed"]
    if not (isinstance(ids, list) and all(isinstance(i, str) for i in ids)):
        raise FormatError(f"{path}: 'ids' must be a list of strings")
    seen = set()
    for i in ids:
        # an id names one directory under the root; "/" and "\\" also
        # rule out absolute paths
        if i in ("", ".", "..") or "/" in i or "\\" in i:
            raise FormatError(
                f"{path}: id {i!r} is not a plain directory name")
        if i in seen:
            raise FormatError(f"{path}: id {i!r} is listed twice")
        seen.add(i)
    if not (isinstance(split, dict)
            and all(split.get(i) in ("train", "test") for i in ids)):
        raise FormatError(
            f"{path}: 'split' must map every id to 'train' or 'test'")
    if type(seed) is not int:
        raise FormatError(f"{path}: 'seed' must be an integer, got {seed!r}")
    if not isinstance(payload["params"], dict):
        raise FormatError(f"{path}: 'params' must be an object")
    return DatasetManifest(root=str(root), ids=ids, split=split, seed=seed,
                           params=payload["params"])


def load_sample(root, sample_id, with_pan=True):
    """One scene's arrays, each passed through `check_image`."""
    d = Path(root) / sample_id

    def read(name):
        path = d / f"{name}.msdt"
        return check_image(load_tensor(path).data, path)

    return SceneSample(ms=read("ms"), gt=read("gt"), hp=read("hp"),
                       pan=read("pan") if with_pan else None, id=sample_id)


def load_split(manifest, which, with_pan=False):
    """Samples of one split, ordered by id for deterministic batching."""
    ids = manifest.train_ids() if which == "train" else manifest.test_ids()
    return [load_sample(manifest.root, sid, with_pan=with_pan)
            for sid in sorted(ids)]
