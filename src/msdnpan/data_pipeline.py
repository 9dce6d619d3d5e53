"""Dataset construction and file I/O.

Scenes are synthesized (rectangles, ellipses, smooth gradients, and a
high-frequency texture that only the panchromatic band carries), then
reduced per Wald's protocol: the generated image is the ground truth, its
block-averaged downsample is the model input, and the high-pass of the
panchromatic band is the detail target. Everything is derived from one
integer seed so datasets are bit-reproducible.

Tensor files (.msdt): magic "MSDT", version byte 1, ndim byte (1-4), then
ndim little-endian uint32 extents, then row-major little-endian float32
values. PPM/PGM export writes binary P6/P5 with per-image min-max scaling.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .classic_fusion import hp_details
from .errors import FormatError, ShapeError
from .tensor_core import Tensor

MAGIC = b"MSDT"
VERSION = 1
TRAIN_FRACTION = 0.9

PAN_WEIGHTS = (0.25, 0.25, 0.25, 0.25)
TEXTURE_KAPPA = 0.1


@dataclass
class SceneSample:
    """One scene: MS input, ground truth, PAN band, and its high-pass."""
    ms: Tensor
    gt: Tensor
    pan: Tensor | None
    hp: Tensor | None
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
    data = img.data if isinstance(img, Tensor) else np.asarray(img)
    if data.ndim < 2:
        raise ShapeError("wald_downsample expects rank >= 2")
    h, w = data.shape[-2:]
    if h % factor or w % factor:
        raise ShapeError(f"extents {h}x{w} not divisible by {factor}")
    if factor > 1:
        shape = data.shape[:-2] + (h // factor, factor, w // factor, factor)
        data = data.reshape(shape).mean(axis=(-3, -1))
    out = np.ascontiguousarray(data)
    return Tensor(out) if isinstance(img, Tensor) else out


def synth_scene(seed, size, bands=4, scale=4, hp_window=5,
                kappa=TEXTURE_KAPPA, weights=PAN_WEIGHTS, sample_id=None):
    """Deterministic synthetic scene at ground-truth resolution `size`.

    The PAN band is the weighted band sum plus kappa times a stripe/noise
    texture; with kappa = 0 it is exactly the weighted sum.
    """
    size = int(size)
    if size % scale:
        raise ShapeError(f"size {size} not divisible by scale {scale}")
    if len(weights) != bands:
        raise ShapeError(f"need {bands} pan weights, got {len(weights)}")
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
    stripes = np.sin(2.0 * np.pi * freq * (xx * np.cos(theta) + yy * np.sin(theta))
                     + phase)
    noise = rng.standard_normal((size, size))
    noise /= max(np.abs(noise).max(), 1e-12)
    texture = 0.6 * stripes + 0.4 * noise

    w = np.asarray(weights, dtype=np.float64).reshape(-1, 1, 1)
    pan = (gt * w).sum(axis=0)
    if kappa:
        pan = np.clip(pan + kappa * texture, 0.0, 1.0)

    gt32 = gt.astype(np.float32)
    pan32 = pan.astype(np.float32)[None]
    ms = wald_downsample(gt32, scale)
    hp = hp_details(Tensor(pan32), hp_window).data
    sid = sample_id if sample_id is not None else f"scene_{seed}"
    return SceneSample(ms=Tensor(ms), gt=Tensor(gt32), pan=Tensor(pan32),
                       hp=Tensor(hp), id=sid)


def augment(sample, mode):
    """Apply the same spatial flip to every tensor of a sample."""
    if mode == "none":
        return sample
    if mode == "hflip":
        axis = -1
    elif mode == "vflip":
        axis = -2
    else:
        raise ValueError(f"unknown augmentation mode {mode!r}")

    def flip(t):
        if t is None:
            return None
        return Tensor(np.ascontiguousarray(np.flip(t.data, axis=axis)))

    return SceneSample(ms=flip(sample.ms), gt=flip(sample.gt),
                       pan=flip(sample.pan), hp=flip(sample.hp), id=sample.id)


# ---------------------------------------------------------------------------
# tensor file format

def encode_tensor(arr):
    """Serialize an array as .msdt bytes (values stored as float32)."""
    a = np.ascontiguousarray(arr.data if isinstance(arr, Tensor) else arr)
    if a.ndim < 1 or a.ndim > 4:
        raise FormatError(f"tensor rank {a.ndim} outside the supported 1..4")
    if any(s >= 2 ** 32 for s in a.shape):
        raise FormatError("tensor extent overflows the 32-bit header field")
    out = bytearray()
    out += MAGIC
    out += bytes((VERSION, a.ndim))
    for s in a.shape:
        out += struct.pack("<I", s)
    out += a.astype("<f4", copy=False).tobytes()
    return bytes(out)


def tensor_extent(buf, offset=0, source="<bytes>"):
    """Shape and end offset of the .msdt blob that starts at buf[offset].

    Reads the rank byte and the extents only; decode_tensor checks the
    magic, the version and the payload length.
    """
    if len(buf) < offset + 6:
        raise FormatError(f"{source}: truncated tensor header")
    ndim = buf[offset + 5]
    if not 1 <= ndim <= 4:
        raise FormatError(f"{source}: invalid tensor rank {ndim}")
    header_end = offset + 6 + 4 * ndim
    if len(buf) < header_end:
        raise FormatError(f"{source}: truncated tensor extents")
    shape = struct.unpack_from(f"<{ndim}I", buf, offset + 6)
    return shape, header_end + 4 * math.prod(shape)


def decode_tensor(buf, source="<bytes>"):
    """Parse .msdt bytes back into a float32 array."""
    if len(buf) < 6 or buf[:4] != MAGIC:
        raise FormatError(f"{source}: not a tensor file (bad magic)")
    if buf[4] != VERSION:
        raise FormatError(f"{source}: unsupported version {buf[4]}")
    shape, expected = tensor_extent(buf, 0, source)
    if len(buf) != expected:
        raise FormatError(
            f"{source}: expected {expected} bytes for shape {shape}, "
            f"got {len(buf)}")
    data = np.frombuffer(buf, dtype="<f4", offset=6 + 4 * len(shape),
                         count=math.prod(shape))
    return data.reshape(shape).copy()


def save_tensor(path, t):
    Path(path).write_bytes(encode_tensor(t))


def load_tensor(path):
    try:
        buf = Path(path).read_bytes()
    except FileNotFoundError:
        raise FormatError(f"{path}: no such file") from None
    return Tensor(decode_tensor(buf, source=str(path)))


def export_ppm(path, img):
    """Write a 1-channel PGM (P5) or 3-channel PPM (P6), maxval 255.

    Values are min-max scaled over the whole image and rounded half-up;
    a constant image maps to all zeros.
    """
    data = np.asarray(img.data if isinstance(img, Tensor) else img,
                      dtype=np.float64)
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


def generate_dataset(root, count, size, seed, scale=4, hp_window=5,
                     kappa=TEXTURE_KAPPA):
    """Write `count` scenes plus manifest.json under `root`. The arguments
    are checked before anything is created."""
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
    rootp.mkdir(parents=True, exist_ok=True)
    ids, split = [], {}
    for i in range(count):
        sid = f"scene_{i:04d}"
        sample = synth_scene(_scene_seed(seed, i), size, scale=scale,
                             hp_window=hp_window, kappa=kappa, sample_id=sid)
        d = rootp / sid
        d.mkdir(exist_ok=True)
        save_tensor(d / "ms.msdt", sample.ms)
        save_tensor(d / "gt.msdt", sample.gt)
        save_tensor(d / "pan.msdt", sample.pan)
        save_tensor(d / "hp.msdt", sample.hp)
        ids.append(sid)
        split[sid] = split_of(seed, sid)
    params = {"count": count, "size": size, "scale": scale,
              "hp_window": hp_window, "kappa": kappa}
    manifest = DatasetManifest(root=str(root), ids=ids, split=split,
                               seed=int(seed), params=params)
    payload = {"version": 1, "seed": manifest.seed, "ids": ids,
               "split": split, "params": params}
    (rootp / "manifest.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return manifest


def load_manifest(root):
    path = Path(root) / "manifest.json"
    try:
        payload = json.loads(path.read_bytes())
    except FileNotFoundError:
        raise FormatError(f"{path}: no such file") from None
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise FormatError(f"{path}: invalid JSON ({e})") from None
    if not isinstance(payload, dict):
        raise FormatError(f"{path}: expected a JSON object")
    for key in ("version", "seed", "ids", "split", "params"):
        if key not in payload:
            raise FormatError(f"{path}: missing key {key!r}")
    ids, split, seed = payload["ids"], payload["split"], payload["seed"]
    if not (isinstance(ids, list) and all(isinstance(i, str) for i in ids)):
        raise FormatError(f"{path}: 'ids' must be a list of strings")
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
    d = Path(root) / sample_id
    ms = load_tensor(d / "ms.msdt")
    gt = load_tensor(d / "gt.msdt")
    hp = load_tensor(d / "hp.msdt")
    pan = load_tensor(d / "pan.msdt") if with_pan else None
    return SceneSample(ms=ms, gt=gt, pan=pan, hp=hp, id=sample_id)


def load_split(manifest, which, with_pan=False):
    """Samples of one split, ordered by id for deterministic batching."""
    ids = manifest.train_ids() if which == "train" else manifest.test_ids()
    return [load_sample(manifest.root, sid, with_pan=with_pan)
            for sid in sorted(ids)]
