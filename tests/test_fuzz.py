"""Damaged input files: truncation at every offset and single-bit flips.

Each decoder either returns a value or raises FormatError or ShapeError
(exit 2 in the CLI); no other exception may escape.
"""

import io
import json
import struct

import numpy as np
import pytest

from msdnpan.data_pipeline import (
    generate_dataset, load_manifest, load_tensor, read_blob, save_tensor,
)
from msdnpan.errors import FormatError, ShapeError
from msdnpan.injection_net import ModelConfig, PansharpenModel
from msdnpan.trainer import (
    TrainConfig, load_checkpoint, save_checkpoint, snapshot,
)

DAMAGE = (FormatError, ShapeError)


def _flips(buf, positions, every_bit=True):
    """Copies of buf with one bit flipped: every bit of each position, or
    one bit per position, the bit index cycling with the position's rank."""
    for i, pos in enumerate(positions):
        for bit in range(8) if every_bit else (i % 8,):
            out = bytearray(buf)
            out[pos] ^= 1 << bit
            yield bytes(out)


def _load_or_reject(load, buf):
    try:
        load(buf)
    except DAMAGE:
        pass


def test_decode_tensor_truncation_and_bit_flips(tmp_path):
    path = tmp_path / "t.msdt"
    save_tensor(path, np.arange(24, dtype=np.float32).reshape(2, 3, 4))
    buf = path.read_bytes()

    def load(data):
        path.write_bytes(data)
        return load_tensor(path)

    for end in range(len(buf)):
        with pytest.raises(FormatError):
            load(buf[:end])
    for damaged in _flips(buf, range(len(buf))):
        _load_or_reject(load, damaged)


def _checkpoint_bytes(tmp_path):
    cfg = TrainConfig(model=ModelConfig(channels=2, memory_slots=2,
                                        nin_depth=1, head_blocks=0))
    model = PansharpenModel(cfg.model, np.random.default_rng(0))
    path = tmp_path / "tiny.msdc"
    save_checkpoint(path, snapshot(model, cfg))
    return path.read_bytes()


def _structure_offsets(buf):
    """Offsets of the checkpoint bytes that are not tensor payload, split
    in two: the 9 fixed bytes (magic, version, header length), and the rest
    (header JSON and each tensor blob's header)."""
    (hlen,) = struct.unpack_from("<I", buf, 5)
    pos = 9 + hlen
    rest = list(range(9, pos))
    f = io.BytesIO(buf)
    f.seek(pos)
    for _ in json.loads(buf[9:pos])["params"]:
        ndim = read_blob(f, len(buf) - pos, "<bytes>").ndim
        rest += range(pos, pos + 6 + 4 * ndim)
        pos = f.tell()
    assert pos == len(buf)
    return list(range(9)), rest


def test_load_checkpoint_truncation_and_bit_flips(tmp_path):
    buf = _checkpoint_bytes(tmp_path)
    path = tmp_path / "damaged.msdc"

    def load(data):
        path.write_bytes(data)
        return load_checkpoint(path)

    assert load(buf).params
    for end in range(len(buf)):
        with pytest.raises(FormatError):
            load(buf[:end])
    binary, rest = _structure_offsets(buf)
    for damaged in _flips(buf, binary):
        _load_or_reject(load, damaged)
    for damaged in _flips(buf, rest, every_bit=False):
        _load_or_reject(load, damaged)


def test_load_manifest_truncation_and_bit_flips(tmp_path):
    root = tmp_path / "d"
    generate_dataset(root, count=2, size=4, seed=0)
    path = root / "manifest.json"
    buf = path.read_bytes()
    assert json.loads(buf)["ids"] == ["scene_0000", "scene_0001"]

    def load(data):
        path.write_bytes(data)
        return load_manifest(root)

    for end in range(len(buf.rstrip())):     # the JSON ends before the newline
        with pytest.raises(FormatError):
            load(buf[:end])
    for damaged in _flips(buf, range(len(buf))):
        _load_or_reject(load, damaged)
