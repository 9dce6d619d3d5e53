"""Damaged input files: truncation at every offset and single-bit flips.

Each decoder either returns a value or raises FormatError or ShapeError
(exit 2 in the CLI); no other exception may escape.
"""

import json
import struct

import numpy as np
import pytest

from msdnpan.data_pipeline import (
    decode_tensor, encode_tensor, generate_dataset, load_manifest,
    tensor_extent,
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


def test_decode_tensor_truncation_and_bit_flips():
    buf = encode_tensor(np.arange(24, dtype=np.float32).reshape(2, 3, 4))
    for end in range(len(buf)):
        with pytest.raises(FormatError):
            decode_tensor(buf[:end])
    for damaged in _flips(buf, range(len(buf))):
        _load_or_reject(decode_tensor, damaged)


def _checkpoint_bytes(tmp_path):
    cfg = TrainConfig(model=ModelConfig(channels=2, memory_slots=2,
                                        nin_depth=1, head_blocks=0))
    model = PansharpenModel(cfg.model, np.random.default_rng(0))
    path = tmp_path / "tiny.msdc"
    save_checkpoint(path, snapshot(model, cfg))
    return path.read_bytes()


def _structure_offsets(buf):
    """Offsets of the checkpoint bytes that are not tensor payload, split
    in two: the binary fields before the first entry name (magic, version,
    header length, entry count, first name length), and the rest (header
    JSON, entry names, name lengths and tensor headers)."""
    (hlen,) = struct.unpack_from("<I", buf, 5)
    pos = 9 + hlen
    (count,) = struct.unpack_from("<I", buf, pos)
    binary = [*range(9), *range(pos, pos + 8)]
    rest = list(range(9, pos))
    pos += 4
    for _ in range(count):
        (nlen,) = struct.unpack_from("<I", buf, pos)
        shape, end = tensor_extent(buf, pos + 4 + nlen)
        rest += range(pos, pos + 4 + nlen + 6 + 4 * len(shape))
        pos = end
    assert pos == len(buf)
    return binary, [i for i in rest if i not in binary]


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
