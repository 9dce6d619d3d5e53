"""Optimizer, schedule, checkpoint format, and end-to-end training runs."""

import json
import math
import os
import struct
from pathlib import Path

import numpy as np
import pytest

from msdnpan.cli import main
from msdnpan.data_pipeline import (
    SceneSample, encode_tensor, save_tensor, synth_scene, tensor_extent,
)
from msdnpan.errors import FormatError
from msdnpan.injection_net import pansharpen
from msdnpan.tensor_core import Tensor, parameter
from msdnpan.trainer import (
    AdamState, TrainConfig, adam_step, desk_config, load_checkpoint, lr_at,
    model_from_checkpoint, save_checkpoint, train,
)


def _scenes(n, size=16, seed0=100):
    return [synth_scene(seed0 + i, size, sample_id=f"s{i:02d}")
            for i in range(n)]


def _tiny_config(**overrides):
    base = dict(epochs=2, batch_size=2, channels=8, memory_slots=8,
                nin_depth=1, augment=False, seed=4)
    base.update(overrides)
    return desk_config(**base)


# ---------------------------------------------------------------------------
# schedule

def test_lr_schedule_steps():
    cfg = TrainConfig(lr=4e-4, decay_every=50, decay_factor=0.5)
    assert lr_at(0, cfg) == 4e-4
    assert lr_at(49, cfg) == 4e-4
    assert lr_at(50, cfg) == 2e-4
    assert lr_at(99, cfg) == 2e-4
    assert lr_at(100, cfg) == 1e-4
    with pytest.raises(ValueError):
        lr_at(-1, cfg)


@pytest.mark.parametrize("field, value", [
    ("lr", math.nan), ("lr", math.inf), ("lr", 0.0),
    ("loss_weight", math.nan), ("loss_weight", math.inf), ("loss_weight", -1.0),
    ("decay_factor", math.nan), ("decay_factor", -math.inf),
])
def test_config_validation(field, value):
    with pytest.raises(ValueError):
        TrainConfig(**{field: value}).validate()


# ---------------------------------------------------------------------------
# Adam

def test_adam_hand_step():
    p = parameter("w", np.array([1.0]))
    p.grad[...] = 1.0
    state = AdamState([p])
    adam_step(state, 0.1)
    # bias correction makes both moment ratios exactly 1 on the first step
    assert abs(p.data[0] - (1.0 - 0.1 / (1.0 + 1e-8))) < 1e-15
    assert state.step_count == 1
    assert np.all(p.grad == 0.0)

    p.grad[...] = 1.0                    # constant gradient: same step size
    adam_step(state, 0.1)
    assert abs(p.data[0] - (1.0 - 2.0 * (0.1 / (1.0 + 1e-8)))) < 1e-12


def test_adam_rejects_missing_grad():
    p = parameter("w", np.zeros(2))
    p.grad = None
    with pytest.raises(ValueError):
        adam_step(AdamState([p]), 0.1)


# ---------------------------------------------------------------------------
# checkpoint format

def _entry_names(raw):
    """Entry names of a checkpoint file, in stored order."""
    (hlen,) = struct.unpack_from("<I", raw, 5)
    pos = 9 + hlen
    (count,) = struct.unpack_from("<I", raw, pos)
    pos += 4
    names = []
    for _ in range(count):
        (nlen,) = struct.unpack_from("<I", raw, pos)
        names.append(raw[pos + 4:pos + 4 + nlen].decode("utf-8"))
        _, pos = tensor_extent(raw, pos + 4 + nlen)
    assert pos == len(raw)
    return names


def test_checkpoint_round_trip(tmp_path):
    cfg = _tiny_config()
    final = train(_scenes(2), cfg)
    path = tmp_path / "model.msdc"
    save_checkpoint(path, final)
    back = load_checkpoint(path)

    assert back.epoch == final.epoch == 2
    assert back.step == final.step == 2
    assert back.config == cfg
    assert set(back.params) == set(final.params)
    for name, arr in final.params.items():
        assert np.array_equal(back.params[name], arr.astype(np.float32))
    raw = path.read_bytes()
    names = _entry_names(raw)           # parameters only, no optimizer state
    assert len(names) == len(final.params)
    assert all(n.startswith("param.") for n in names)
    (hlen,) = struct.unpack_from("<I", raw, 5)
    header = json.loads(raw[9:9 + hlen])
    assert header["rng"] == {"seed": cfg.seed, "epoch": 2, "step": 2}


def test_failed_checkpoint_write_keeps_previous(tmp_path, monkeypatch):
    final = train(_scenes(2), _tiny_config(epochs=1))
    path = tmp_path / "model.msdc"
    save_checkpoint(path, final)
    before = path.read_bytes()
    write_bytes = Path.write_bytes

    def torn_write(self, data):
        write_bytes(self, bytes(data[:len(data) // 2]))
        raise OSError("no space left on device")

    monkeypatch.setattr(Path, "write_bytes", torn_write)
    final.step += 1
    with pytest.raises(OSError):
        save_checkpoint(path, final)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert load_checkpoint(path).step == final.step - 1
    assert os.listdir(tmp_path) == ["model.msdc"]


def test_checkpoint_error_battery(tmp_path):
    cfg = _tiny_config(epochs=1)
    final = train(_scenes(2), cfg)
    path = tmp_path / "model.msdc"
    save_checkpoint(path, final)
    raw = path.read_bytes()

    with pytest.raises(FormatError):
        load_checkpoint(tmp_path / "missing.msdc")

    bad = tmp_path / "bad.msdc"
    bad.write_bytes(b"NOPE" + raw[4:])
    with pytest.raises(FormatError):
        load_checkpoint(bad)

    bad.write_bytes(raw[:4] + bytes([raw[4] + 1]) + raw[5:])
    with pytest.raises(FormatError) as err:
        load_checkpoint(bad)
    assert "version" in str(err.value)

    bad.write_bytes(raw[:-8])
    with pytest.raises(FormatError):
        load_checkpoint(bad)

    bad.write_bytes(raw + b"\x00\x00")
    with pytest.raises(FormatError):
        load_checkpoint(bad)

    (hlen,) = struct.unpack_from("<I", raw, 5)
    first_name = 9 + hlen + 4 + 4
    bad.write_bytes(raw[:first_name] + b"\xff" + raw[first_name + 1:])
    with pytest.raises(FormatError) as err:
        load_checkpoint(bad)
    assert "UTF-8" in str(err.value)


def _with_extra_entry(tmp_path, prefix, value_of):
    """Train a tiny model, save it, and write a copy with one more entry,
    prefix + first parameter name holding value_of(its value), appended and
    counted."""
    final = train(_scenes(2), _tiny_config(epochs=1))
    path = tmp_path / "model.msdc"
    save_checkpoint(path, final)
    raw = path.read_bytes()
    (hlen,) = struct.unpack_from("<I", raw, 5)
    (count,) = struct.unpack_from("<I", raw, 9 + hlen)
    name = sorted(final.params)[0]
    entry = (prefix + name).encode("utf-8")
    bad = tmp_path / "bad.msdc"
    bad.write_bytes(raw[:9 + hlen] + struct.pack("<I", count + 1)
                    + raw[9 + hlen + 4:] + struct.pack("<I", len(entry))
                    + entry + encode_tensor(value_of(final.params[name])))
    return bad


def _infer_exits_2_without_output(tmp_path, ckpt):
    ms, out = tmp_path / "ms.msdt", tmp_path / "out.msdt"
    save_tensor(ms, np.full((4, 8, 8), 0.5, np.float32))
    assert main(["infer", "--ckpt", str(ckpt), "--ms", str(ms),
                 "--out", str(out)]) == 2
    assert not out.exists()


def test_checkpoint_with_adam_entry_is_rejected(tmp_path):
    # Checkpoints once also stored Adam moments as adam.m.* / adam.v.*
    # entries; such a file is now a format error, and infer exits 2.
    old = _with_extra_entry(tmp_path, "adam.m.", np.zeros_like)
    with pytest.raises(FormatError) as err:
        load_checkpoint(old)
    assert "unknown entry" in str(err.value)
    _infer_exits_2_without_output(tmp_path, old)


def test_checkpoint_with_duplicate_entry_is_rejected(tmp_path):
    # a second copy of the first param.* entry must not silently win
    dup = _with_extra_entry(tmp_path, "param.", np.copy)
    first = _entry_names(dup.read_bytes())[0]
    with pytest.raises(FormatError) as err:
        load_checkpoint(dup)
    assert "duplicate entry" in str(err.value) and first in str(err.value)
    _infer_exits_2_without_output(tmp_path, dup)


def test_model_from_checkpoint_matches_and_validates(tmp_path, monkeypatch):
    cfg = _tiny_config()
    scenes = _scenes(3)
    final = train(scenes, cfg)
    path = tmp_path / "model.msdc"
    save_checkpoint(path, final)

    # every value is copied in from the file, so loading draws nothing
    def no_draws(*args, **kwargs):
        raise AssertionError("model_from_checkpoint created a generator")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    monkeypatch.setattr(np.random, "normal", no_draws)
    restored = model_from_checkpoint(load_checkpoint(path))
    for name, p in restored.named_parameters().items():
        assert p.data.dtype == final.params[name].dtype
        assert np.array_equal(p.data, final.params[name]), name

    ms = Tensor(scenes[0].ms.data[None])
    direct = model_from_checkpoint(final)
    assert np.array_equal(pansharpen(ms, restored).data,
                          pansharpen(ms, direct).data)

    broken = load_checkpoint(path)
    broken.params.pop(sorted(broken.params)[0])
    with pytest.raises(FormatError):
        model_from_checkpoint(broken)

    broken = load_checkpoint(path)
    first = sorted(broken.params)[0]
    broken.params[first] = np.zeros((1, 1), np.float32)
    with pytest.raises(FormatError):
        model_from_checkpoint(broken)


def test_updates_write_into_parameter_buffers():
    cfg = _tiny_config(epochs=1)
    final = train(_scenes(2), cfg)
    stored = final.params = {k: v.astype(np.float64)
                             for k, v in final.params.items()}
    model = model_from_checkpoint(final)
    params = model.parameters()
    buffers = [p.data for p in params]
    for p, b in zip(params, buffers):
        assert b.dtype == np.float32 and b is not stored[p.name]
        np.testing.assert_array_equal(b, stored[p.name])

    state = AdamState(params)
    for p in params:
        p.grad[...] = 1.0
    adam_step(state, 0.1)
    for p, b in zip(params, buffers):
        assert p.data is b and p.data.dtype == np.float32
        assert not np.array_equal(b, stored[p.name])
        assert np.all(p.grad == 0.0)


# ---------------------------------------------------------------------------
# training loop behaviour

def test_training_is_bit_deterministic():
    scenes = _scenes(4)
    cfg = _tiny_config(augment=True)
    a = train(scenes, cfg)
    b = train(scenes, _tiny_config(augment=True))
    assert set(a.params) == set(b.params)
    for name in a.params:
        assert np.array_equal(a.params[name], b.params[name]), name
    c = train(scenes, _tiny_config(augment=True, seed=5))
    assert any(not np.array_equal(a.params[n], c.params[n]) for n in a.params)


def test_hooks_logs_and_periodic_checkpoints(tmp_path):
    scenes = _scenes(4)
    cfg = _tiny_config(epochs=4, batch_size=4)
    seen_steps, logs = [], []

    def hook(model, epoch, step, record):
        assert set(record) == {"l1", "l_mem", "total"}
        seen_steps.append(step)

    path = tmp_path / "periodic.msdc"
    final = train(scenes, cfg, log_fn=logs.append, hook=hook,
                  checkpoint_path=path, checkpoint_every=2)
    assert seen_steps == [1, 2, 3, 4]
    assert [g["epoch"] for g in logs] == [0, 1, 2, 3]
    assert all(set(g) == {"epoch", "step", "l1", "l_mem", "total"}
               for g in logs)
    assert final.step == 4
    back = load_checkpoint(path)          # final overwrite of the periodic file
    assert back.step == 4 and back.epoch == 4


def test_train_input_validation():
    cfg = _tiny_config()
    with pytest.raises(ValueError):
        train([], cfg)
    s = synth_scene(1, 16, sample_id="nohp")
    bad = SceneSample(ms=s.ms, gt=s.gt, pan=s.pan, hp=None, id="nohp")
    with pytest.raises(ValueError):
        train([bad], cfg)
    with pytest.raises(ValueError):
        train([s], _tiny_config(lr=-1.0))
    with pytest.raises(TypeError):
        desk_config(bogus_field=3)


def test_loss_drops_on_small_run():
    scenes = _scenes(4)
    first, last = {}, {}

    def log(rec):
        if not first:
            first.update(rec)
        last.update(rec)

    train(scenes, _tiny_config(epochs=30, batch_size=4, lr=1e-3), log_fn=log)
    assert last["total"] < first["total"]
