"""Optimizer, schedule, checkpoint format, and end-to-end training runs."""

import json
import math
import os
import struct
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from msdnpan.cli import main
from msdnpan.data_pipeline import (
    SceneSample, encode_tensor, save_tensor, synth_scene, tensor_extent,
)
from msdnpan.errors import FormatError, NumericError
from msdnpan.injection_net import PansharpenModel, pansharpen
from msdnpan.tensor_core import Tensor, parameter
from msdnpan.trainer import (
    AdamState, TrainConfig, _batch_step, _blas_thread_controls, _replica,
    adam_step, desk_config, load_checkpoint, lr_at, model_from_checkpoint,
    save_checkpoint, train,
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
    assert all(set(g) == {"epoch", "step", "l1", "l_mem", "total",
                          "seconds", "samples_per_s", "lr"} for g in logs)
    assert all(g["seconds"] > 0 and g["lr"] == cfg.lr for g in logs)
    assert all(g["samples_per_s"] == 4 / g["seconds"] for g in logs)
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


# ---------------------------------------------------------------------------
# batch split across parts

# float32 rounding bound for a part split: every parameter's gradient within
# this fraction of its largest entry, and each logged loss within this
# fraction of its value (desk batches measured at most 3.2e-7)
SPLIT_RTOL = 1e-5


def _split_step(n_items, n_parts):
    """Gradients and record of one step of a seeded desk model on n_items
    scenes run as (up to) n_parts parts."""
    cfg = desk_config(seed=6)
    model = PansharpenModel(cfg.model, np.random.default_rng((cfg.seed, 0)))
    replicas = [model] + [_replica(model) for _ in range(n_parts - 1)]
    chosen = _scenes(n_items, size=32, seed0=200)
    ms, gt, hp = (np.stack([getattr(s, a).data for s in chosen])
                  for a in ("ms", "gt", "hp"))
    # threads switch every 10 us, so a gradient update lost between parts
    # would show as a difference from the one-part step
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max(n_parts - 1, 1)) as pool:
            record = _batch_step(replicas, ms, gt, hp, cfg.loss_weight, pool)
    finally:
        sys.setswitchinterval(interval)
    for rep in replicas[1:]:             # replica gradients were handed over
        assert all(np.all(q.grad == 0.0) for q in rep.parameters())
        assert all(q.data is p.data for p, q in
                   zip(model.parameters(), rep.parameters()))
    return {p.name: p.grad.copy() for p in model.parameters()}, record


@pytest.mark.parametrize("n_items, n_parts", [(4, 2), (3, 2), (1, 2), (4, 4)])
def test_split_step_matches_one_part(n_items, n_parts):
    # batch 4 runs as 2+2, batch 3 as 1+2, batch 1 as a single part, and
    # batch 4 as four parts, more threads than a 2-CPU machine has cores
    one_grads, one_rec = _split_step(n_items, 1)
    split_grads, split_rec = _split_step(n_items, n_parts)
    for name, g in one_grads.items():
        diff = np.abs(split_grads[name] - g).max()
        assert diff <= SPLIT_RTOL * np.abs(g).max(), name
    assert set(split_rec) == {"l1", "l_mem", "total"}
    for key, value in one_rec.items():
        assert abs(split_rec[key] - value) <= SPLIT_RTOL * abs(value), key
    if n_items == 1:
        assert split_rec == one_rec
        for name, g in one_grads.items():
            assert np.array_equal(split_grads[name], g), name


def _assert_run_restores(run):
    """run() trains from a BLAS count of 2; afterwards BLAS threads and live
    threads are as before, and during training BLAS was held at one thread."""
    controls = _blas_thread_controls()
    if controls:
        get, put = controls
        original = get()
        put(2)
    threads_before = threading.active_count()
    during = []

    def hook(model, epoch, step, record):
        if controls:
            during.append(get())

    try:
        return run(hook)
    finally:
        if controls:
            after = get()
            put(original)
            assert after == 2 and set(during) <= {1}
        assert threading.active_count() == threads_before


def test_train_restores_blas_and_threads_on_return():
    _assert_run_restores(
        lambda hook: train(_scenes(4), _tiny_config(batch_size=4), hook=hook))


def test_train_restores_blas_and_threads_when_hook_raises():
    class Stop(Exception):
        pass

    def run(check):
        def hook(*args):
            check(*args)
            raise Stop

        train(_scenes(4), _tiny_config(batch_size=4), hook=hook)

    with pytest.raises(Stop):
        _assert_run_restores(run)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")   # overflow to inf
def test_non_finite_loss_raises_and_restores():
    scenes = _scenes(4)
    hot = scenes[1]
    scenes[1] = SceneSample(ms=Tensor(np.full_like(hot.ms.data, 1e30)),
                            gt=hot.gt, pan=hot.pan, hp=hot.hp, id=hot.id)
    with pytest.raises(NumericError,
                       match=r"^non-finite loss at epoch 0 step 0: "
                             r"l1=\S+ l_mem=\S+$"):
        _assert_run_restores(
            lambda hook: train(scenes, _tiny_config(batch_size=4), hook=hook))


def test_train_frees_each_steps_graph():
    # Tracemalloc peak of a seeded desk run: 114.6 MiB when each step's
    # graph (every node and its .grad) stayed alive through the next
    # forward pass, 77.4-78.4 MiB with one or two parts once it is freed.
    scenes = _scenes(8, size=64)
    tracemalloc.start()
    try:
        train(scenes, desk_config(epochs=2, seed=3))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 96 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MiB"
