"""Optimizer, config checks, checkpoint format, and end-to-end training runs."""

import io
import json
import math
import os
import signal
import struct
import subprocess
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import replace
from multiprocessing.connection import Connection
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import msdnpan
from msdnpan import trainer
from msdnpan.backend import _blas_thread_controls
from msdnpan.cli import main
from msdnpan.data_pipeline import (
    SceneSample, read_blob, save_tensor, synth_scene, write_blob,
)
from msdnpan.errors import FormatError, NumericError, ShapeError
from msdnpan.injection_net import (
    PansharpenModel, pansharpen, pansharpen_with_details,
)
from msdnpan.losses import total_loss
from msdnpan.tensor_core import Tensor, backward, parameter
from msdnpan.trainer import (
    AdamState, TrainConfig, _batch_step, adam_step, desk_config, flatten,
    load_checkpoint, model_from_checkpoint, override, save_checkpoint, train,
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
# config

@pytest.mark.parametrize("field, value", [
    ("lr", math.nan), ("lr", math.inf), ("lr", 0.0),
    ("loss_weight", math.nan), ("loss_weight", math.inf), ("loss_weight", -1.0),
])
def test_config_validation(field, value):
    with pytest.raises(ValueError):
        TrainConfig(**{field: value}).validate()


# ---------------------------------------------------------------------------
# Adam

def test_adam_hand_step():
    p = parameter("w", np.array([1.0]))
    g = np.ones(1)
    g.flags.writeable = False            # gradients are only read
    state = AdamState(flatten([p]))
    adam_step(state, g, 0.1)
    # bias correction makes both moment ratios exactly 1 on the first step
    assert abs(p.data[0] - (1.0 - 0.1 / (1.0 + 1e-8))) < 1e-15
    assert state.step_count == 1

    adam_step(state, g, 0.1)             # constant gradient: same step size
    assert abs(p.data[0] - (1.0 - 2.0 * (0.1 / (1.0 + 1e-8)))) < 1e-12


def test_adam_rejects_a_none_or_missing_gradient():
    # a parameter the loss does not reach gets no gradient from backward;
    # the part that gathers the flat gradient names it
    cfg = _tiny_config()
    model = PansharpenModel(cfg.model, np.random.default_rng(0))
    model.nin.unused = parameter("unused", np.zeros(2, np.float32))
    batch = [np.stack([getattr(s, a) for s in _scenes(1)])
             for a in ("ms", "gt", "hp")]
    with pytest.raises(ValueError, match="^parameter unused has no gradient$"):
        trainer._part(model, *batch, cfg.loss_weight, 1.0)
    p = parameter("w", np.zeros(2))
    with pytest.raises(ValueError, match="parameter w has no gradient"):
        trainer._gather([p], [None])
    with pytest.raises(ValueError, match="parameter w has no gradient"):
        trainer._gather([p], [])        # one gradient per parameter
    with pytest.raises(ValueError):
        adam_step(AdamState(flatten([p])), None, 0.1)


@pytest.mark.parametrize("grads", [[np.ones(2), None], [np.ones(2)]],
                         ids=["none-entry", "one-short"])
def test_adam_rejects_bad_grads_before_any_update(grads):
    a, b = parameter("a", np.zeros(2)), parameter("b", np.zeros(2))
    state = AdamState(flatten([a, b]))
    with pytest.raises(ValueError, match="^parameter b has no gradient$"):
        adam_step(state, trainer._gather([a, b], grads), 0.1)
    with pytest.raises(ValueError):     # a flat gradient of the wrong length
        adam_step(state, np.concatenate([g for g in grads if g is not None]),
                  0.1)
    assert state.step_count == 0
    for arr in (a.data, b.data, state.m, state.v):
        assert not arr.any()


def test_flatten_lays_parameters_out_in_order():
    a = parameter("a", np.arange(6, dtype=np.float32).reshape(2, 3))
    b = parameter("b", np.full(2, 7, np.float32))
    flat = flatten([a, b])
    assert flat.dtype == np.float32 and flat.flags.c_contiguous
    np.testing.assert_array_equal(flat, [0, 1, 2, 3, 4, 5, 7, 7])
    assert a.data.shape == (2, 3) and b.data.shape == (2,)
    flat[...] = -1
    assert (a.data == -1).all() and (b.data == -1).all()
    with pytest.raises(TypeError):
        flatten([parameter("c", np.zeros(1, np.float32)),
                 parameter("d", np.zeros(1))])


# ---------------------------------------------------------------------------
# checkpoint format

def _header(raw):
    """The JSON header of checkpoint bytes and the offset just past it."""
    (hlen,) = struct.unpack_from("<I", raw, 5)
    return json.loads(raw[9:9 + hlen]), 9 + hlen


def _entry_names(raw):
    """Parameter names a checkpoint file's header lists, in stored order;
    checks that one tensor blob per name fills the rest of the file."""
    header, pos = _header(raw)
    names = header["params"]
    f = io.BytesIO(raw)
    f.seek(pos)
    for _ in names:
        read_blob(f, len(raw) - f.tell(), "<bytes>")
    assert f.tell() == len(raw)
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
    assert set(_header(raw)[0]) == {"config", "epoch", "step", "params"}
    # parameters only, no optimizer state
    assert _entry_names(raw) == sorted(final.params)


def test_failed_checkpoint_write_keeps_previous(tmp_path, monkeypatch):
    final = train(_scenes(2), _tiny_config(epochs=1))
    path = tmp_path / "model.msdc"
    save_checkpoint(path, final)
    before = path.read_bytes()
    names = sorted(final.params)

    def torn_write(f, arr):         # the disk fills in the middle blob
        if arr is final.params[names[len(names) // 2]]:
            f.write(b"MSDT\x01")
            raise OSError("no space left on device")
        write_blob(f, arr)

    monkeypatch.setattr(trainer, "write_blob", torn_write)
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

    # version 1 also stored a copy of seed, epoch and step as "rng";
    # versions 1 and 2 framed every tensor with its own "param." name
    for version in (1, 2):
        bad.write_bytes(raw[:4] + bytes([version]) + raw[5:])
        with pytest.raises(FormatError,
                           match=f"unsupported checkpoint version {version}"):
            load_checkpoint(bad)
        _infer_exits_2_without_output(tmp_path, bad)

    bad.write_bytes(raw[:-8])
    with pytest.raises(FormatError):
        load_checkpoint(bad)

    bad.write_bytes(raw + b"\x00\x00")
    with pytest.raises(FormatError):
        load_checkpoint(bad)

    # a blob whose extents claim 14 GB or 4.5 PB over a few bytes is
    # rejected before anything is allocated
    blobs = _header(raw)[1]
    for shape in ((4, 30000, 30000), (65535, 65535, 65535, 4)):
        bad.write_bytes(raw[:blobs] + b"MSDT" + bytes([1, len(shape)])
                        + struct.pack(f"<{len(shape)}I", *shape) + bytes(8))
        with pytest.raises(FormatError, match="expected"):
            load_checkpoint(bad)


def _with_extra_entry(tmp_path, name_of, value_of):
    """Train a tiny model, save it, and write a copy whose header lists one
    more parameter, name_of(first parameter name), with the tensor
    value_of(its value) appended."""
    final = train(_scenes(2), _tiny_config(epochs=1))
    path = tmp_path / "model.msdc"
    save_checkpoint(path, final)
    raw = path.read_bytes()
    header, blobs = _header(raw)
    name = header["params"][0]
    header["params"].append(name_of(name))
    hjson = json.dumps(header).encode()
    bad = tmp_path / "bad.msdc"
    extra = io.BytesIO()
    write_blob(extra, value_of(final.params[name]))
    bad.write_bytes(raw[:5] + struct.pack("<I", len(hjson)) + hjson
                    + raw[blobs:] + extra.getvalue())
    return bad


def _infer_exits_2_without_output(tmp_path, ckpt):
    ms, out = tmp_path / "ms.msdt", tmp_path / "out.msdt"
    save_tensor(ms, np.full((4, 8, 8), 0.5, np.float32))
    assert main(["infer", "--ckpt", str(ckpt), "--ms", str(ms),
                 "--out", str(out)]) == 2
    assert not out.exists()


def test_checkpoint_with_adam_entry_is_rejected(tmp_path):
    # Checkpoints once also stored Adam moments as adam.m.* / adam.v.*
    # entries; a header that lists one names no model parameter, so the
    # model cannot be rebuilt from it, and infer exits 2.
    old = _with_extra_entry(tmp_path, lambda name: "adam.m." + name,
                            np.zeros_like)
    with pytest.raises(FormatError) as err:
        model_from_checkpoint(load_checkpoint(old))
    assert "mismatch" in str(err.value) and "adam.m." in str(err.value)
    _infer_exits_2_without_output(tmp_path, old)


def test_checkpoint_with_duplicate_entry_is_rejected(tmp_path):
    # a second copy of the first listed parameter must not silently win
    dup = _with_extra_entry(tmp_path, lambda name: name, np.copy)
    first = _entry_names(dup.read_bytes())[0]
    with pytest.raises(FormatError) as err:
        load_checkpoint(dup)
    assert "listed twice" in str(err.value) and first in str(err.value)
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

    ms = Tensor(scenes[0].ms[None])
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
    for p in params:
        assert p.data.dtype == np.float32 and p.data is not stored[p.name]
        np.testing.assert_array_equal(p.data, stored[p.name])

    state = AdamState(flatten(params))
    buffers = [p.data for p in params]
    for p, b in zip(params, buffers):
        np.testing.assert_array_equal(b, stored[p.name])
    adam_step(state, np.ones_like(state.flat), 0.1)
    for p, b in zip(params, buffers):
        assert p.data is b and p.data.dtype == np.float32
        assert not np.array_equal(b, stored[p.name])


def test_train_steps_one_parameter_vector(monkeypatch):
    # every parameter is a view into Adam's vector, in model.parameters()
    # order, so each update lands in p.data
    updates = []
    adam = trainer.adam_step

    def spy(state, grad, lr):
        before = state.flat.copy()
        adam(state, grad, lr)
        updates.append((state.flat, before))

    def hook(model, epoch, step, record):
        flat, before = updates[-1]
        assert not np.array_equal(flat, before)
        start = 0
        for p in model.parameters():
            assert p.data.base is flat
            assert (p.data.ctypes.data
                    == flat.ctypes.data + start * flat.itemsize)
            np.testing.assert_array_equal(p.data.ravel(),
                                          flat[start:start + p.data.size])
            start += p.data.size
        assert start == flat.size

    monkeypatch.setattr(trainer, "adam_step", spy)
    final = train(_scenes(4), _tiny_config(batch_size=2), hook=hook)
    assert len(updates) == 4 and len({id(flat) for flat, _ in updates}) == 1
    flat = updates[-1][0]
    np.testing.assert_array_equal(
        np.concatenate([final.params[p.name].ravel() for p in
                        model_from_checkpoint(final).parameters()]), flat)


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


def test_augmented_batches_flip_each_item_along_its_drawn_axis(monkeypatch):
    scenes = _scenes(4)
    before = [{a: getattr(s, a).copy() for a in ("ms", "gt", "hp")}
              for s in scenes]
    seen = []
    batch_step = trainer._batch_step

    def spy(model, flat, ms, gt, hp, *rest):
        seen.append((ms.copy(), gt.copy(), hp.copy()))
        return batch_step(model, flat, ms, gt, hp, *rest)

    monkeypatch.setattr(trainer, "_batch_step", spy)
    cfg = _tiny_config(epochs=1, batch_size=2, augment=True)
    train(scenes, cfg)

    # one epoch: the permutation and modes of epoch 0's substreams; mode 0
    # keeps an item, 1 reverses its columns and 2 its rows
    flips = (lambda x: x, lambda x: x[..., ::-1], lambda x: x[..., ::-1, :])
    order = np.random.default_rng((cfg.seed, 1, 0)).permutation(4)
    draws = np.random.default_rng((cfg.seed, 2, 0))
    modes = np.concatenate([draws.integers(0, 3, size=2) for _ in range(2)])
    assert set(modes) == {0, 1, 2}
    items = [[arr[i] for arr in batch] for batch in seen
             for i in range(len(batch[0]))]
    assert len(items) == 4
    for item, index, mode in zip(items, order, modes):
        for got, attr in zip(item, ("ms", "gt", "hp")):
            assert np.array_equal(got, flips[mode](before[index][attr]))
    for s, orig in zip(scenes, before):
        assert all(np.array_equal(getattr(s, a), orig[a]) for a in orig)


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
                          "grad_norm", "seconds", "samples_per_s", "lr"}
               for g in logs)
    assert all(g["seconds"] > 0 and g["lr"] == cfg.lr for g in logs)
    assert all(g["samples_per_s"] == 4 / g["seconds"] for g in logs)
    assert final.step == 4
    back = load_checkpoint(path)          # final overwrite of the periodic file
    assert back.step == 4 and back.epoch == 4


def test_grad_norm_is_the_norm_of_the_gradient_adam_receives(monkeypatch):
    received = []
    step = trainer.adam_step

    def spy(state, grad, lr):
        received.append(grad.copy())
        return step(state, grad, lr)

    monkeypatch.setattr(trainer, "adam_step", spy)
    logs = []
    train(_scenes(2), _tiny_config(epochs=1, batch_size=2), log_fn=logs.append)
    (grad,) = received                   # one step
    want = math.sqrt(math.fsum(float(x) ** 2 for x in grad))
    # float64 sums of float32 squares in another order: rounding only
    assert want > 0 and math.isclose(logs[0]["grad_norm"], want, rel_tol=1e-12)


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
    # the one override rule, which `train`'s CLI flags use as well
    cfg = override(TrainConfig(), epochs=3, channels=8)
    assert (cfg.epochs, cfg.model.channels) == (3, 8)
    with pytest.raises(TypeError):
        override(TrainConfig(), bogus_field=3)


@pytest.mark.parametrize("epochs, every", [(1, 0), (2, 1)],
                         ids=["final", "periodic"])
def test_train_saves_no_non_finite_parameters(tmp_path, epochs, every):
    """An lr of 1e39 overflows float32 in the epoch's last (and only) Adam
    step, after every loss of that epoch was finite; the save refuses."""
    path = tmp_path / "model.msdc"
    with np.errstate(all="ignore"), pytest.raises(
            NumericError, match=r"^parameter \S+ holds NaN or inf after step 1; "):
        train(_scenes(2), _tiny_config(epochs=epochs, lr=1e39),
              checkpoint_path=path, checkpoint_every=every)
    assert not path.exists()


@pytest.mark.parametrize("every", [-1, -3])
def test_train_rejects_negative_checkpoint_every(tmp_path, monkeypatch, every):
    def no_model(*args, **kwargs):
        raise AssertionError("train built a model")

    monkeypatch.setattr(trainer, "PansharpenModel", no_model)
    path = tmp_path / "model.msdc"
    with pytest.raises(ValueError, match="checkpoint_every"):
        train(_scenes(2), _tiny_config(epochs=3), checkpoint_path=path,
              checkpoint_every=every)
    assert not path.exists()


def test_train_rejects_samples_of_mixed_shapes():
    scenes = _scenes(3)
    big = synth_scene(150, 32, sample_id="s01")
    for attr in ("ms", "gt", "hp"):
        mixed = list(scenes)
        mixed[1] = replace(scenes[1], **{attr: getattr(big, attr)})
        with pytest.raises(ShapeError, match=rf"^sample s01: {attr} shape "
                                             r"\(.*\) differs from \(.*\) "
                                             r"of sample s00$"):
            train(mixed, _tiny_config())


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


@contextmanager
def _fast_thread_switches():
    """Switch threads every 10 us, so work lost or mixed between threads
    shows as a difference from a sequential run."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


def _desk_batch(n_items):
    """A seeded desk model and the stacked (ms, gt, hp) of n_items scenes."""
    cfg = desk_config(seed=6)
    model = PansharpenModel(cfg.model, np.random.default_rng((cfg.seed, 0)))
    chosen = _scenes(n_items, size=32, seed0=200)
    return model, [np.stack([getattr(s, a) for s in chosen])
                   for a in ("ms", "gt", "hp")]


def _per_parameter(params, flat):
    """The flat vector flat cut into one named slice per parameter."""
    cuts = np.cumsum([0] + [p.data.size for p in params])
    return {p.name: flat[a:b] for p, a, b in zip(params, cuts, cuts[1:])}


def _split_step(n_items, n_parts):
    """Gradients and record of one step of a seeded desk model on n_items
    scenes run as (up to) n_parts parts, parts 1.. in forked workers."""
    model, (ms, gt, hp) = _desk_batch(n_items)
    flat = flatten(model.parameters())
    seeded = flat.copy()
    flat[...] = 0       # the workers' copies, so that each must load the values
    with trainer._forked(model, flat, n_parts - 1) as workers:
        flat[...] = seeded
        grad, record = _batch_step(model, flat, ms, gt, hp,
                                   desk_config().loss_weight, workers)
    assert grad.shape == flat.shape
    return _per_parameter(model.parameters(), grad), record


@pytest.mark.parametrize("n_items, n_parts", [(4, 2), (3, 2), (1, 2), (4, 4)])
def test_split_step_matches_one_part(n_items, n_parts):
    # batch 4 runs as 2+2, batch 3 as 1+2, batch 1 as a single part, and
    # batch 4 as four parts, more processes than a 2-CPU machine has cores
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


def test_concurrent_backward_passes_are_independent():
    # two threads back-propagate separate graphs of one shared model
    model, (ms, gt, hp) = _desk_batch(4)
    params = model.parameters()
    before = [p.data.copy() for p in params]

    def run(part):
        out, details = pansharpen_with_details(Tensor(ms[part]), model)
        loss, _, _ = total_loss(out, Tensor(gt[part]), Tensor(hp[part]),
                                details, 100.0)
        return backward(loss, params)

    halves = (slice(0, 2), slice(2, 4))
    alone = [run(part) for part in halves]
    with _fast_thread_switches(), ThreadPoolExecutor(2) as pool:
        together = list(pool.map(run, halves))
    for a, b in zip(alone, together):
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert all(np.array_equal(p.data, d) for p, d in zip(params, before))


def _has_children():
    """Whether this process has a child, running or exited but unreaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return False
    return True


def _assert_run_restores(run):
    """run() trains from a BLAS count of 2; afterwards BLAS threads and live
    threads are as before and no child process remains, and during training
    BLAS was held at one thread and, with two usable CPUs, a worker ran."""
    controls = _blas_thread_controls()
    if controls:
        get, put = controls
        original = get()
        put(2)
    threads_before = threading.active_count()
    assert not _has_children()
    during, children = [], []

    def hook(model, epoch, step, record):
        if controls:
            during.append(get())
        children.append(_has_children())

    try:
        return run(hook)
    finally:
        if controls:
            after = get()
            put(original)
            assert after == 2 and set(during) <= {1}
            if len(os.sched_getaffinity(0)) > 1:
                assert all(children)
        assert threading.active_count() == threads_before
        assert not _has_children()


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
    scenes[1] = SceneSample(ms=np.full_like(hot.ms, 1e30),
                            gt=hot.gt, pan=hot.pan, hp=hot.hp, id=hot.id)
    with pytest.raises(NumericError,
                       match=r"^non-finite loss at epoch 0 step 0: "
                             r"l1=\S+ l_mem=\S+$"):
        _assert_run_restores(
            lambda hook: train(scenes, _tiny_config(batch_size=4), hook=hook))


def test_worker_exception_reraises_with_its_type_and_message(monkeypatch):
    if _blas_thread_controls() is None:
        pytest.skip("BLAS exposes no thread control, so train runs one part")
    # two usable CPUs: one part here, one in a forked worker, which raises
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    parent, part = os.getpid(), trainer._part

    def faulty(*args):
        if os.getpid() != parent:
            raise ShapeError("raised in a worker")
        return part(*args)

    monkeypatch.setattr(trainer, "_part", faulty)
    with pytest.raises(ShapeError, match="^raised in a worker$"):
        _assert_run_restores(
            lambda hook: train(_scenes(4), _tiny_config(batch_size=4),
                               hook=hook))


@pytest.mark.parametrize("mid_step", [False, True],
                         ids=["between-steps", "mid-step"])
def test_lost_worker_raises_child_process_error_naming_it(monkeypatch,
                                                          mid_step):
    if _blas_thread_controls() is None:
        pytest.skip("BLAS exposes no thread control, so train runs one part")
    # two usable CPUs: one part here, one in a forked worker, which is
    # killed after step 1 (its next job cannot be sent) or exits right
    # after reading its first job (its reply never comes)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    pids = []
    batch_step = trainer._batch_step

    def spy(model, flat, ms, gt, hp, loss_weight, workers):
        pids[:] = [w.pid for w in workers]
        return batch_step(model, flat, ms, gt, hp, loss_weight, workers)

    monkeypatch.setattr(trainer, "_batch_step", spy)
    if mid_step:
        parent = os.getpid()
        part = trainer._part

        def exiting(*args):
            if os.getpid() != parent:
                os._exit(1)
            return part(*args)

        monkeypatch.setattr(trainer, "_part", exiting)

    def run(check):
        def hook(*args):
            check(*args)
            os.kill(pids[0], signal.SIGKILL)
            # wait for the exit, but leave the reaping to train
            os.waitid(os.P_PID, pids[0], os.WEXITED | os.WNOWAIT)

        train(_scenes(4), _tiny_config(batch_size=2), hook=hook)

    with pytest.raises(ChildProcessError) as raised:
        _assert_run_restores(run)
    assert str(raised.value) == f"part worker {pids[0]} exited"


def test_train_runs_one_part_where_fork_is_missing(monkeypatch):
    monkeypatch.delattr(os, "fork")
    workers_seen = []
    batch_step = trainer._batch_step

    def spy(model, flat, ms, gt, hp, loss_weight, workers):
        workers_seen.append(len(workers))
        return batch_step(model, flat, ms, gt, hp, loss_weight, workers)

    monkeypatch.setattr(trainer, "_batch_step", spy)
    children = []
    train(_scenes(4), _tiny_config(batch_size=4),
          hook=lambda *args: children.append(_has_children()))
    assert workers_seen == [0, 0] and children == [False, False]


def _gone(pid):
    """Whether process pid has exited. An orphan that has exited but that
    init has not reaped yet is a zombie, which still answers kill(pid, 0)."""
    try:
        os.kill(pid, 0)
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] == "Z"
    except (ProcessLookupError, FileNotFoundError):
        return True


@pytest.mark.skipif(not Path("/proc/self/stat").exists(),
                    reason="reads process states from /proc")
def test_worker_ignores_sigint_and_exits_when_training_is_killed(tmp_path):
    if _blas_thread_controls() is None:
        pytest.skip("BLAS exposes no thread control, so train runs one part")
    pid_file = tmp_path / "worker.pid"
    # train forever on two parts; a worker appends its pid after each part
    # and then waits for its next job while the parent's hook sleeps, so
    # the kill below finds it waiting on its job pipe
    script = """if True:
        import os, sys, time
        from msdnpan import trainer
        from msdnpan.data_pipeline import synth_scene
        os.sched_getaffinity = lambda pid: {0, 1}
        parent, part = os.getpid(), trainer._part
        def noting(*args):
            result = part(*args)
            if os.getpid() != parent:
                with open(sys.argv[1], "a") as f:
                    f.write(f"{os.getpid()}\\n")
            return result
        trainer._part = noting
        scenes = [synth_scene(300 + i, 16, sample_id=f"s{i}")
                  for i in range(4)]
        trainer.train(scenes, trainer.desk_config(epochs=10 ** 9),
                      hook=lambda *args: time.sleep(0.3))
    """
    src = str(Path(msdnpan.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen([sys.executable, "-c", script, str(pid_file)],
                            env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE)

    def parts_run(at_least):
        deadline = time.monotonic() + 60
        while True:
            pids = pid_file.read_text().split() if pid_file.exists() else []
            if len(pids) >= at_least:
                return pids
            assert proc.poll() is None, proc.stderr.read()
            assert time.monotonic() < deadline, f"{len(pids)} parts ran"
            time.sleep(0.02)

    try:
        (worker,) = set(map(int, parts_run(2)))
        # Ctrl-C in a terminal reaches the worker too; it keeps serving
        os.kill(worker, signal.SIGINT)
        assert set(map(int, parts_run(len(pid_file.read_text().split()) + 2))
                   ) == {worker}
    finally:
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=10)
        proc.stderr.close()
    deadline = time.monotonic() + 5
    while not _gone(worker):
        assert time.monotonic() < deadline, f"worker {worker} still running"
        time.sleep(0.05)


def test_train_frees_each_steps_graph():
    # Tracemalloc peak of a seeded desk run: 114.6 MiB when each step's
    # graph (every node and its gradient) stayed alive through the next
    # forward pass, 77.4-78.4 MiB with one or two parts once it is freed,
    # 46.8 MiB with two parts once backward also drops each intermediate
    # gradient as soon as its closure has run. tracemalloc sees this process
    # only: with part 1 in a forked worker it reads 17.0 MiB, and one part
    # run here still has to free its graph each step to stay under the bound.
    scenes = _scenes(8, size=64)
    tracemalloc.start()
    try:
        train(scenes, desk_config(epochs=2, seed=3))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 96 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MiB"


def test_part_graph_keeps_only_what_backward_reads():
    # Tracemalloc peak of one seeded desk part on two 64x64 scenes: 22.2 MiB
    # when every node kept its inputs' Tensors, and with them every
    # intermediate array; 15.08 MiB, at the start of backward, when each
    # backward closure keeps exactly the arrays it reads; 9.95 MiB once conv2d
    # and prelu keep the recipe of an input that prelu, mul, tile_mul,
    # scale or bicubic_upsample made in place of its array.
    cfg = desk_config(seed=1)
    model = PansharpenModel(cfg.model, np.random.default_rng(0))
    scenes = _scenes(2, size=64)
    ms, gt, hp = (np.stack([getattr(s, attr) for s in scenes])
                  for attr in ("ms", "gt", "hp"))
    tracemalloc.start()
    try:
        grad, _ = trainer._part(model, ms, gt, hp, cfg.loss_weight, 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert grad.shape == (sum(p.data.size for p in model.parameters()),)
    assert peak <= 11.5 * 2 ** 20, f"peak {peak / 2 ** 20:.2f} MiB"


def test_part_worker_loop_frees_each_jobs_graph(tmp_path):
    # `train`'s workers run `_serve` in forked processes, out of sight of
    # tracemalloc, so run the loop here on four half-batch desk jobs. Jobs
    # and replies go through file-backed connections: a 158 KB reply would
    # block on a socket that nothing reads. Tracemalloc peak of this seeded
    # loop: 16.5 MiB (the same over 8 jobs), 37.7 MiB when each job's graph
    # stays alive through the next job, 78.9 MiB when every job's graph is
    # kept.
    cfg = desk_config(seed=3)
    model = PansharpenModel(cfg.model, np.random.default_rng((3, 0)))
    flat = flatten(model.parameters())
    scenes = _scenes(8, size=64)
    jobs_path, replies_path = tmp_path / "jobs", tmp_path / "replies"

    def connection(path, flags):
        return Connection(os.open(path, flags | os.O_CREAT),
                          readable=flags == os.O_RDONLY,
                          writable=flags != os.O_RDONLY)

    with connection(jobs_path, os.O_WRONLY) as jobs:
        for i in range(0, len(scenes), 2):
            part = scenes[i:i + 2]
            arrays = tuple(np.stack([getattr(s, attr) for s in part])
                           for attr in ("ms", "gt", "hp"))
            jobs.send((flat, arrays + (cfg.loss_weight, 0.5)))
    with (connection(jobs_path, os.O_RDONLY) as jobs,
          connection(replies_path, os.O_WRONLY) as replies):
        tracemalloc.start()
        try:
            trainer._serve(model, flat, SimpleNamespace(recv=jobs.recv,
                                                        send=replies.send))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    with connection(replies_path, os.O_RDONLY) as replies:
        got = [replies.recv() for _ in range(4)]
        with pytest.raises(EOFError):
            replies.recv()
    for grad, losses in got:
        assert grad.shape == flat.shape
        assert all(map(math.isfinite, losses.values()))
    assert peak < 32 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MiB"
