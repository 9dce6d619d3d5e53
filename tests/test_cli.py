"""End-to-end command-line behaviour, run in-process via main(argv)."""

import ctypes
import importlib.util
import json
import os
import shutil
import struct
import subprocess
import sys
import tracemalloc
import types
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import msdnpan
from msdnpan import backend, cli, trainer
from msdnpan.cli import build_parser, main
from msdnpan.data_pipeline import (
    load_manifest, load_tensor, save_tensor, synth_scene,
)
from msdnpan.errors import NumericError
from msdnpan.injection_net import ModelConfig, PansharpenModel, pansharpen
from msdnpan.tensor_core import Tensor
from msdnpan.trainer import (
    TrainConfig, load_checkpoint, model_from_checkpoint, save_checkpoint,
    snapshot,
)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A generated dataset plus a one-epoch checkpoint trained on it."""
    root = tmp_path_factory.mktemp("ws")
    data = root / "data"
    ckpt = root / "model.msdc"
    assert main(["gen-data", "--out", str(data), "--count", "6",
                 "--size", "16", "--seed", "2"]) == 0
    assert main(["train", "--data", str(data), "--out", str(ckpt),
                 "--preset", "desk", "--epochs", "1", "--batch", "4",
                 "--channels", "8", "--mem-slots", "8", "--nin-depth", "1",
                 "--seed", "4"]) == 0
    sample = data / "scene_0000"
    return {"root": root, "data": data, "ckpt": ckpt,
            "ms": sample / "ms.msdt", "pan": sample / "pan.msdt",
            "gt": sample / "gt.msdt"}


def _last_json(capsys):
    lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
    return json.loads(lines[-1])


# ---------------------------------------------------------------------------
# gen-data

def test_gen_data_reports_counts(tmp_path, capsys):
    out = tmp_path / "d"
    assert main(["gen-data", "--out", str(out), "--count", "4",
                 "--size", "8", "--seed", "1"]) == 0
    payload = _last_json(capsys)
    assert payload["count"] == 4
    assert payload["train"] + payload["test"] == 4
    assert (out / "manifest.json").is_file()


def test_gen_data_usage_errors(tmp_path):
    out = tmp_path / "d"
    base = ["gen-data", "--out", str(out)]
    assert main(base + ["--count", "2", "--size", "10"]) == 1
    assert main(base + ["--count", "0", "--size", "8"]) == 1
    assert main(base + ["--count", "2", "--size", "8", "--scale", "0"]) == 1
    assert main(base + ["--count", "2", "--size", "8",
                        "--hp-window", "4"]) == 1
    assert main(["gen-data", "--count", "2", "--size", "8"]) == 1  # no --out
    assert not out.exists()


# ---------------------------------------------------------------------------
# train

def test_train_emits_epoch_logs(workspace, tmp_path, capsys):
    ckpt = tmp_path / "m.msdc"
    assert main(["train", "--data", str(workspace["data"]), "--out",
                 str(ckpt), "--preset", "desk", "--epochs", "2",
                 "--batch", "4", "--channels", "8", "--mem-slots", "8",
                 "--nin-depth", "1"]) == 0
    lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
    assert [rec["epoch"] for rec in lines] == [0, 1]
    assert all({"l1", "l_mem", "total", "seconds", "samples_per_s",
                "lr"} <= set(rec) for rec in lines)
    assert all(rec["samples_per_s"] > 0 and rec["lr"] > 0 for rec in lines)
    assert ckpt.is_file()


def test_train_prints_one_json_line_per_epoch(workspace, tmp_path):
    # the real process, stdout a pipe: forked part workers must not flush
    # a copy of the parent's stdout buffer
    proc = _run_cli(["train", "--data", workspace["data"], "--out",
                     tmp_path / "m.msdc", "--preset", "desk", "--epochs", "3",
                     "--batch", "4", "--channels", "8", "--mem-slots", "8",
                     "--nin-depth", "1"])
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [json.loads(line)["epoch"] for line in lines] == [0, 1, 2]


def test_numeric_error_in_a_part_worker_exits_3(workspace, tmp_path,
                                                monkeypatch, capsys):
    if backend._blas_thread_controls() is None:
        pytest.skip("BLAS exposes no thread control, so train runs one part")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    parent, part = os.getpid(), trainer._part

    def faulty(*args):
        if os.getpid() != parent:
            raise NumericError("raised in a worker")
        return part(*args)

    monkeypatch.setattr(trainer, "_part", faulty)
    out = tmp_path / "m.msdc"
    assert main(["train", "--data", str(workspace["data"]), "--out", str(out),
                 "--preset", "desk", "--epochs", "1", "--batch", "4",
                 "--channels", "8", "--mem-slots", "8",
                 "--nin-depth", "1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: raised in a worker\n"
    assert not out.exists()


def test_train_bad_inputs(workspace, tmp_path):
    args = ["train", "--data", str(tmp_path / "nodata"), "--out",
            str(tmp_path / "m.msdc")]
    assert main(args) == 2                      # missing manifest
    args = ["train", "--data", str(workspace["data"]), "--out",
            str(tmp_path / "m.msdc"), "--epochs", "0"]
    assert main(args) == 1                      # rejected by validation


def test_train_takes_scale_from_data(tmp_path, capsys):
    data = tmp_path / "data"
    ckpt = tmp_path / "m.msdc"
    assert main(["gen-data", "--out", str(data), "--count", "4",
                 "--size", "16", "--scale", "2"]) == 0
    args = ["train", "--data", str(data), "--out", str(ckpt), "--preset",
            "desk", "--epochs", "1", "--channels", "8", "--mem-slots", "8"]
    assert main(args) == 0
    assert load_checkpoint(ckpt).config.model.scale == 2
    capsys.readouterr()
    assert main(args + ["--scale", "4"]) == 1   # the flag is gone
    assert "--scale" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [
    ("--lr", "nan"), ("--lr", "inf"), ("--lambda", "nan"), ("--lambda", "-1"),
    # a model too large to build: the stem conv of 2**40 channels needs
    # 288 TiB, more than the 128 TiB address space of a Linux process, so
    # its allocation fails at once; 2**62 overflows numpy's size checks
    ("--channels", str(2 ** 40)), ("--channels", str(2 ** 62)),
])
def test_train_rejects_non_finite_and_negative_flags(workspace, tmp_path,
                                                     capsys, flag, value):
    ckpt = tmp_path / "m.msdc"
    assert main(["train", "--data", str(workspace["data"]), "--out",
                 str(ckpt), "--preset", "desk", "--epochs", "1",
                 flag, value]) == 1
    _one_error_line(capsys)
    assert not ckpt.exists()


@pytest.mark.parametrize("every", ["-1", "-3"])
def test_train_rejects_negative_checkpoint_every(tmp_path, capsys, every):
    """Exit 1 before the dataset is read: the data path does not exist,
    which would otherwise exit 2."""
    ckpt = tmp_path / "m.msdc"
    assert main(["train", "--data", str(tmp_path / "nodata"), "--out",
                 str(ckpt), "--checkpoint-every", every]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "--checkpoint-every" in captured.err
    assert not ckpt.exists()


def test_train_rejects_scenes_of_mixed_extent(tmp_path, capsys):
    """One training scene rewritten at twice the extent is a data error
    (exit 2) named by sample, not a stacking failure inside numpy."""
    data = tmp_path / "data"
    ckpt = tmp_path / "m.msdc"
    assert main(["gen-data", "--out", str(data), "--count", "6",
                 "--size", "32", "--seed", "2"]) == 0
    sid = sorted(load_manifest(data).train_ids())[-1]
    big = synth_scene(99, 64, sample_id=sid)
    for name in ("ms", "gt", "pan", "hp"):
        save_tensor(data / sid / f"{name}.msdt", getattr(big, name))
    capsys.readouterr()
    assert main(["train", "--data", str(data), "--out", str(ckpt),
                 "--preset", "desk", "--batch", "4", "--epochs", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: sample {sid}: ")
    assert not ckpt.exists()


@pytest.mark.parametrize("defect, code", [("rank2", 2), ("nan", 3)])
@pytest.mark.parametrize("name", ["ms", "gt", "hp"])
def test_train_checks_each_tensor_it_reads(workspace, tmp_path, capsys, name,
                                           defect, code):
    """A training scene's tensor is held to the contract every command's
    inputs meet: a rank-2 one exits 2 and one holding NaN exits 3, before
    any step runs."""
    data = tmp_path / "data"
    shutil.copytree(workspace["data"], data)
    sid = sorted(load_manifest(data).train_ids())[0]
    path = data / sid / f"{name}.msdt"
    arr = load_tensor(path).data.copy()
    if defect == "rank2":
        arr = arr[0]
    else:
        arr[0, 1, 1] = np.nan
    save_tensor(path, arr)
    ckpt = tmp_path / "m.msdc"
    assert main(["train", "--data", str(data), "--out", str(ckpt),
                 "--preset", "desk", "--epochs", "1", "--channels", "8",
                 "--mem-slots", "8", "--nin-depth", "1"]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {path}: "), lines
    assert not ckpt.exists()


def test_every_model_field_but_scale_has_a_train_flag(workspace, tmp_path,
                                                      monkeypatch):
    """A ModelConfig field that no flag sets would be a constant in every
    checkpoint `train` writes; the scale comes from the data."""
    flags = {"channels": ("--channels", 6),
             "memory_slots": ("--mem-slots", 5),
             "head_blocks": ("--head-blocks", 2),
             "nin_depth": ("--nin-depth", 1)}
    assert set(flags) == {f.name for f in fields(ModelConfig)} - {"scale"}
    seen = []
    monkeypatch.setattr(cli, "train",
                        lambda samples, config, **kw: seen.append(config))
    argv = ["train", "--data", str(workspace["data"]), "--out",
            str(tmp_path / "m.msdc"), "--preset", "desk"]
    for flag, value in flags.values():
        argv += [flag, str(value)]
    assert main(argv) == 0
    assert {name: getattr(seen[0].model, name) for name in flags} == {
        name: value for name, (_, value) in flags.items()}


# ---------------------------------------------------------------------------
# infer

def test_infer_roundtrip_and_ppm(workspace, tmp_path, capsys):
    out = tmp_path / "sharp.msdt"
    ppm = tmp_path / "sharp.ppm"
    assert main(["infer", "--ckpt", str(workspace["ckpt"]), "--ms",
                 str(workspace["ms"]), "--out", str(out),
                 "--export-ppm", str(ppm)]) == 0
    payload = _last_json(capsys)
    assert payload["shape"] == [4, 16, 16]
    assert payload["wall_s"] > 0 and payload["peak_rss_mb"] > 0
    assert payload["minor_faults"] >= 0
    assert load_tensor(out).shape == (4, 16, 16)
    assert ppm.read_bytes().startswith(b"P6\n16 16\n255\n")
    # infer freezes the model; its product equals the taped pass bit for bit
    ms = Tensor(load_tensor(workspace["ms"]).data[None])
    model = model_from_checkpoint(load_checkpoint(workspace["ckpt"]))
    taped = pansharpen(ms, model)
    for p in model.parameters():
        p.requires_grad = False
    frozen = pansharpen(ms, model)
    assert taped.requires_grad and model.parameters() == []
    assert not frozen.requires_grad and frozen._prev == ()
    assert np.array_equal(load_tensor(out).data, taped.data[0])


def _full_infer_argv(tmp_path, m):
    """infer argv for a seeded full-config checkpoint on an m x m MS input."""
    cfg = TrainConfig(seed=5, model=ModelConfig())
    model = PansharpenModel(cfg.model, np.random.default_rng((5, 0)))
    ckpt, ms = tmp_path / "full.msdc", tmp_path / "ms.msdt"
    save_checkpoint(ckpt, snapshot(model, cfg))
    save_tensor(ms, np.random.default_rng(0).random((4, m, m), np.float32))
    return ["infer", "--ckpt", str(ckpt), "--ms", str(ms),
            "--out", str(tmp_path / "o.msdt")]


def test_infer_traced_peak_is_tape_free(tmp_path):
    """Guard against infer recording the autodiff graph again. Basis: a
    seeded full-config model on a 16x16 MS input peaks at 7.8 MB of
    traced allocations tape-free and 24.7 MB with the tape kept."""
    argv = _full_infer_argv(tmp_path, 16)
    assert main(argv) == 0  # warm-up: imports and first-call caches
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6, f"traced peak {peak / 1e6:.1f} MB"


@pytest.mark.skipif(not hasattr(ctypes.CDLL(None), "mallopt"),
                    reason="libc has no mallopt")
def test_infer_reuses_freed_memory(tmp_path, capsys):
    """A repeated infer draws its arrays from the heap the first one freed.
    Basis: the second run faults 2-16 pages with the allocator policy and
    6,800-8,200 without it."""
    argv = _full_infer_argv(tmp_path, 32)
    assert main(argv) == 0
    assert main(argv) == 0
    faults = _last_json(capsys)["minor_faults"]
    assert 0 <= faults < 200, f"{faults} minor faults"


def test_infer_has_no_pan_input(capsys):
    parser = build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, type(parser._subparsers._group_actions[0])))
    infer = sub.choices["infer"]
    flags = {s for a in infer._actions for s in a.option_strings}
    assert flags == {"-h", "--help", "--ckpt", "--ms", "--out", "--export-ppm"}
    assert not any("pan" in f.lower() for f in flags)
    with pytest.raises(SystemExit):
        infer.parse_args(["--help"])
    help_text = capsys.readouterr().out
    # the prog name "msdnpan" contains the substring; check flag forms
    assert "--pan" not in help_text and "PAN" not in help_text


def test_infer_input_errors(workspace, tmp_path):
    out = str(tmp_path / "o.msdt")
    assert main(["infer", "--ckpt", str(tmp_path / "no.msdc"), "--ms",
                 str(workspace["ms"]), "--out", out]) == 2
    bad = tmp_path / "bad.msdt"
    bad.write_bytes(b"garbage bytes")
    assert main(["infer", "--ckpt", str(workspace["ckpt"]), "--ms",
                 str(bad), "--out", out]) == 2
    rank2 = tmp_path / "rank2.msdt"
    save_tensor(rank2, np.ones((4, 4), np.float32))
    assert main(["infer", "--ckpt", str(workspace["ckpt"]), "--ms",
                 str(rank2), "--out", out]) == 2
    ppm = tmp_path / "missing" / "o.ppm"
    assert main(["infer", "--ckpt", str(workspace["ckpt"]), "--ms",
                 str(workspace["ms"]), "--out", out,
                 "--export-ppm", str(ppm)]) == 2
    assert not Path(out).exists() and not ppm.exists()


def test_infer_rejects_extents_the_nin_depth_cannot_pool(tmp_path, capsys):
    cfg = TrainConfig(model=ModelConfig(scale=1, nin_depth=2))
    model = PansharpenModel(cfg.model, np.random.default_rng(0))
    ckpt = tmp_path / "m.msdc"
    save_checkpoint(ckpt, snapshot(model, cfg))
    ms = tmp_path / "ms.msdt"
    save_tensor(ms, np.full((4, 5, 5), 0.5, np.float32))
    out = tmp_path / "o.msdt"
    assert main(["infer", "--ckpt", str(ckpt), "--ms", str(ms),
                 "--out", str(out)]) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert "NIN depth" in lines[0] and captured.out == ""
    assert not out.exists()


def _with_header(ckpt, out, edit):
    """Copy a checkpoint to out with its JSON header passed through edit."""
    buf = ckpt.read_bytes()
    (hlen,) = struct.unpack_from("<I", buf, 5)
    header = json.loads(buf[9:9 + hlen])
    edit(header)
    hjson = json.dumps(header).encode()
    out.write_bytes(buf[:5] + struct.pack("<I", len(hjson)) + hjson
                    + buf[9 + hlen:])
    return out


@pytest.mark.parametrize("edit", [
    lambda h: h.pop("config"),
    lambda h: h.pop("epoch"),
    lambda h: h.pop("step"),
    lambda h: h["config"].update(warp_factor=9),
    lambda h: h["config"]["model"].update(warp_factor=9),
    lambda h: h["config"]["model"].update(channels=7),
    lambda h: h["config"].update(lr=float("nan")),
    lambda h: h.pop("params"),
    lambda h: h.update(params=dict.fromkeys(h["params"], 0)),
    lambda h: h["params"].insert(1, h["params"][0]),
    lambda h: h.update(epoch="x"),
    lambda h: h.update(step=1.0),
    lambda h: h.update(epoch=-1),
    lambda h: h.update(step=True),
], ids=["no-config", "no-epoch", "no-step", "unknown-key",
        "unknown-model-key", "odd-channels", "nan-lr", "no-params",
        "params-not-list", "params-duplicate", "epoch-string",
        "step-float", "epoch-negative", "step-bool"])
def test_infer_bad_checkpoint_header_is_format_error(workspace, tmp_path,
                                                     edit, capsys):
    bad = _with_header(workspace["ckpt"], tmp_path / "bad.msdc", edit)
    out = tmp_path / "o.msdt"
    assert main(["infer", "--ckpt", str(bad), "--ms", str(workspace["ms"]),
                 "--out", str(out)]) == 2
    _one_error_line(capsys, "bad header")
    assert not out.exists()


def _one_error_line(capsys, needle=""):
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert needle in lines[0] and captured.out == ""


@pytest.mark.parametrize("channels", [2 ** 17, 2 ** 62])
def test_infer_checkpoint_naming_an_unallocatable_model_is_format_error(
        workspace, tmp_path, capsys, channels):
    # one 3x3 conv of 2**17 channels needs 576 GiB, and 2**62 channels
    # overflow the address space. The model's arrays are zero-filled, so
    # either allocating them fails at once or a shape check fails before
    # any page is touched.
    def edit(header):
        header["config"]["model"]["channels"] = channels

    bad = _with_header(workspace["ckpt"], tmp_path / "bad.msdc", edit)
    out = tmp_path / "o.msdt"
    assert main(["infer", "--ckpt", str(bad), "--ms", str(workspace["ms"]),
                 "--out", str(out)]) == 2
    _one_error_line(capsys)
    assert not out.exists()


# JSON the parser cannot take: nested past the recursion limit, and an
# integer longer than Python converts to int
UNPARSABLE_JSON = {"deep": b"[" * 200000 + b"]" * 200000,
                   "long-int": b"[" + b"1" * 5000 + b"]"}


@pytest.mark.parametrize("kind", sorted(UNPARSABLE_JSON))
def test_unparsable_manifest_is_format_error(tmp_path, capsys, kind):
    data = tmp_path / "data"
    data.mkdir()
    (data / "manifest.json").write_bytes(UNPARSABLE_JSON[kind])
    out = tmp_path / "m.msdc"
    assert main(["train", "--data", str(data), "--out", str(out)]) == 2
    _one_error_line(capsys, "invalid JSON")
    assert not out.exists()


@pytest.mark.parametrize("kind", sorted(UNPARSABLE_JSON))
def test_unparsable_checkpoint_header_is_format_error(workspace, tmp_path,
                                                     capsys, kind):
    raw = workspace["ckpt"].read_bytes()
    (hlen,) = struct.unpack_from("<I", raw, 5)
    hjson = UNPARSABLE_JSON[kind]
    bad = tmp_path / "bad.msdc"
    bad.write_bytes(raw[:5] + struct.pack("<I", len(hjson)) + hjson
                    + raw[9 + hlen:])
    out = tmp_path / "o.msdt"
    assert main(["infer", "--ckpt", str(bad), "--ms", str(workspace["ms"]),
                 "--out", str(out)]) == 2
    _one_error_line(capsys, "bad header")
    assert not out.exists()


# each model value is the workspace checkpoint's own, as a float
@pytest.mark.parametrize("section, field, value", [
    ("model", "channels", 8.0), ("model", "scale", 4.0),
    ("model", "memory_slots", 8.0), ("model", "nin_depth", 1.0),
    ("model", "head_blocks", 4.0),
    ("train", "epochs", 1.5), ("train", "batch_size", 2.5),
    ("train", "seed", 4.0),
    ("train", "epochs", True), ("train", "augment", "yes"),
    ("train", "augment", 1), ("train", "lr", True),
    # stale fields: the lr schedule and the two attention knobs are gone,
    # and a header that still names one is rejected
    ("train", "decay_every", 50.0), ("train", "decay_factor", 0.5),
    ("model", "reduction", 4.0), ("model", "spatial_kernel", 7.0),
], ids=lambda v: repr(v) if not isinstance(v, str) else v)
def test_infer_mistyped_checkpoint_config_is_format_error(
        workspace, tmp_path, capsys, section, field, value):
    def edit(header):
        config = header["config"]
        (config["model"] if section == "model" else config)[field] = value

    bad = _with_header(workspace["ckpt"], tmp_path / "bad.msdc", edit)
    out = tmp_path / "o.msdt"
    assert main(["infer", "--ckpt", str(bad), "--ms", str(workspace["ms"]),
                 "--out", str(out)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert "bad header" in lines[0] and field in lines[0]
    assert not out.exists()


def test_infer_non_finite_input_is_numeric_error(workspace, tmp_path):
    ms = load_tensor(workspace["ms"]).data.copy()
    ms[1, 2, 3] = np.nan
    nan_ms = tmp_path / "nan.msdt"
    save_tensor(nan_ms, ms)
    out = tmp_path / "o.msdt"
    assert main(["infer", "--ckpt", str(workspace["ckpt"]), "--ms",
                 str(nan_ms), "--out", str(out)]) == 3
    assert not out.exists()


def test_infer_non_finite_output_is_numeric_error(workspace, tmp_path):
    ckpt = load_checkpoint(workspace["ckpt"])
    name = sorted(ckpt.params)[0]
    ckpt.params[name] = np.full_like(ckpt.params[name], np.inf)
    bad = tmp_path / "inf.msdc"
    save_checkpoint(bad, ckpt)
    out = tmp_path / "o.msdt"
    ppm = tmp_path / "o.ppm"
    assert main(["infer", "--ckpt", str(bad), "--ms", str(workspace["ms"]),
                 "--out", str(out), "--export-ppm", str(ppm)]) == 3
    assert not out.exists() and not ppm.exists()


# ---------------------------------------------------------------------------
# baseline

def test_baseline_methods(workspace, tmp_path, capsys):
    for method in ("cs", "mra-add", "sfim"):
        out = tmp_path / f"{method}.msdt"
        assert main(["baseline", "--method", method, "--ms",
                     str(workspace["ms"]), "--pan", str(workspace["pan"]),
                     "--out", str(out)]) == 0
        assert load_tensor(out).shape == (4, 16, 16)
    capsys.readouterr()


def test_baseline_bicubic_needs_no_pan(workspace, tmp_path, capsys):
    out = tmp_path / "up.msdt"
    assert main(["baseline", "--method", "bicubic", "--ms",
                 str(workspace["ms"]), "--out", str(out),
                 "--scale", "4"]) == 0
    assert _last_json(capsys)["shape"] == [4, 16, 16]


def test_baseline_errors(workspace, tmp_path):
    out = str(tmp_path / "o.msdt")
    assert main(["baseline", "--method", "mra-add", "--ms",
                 str(workspace["ms"]), "--out", out]) == 1    # --pan missing
    assert main(["baseline", "--method", "warp", "--ms",
                 str(workspace["ms"]), "--out", out]) == 1    # bad choice
    twoband = tmp_path / "p2.msdt"
    save_tensor(twoband, np.ones((2, 16, 16), np.float32))
    assert main(["baseline", "--method", "cs", "--ms", str(workspace["ms"]),
                 "--pan", str(twoband), "--out", out]) == 2
    for gain in ("nan", "inf"):
        assert main(["baseline", "--method", "mra-add", "--ms",
                     str(workspace["ms"]), "--pan", str(workspace["pan"]),
                     "--out", out, "--g", gain]) == 1
    for window in ("0", "4"):
        assert main(["baseline", "--method", "sfim", "--ms",
                     str(workspace["ms"]), "--pan", str(workspace["pan"]),
                     "--out", out, "--window", window]) == 1
    for scale in ("0", "-2"):
        assert main(["baseline", "--method", "bicubic", "--ms",
                     str(workspace["ms"]), "--out", out,
                     "--scale", scale]) == 1
    assert not (tmp_path / "o.msdt").exists()


# ---------------------------------------------------------------------------
# metrics commands

def test_eval_reduced_self_comparison(workspace, capsys):
    assert main(["eval-reduced", "--pred", str(workspace["gt"]), "--gt",
                 str(workspace["gt"])]) == 0
    payload = _last_json(capsys)
    assert set(payload) == {"sam", "ergas", "scc", "q4"}
    assert payload["sam"] == 0.0
    assert abs(payload["scc"] - 1.0) < 1e-9
    assert abs(payload["q4"] - 1.0) < 1e-9


def test_eval_full_keys(workspace, tmp_path, capsys):
    up = tmp_path / "up.msdt"
    assert main(["baseline", "--method", "bicubic", "--ms",
                 str(workspace["ms"]), "--out", str(up), "--scale", "4"]) == 0
    capsys.readouterr()
    assert main(["eval-full", "--pred", str(up), "--ms",
                 str(workspace["ms"]), "--pan", str(workspace["pan"])]) == 0
    payload = _last_json(capsys)
    assert set(payload) == {"qnr", "d_lambda", "d_s"}
    assert 0.0 <= payload["qnr"] <= 1.0


def test_eval_full_reports_a_spatial_distortion_above_one(tmp_path, capsys):
    # detail anti-correlated with PAN: each band's Q against PAN turns
    # negative at full scale, so D_s exceeds 1 and QNR is negative
    scene = synth_scene(3, 64)
    up = np.repeat(np.repeat(scene.ms, 4, axis=1), 4, axis=2)
    pred = up - 5 * (scene.pan - scene.pan.mean())
    paths = {}
    for name, arr in (("pred", pred), ("ms", scene.ms), ("pan", scene.pan)):
        paths[name] = tmp_path / f"{name}.msdt"
        save_tensor(paths[name], arr)
    assert main(["eval-full", "--pred", str(paths["pred"]), "--ms",
                 str(paths["ms"]), "--pan", str(paths["pan"])]) == 0
    payload = _last_json(capsys)
    assert 1.0 < payload["d_s"] <= 2.0 and 0.0 <= payload["d_lambda"] <= 2.0
    assert payload["qnr"] == (1 - payload["d_lambda"]) * (1 - payload["d_s"])
    assert payload["qnr"] < 0.0


def test_eval_shape_and_degenerate_exits(workspace, tmp_path):
    small = tmp_path / "small.msdt"
    save_tensor(small, np.ones((4, 8, 8), np.float32))
    assert main(["eval-reduced", "--pred", str(small), "--gt",
                 str(workspace["gt"])]) == 2
    flat = tmp_path / "flat.msdt"
    save_tensor(flat, np.full((4, 8, 8), 0.5, np.float32))
    assert main(["eval-reduced", "--pred", str(flat), "--gt",
                 str(flat)]) == 3


@pytest.mark.parametrize("ratio", ["nan", "inf", "0"])
def test_eval_reduced_rejects_bad_ratio(workspace, capsys, ratio):
    assert main(["eval-reduced", "--pred", str(workspace["gt"]), "--gt",
                 str(workspace["gt"]), "--ratio", ratio]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "ratio" in captured.err


# ---------------------------------------------------------------------------
# tensor inputs and outputs: every flag goes through one reader and writer

def _argv(ws, command, out):
    """A valid argv for command; `out` is its output path, if it has one."""
    argv = {
        "infer": ["infer", "--ckpt", ws["ckpt"], "--ms", ws["ms"],
                  "--out", out],
        "baseline": ["baseline", "--method", "mra-add", "--ms", ws["ms"],
                     "--pan", ws["pan"], "--out", out],
        "bicubic": ["baseline", "--method", "bicubic", "--ms", ws["ms"],
                    "--out", out],
        "eval-reduced": ["eval-reduced", "--pred", ws["gt"], "--gt", ws["gt"]],
        "eval-full": ["eval-full", "--pred", ws["gt"], "--ms", ws["ms"],
                      "--pan", ws["pan"]],
    }[command]
    return [str(a) for a in argv]


def _with_flag(argv, flag, path):
    i = argv.index(flag) + 1
    return argv[:i] + [str(path)] + argv[i + 1:]


TENSOR_FLAGS = [
    ("infer", "--ms"), ("baseline", "--ms"), ("baseline", "--pan"),
    ("bicubic", "--ms"), ("eval-reduced", "--pred"), ("eval-reduced", "--gt"),
    ("eval-full", "--pred"), ("eval-full", "--ms"), ("eval-full", "--pan"),
]


@pytest.mark.parametrize("command, flag", TENSOR_FLAGS)
def test_non_finite_input_is_numeric_error(workspace, tmp_path, capsys,
                                           command, flag):
    out = tmp_path / "o.msdt"
    argv = _argv(workspace, command, out)
    data = load_tensor(argv[argv.index(flag) + 1]).data.copy()
    data[0, 1, 1] = np.nan
    bad = tmp_path / "nan.msdt"
    save_tensor(bad, data)
    assert main(_with_flag(argv, flag, bad)) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {bad}: ")
    assert "NaN" in captured.err
    assert not out.exists()


@pytest.mark.parametrize("shape", [(4, 0, 0), (4, 4)], ids=["empty", "rank2"])
@pytest.mark.parametrize("command, flag", TENSOR_FLAGS)
def test_empty_or_rank2_input_is_shape_error(workspace, tmp_path, capsys,
                                             command, flag, shape):
    out = tmp_path / "o.msdt"
    bad = tmp_path / "bad.msdt"
    save_tensor(bad, np.ones(shape, np.float32))
    assert main(_with_flag(_argv(workspace, command, out), flag, bad)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {bad}: ")
    assert "rank-3" in captured.err
    assert not out.exists()


def test_baseline_overflow_is_numeric_error(workspace, tmp_path, capsys):
    out = tmp_path / "o.msdt"
    assert main(["baseline", "--method", "cs", "--ms", str(workspace["ms"]),
                 "--pan", str(workspace["pan"]), "--out", str(out),
                 "--g", "1e39"]) == 3
    assert capsys.readouterr().out == ""
    assert not out.exists()


def _run_cli(argv):
    """The real process, with the package importable from this checkout."""
    src = str(Path(msdnpan.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-m", "msdnpan.cli", *map(str, argv)],
        capture_output=True, text=True, env=env, timeout=120)


@pytest.mark.parametrize("command", ["infer", "baseline", "train"])
def test_overflow_on_huge_finite_input_is_one_error_line(
        workspace, tmp_path, command):
    """Finite inputs that overflow inside the command: exit 3, no output,
    and no numpy RuntimeWarning lines around the one `error:` line. train
    covers the forked workers that run parts of each batch."""
    out = tmp_path / "o.msdt"
    ms = tmp_path / "ms.msdt"
    if command == "infer":
        save_tensor(ms, np.full((4, 8, 8), 1e30, np.float32))
        argv = ["infer", "--ckpt", workspace["ckpt"], "--ms", ms,
                "--out", out]
    elif command == "train":
        data = tmp_path / "data"
        shutil.copytree(workspace["data"], data)
        for path in data.glob("*/ms.msdt"):
            save_tensor(path, np.full(load_tensor(path).shape, 1e30,
                                      np.float32))
        argv = ["train", "--data", data, "--out", out, "--preset", "desk",
                "--epochs", "1", "--batch", "4", "--channels", "8",
                "--mem-slots", "8", "--nin-depth", "1"]
    else:
        pan = tmp_path / "pan.msdt"
        save_tensor(ms, np.full((4, 8, 8), 3e38, np.float32))
        save_tensor(pan, np.full((1, 32, 32), 3e38, np.float32))
        argv = ["baseline", "--method", "cs", "--ms", ms, "--pan", pan,
                "--out", out]
    proc = _run_cli(argv)
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert not out.exists()
    # in-process, under the suite's error::RuntimeWarning filter
    assert main(list(map(str, argv))) == 3
    assert not out.exists()


def test_entry_prints_one_error_line(workspace, tmp_path):
    """The real process: exit code, one `error:` line, no traceback."""
    data = tmp_path / "data"
    data.mkdir()
    (data / "manifest.json").write_text(json.dumps(
        {"version": 1, "seed": 0, "ids": 5, "split": {}, "params": {}}))
    nan = tmp_path / "nan.msdt"
    gt = load_tensor(workspace["gt"]).data.copy()
    gt[0, 0, 0] = np.nan
    save_tensor(nan, gt)
    for argv, code in (
            (["train", "--data", data, "--out", tmp_path / "m.msdc"], 2),
            (["eval-reduced", "--pred", workspace["gt"], "--gt", nan], 3)):
        proc = _run_cli(argv)
        assert proc.returncode == code, proc.stderr
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
        assert "Traceback" not in proc.stderr


# ---------------------------------------------------------------------------
# dispatch

SUBCOMMAND_FLAGS = {
    "gen-data": {"--out", "--count", "--size", "--seed", "--scale",
                 "--hp-window"},
    "train": {"--data", "--out", "--preset", "--epochs", "--batch", "--lr",
              "--lambda", "--mem-slots", "--channels", "--nin-depth",
              "--head-blocks", "--seed", "--checkpoint-every"},
    "infer": {"--ckpt", "--ms", "--out", "--export-ppm"},
    "baseline": {"--method", "--ms", "--pan", "--out", "--g", "--window",
                 "--scale"},
    "eval-reduced": {"--pred", "--gt", "--ratio"},
    "eval-full": {"--pred", "--ms", "--pan"},
}


@pytest.mark.parametrize("command", sorted(SUBCOMMAND_FLAGS))
def test_subcommand_flags_are_pinned(command):
    """A new option, or one taken away, must come with a change here."""
    sub = build_parser()._subparsers._group_actions[0]
    flags = {s for a in sub.choices[command]._actions for s in a.option_strings}
    assert flags == SUBCOMMAND_FLAGS[command] | {"-h", "--help"}


def test_unknown_and_missing_commands():
    assert main(["not-a-command"]) == 1
    assert main([]) == 1
    # the shipped surface is the pan-sharpener; gradcheck is test code
    sub = build_parser()._subparsers._group_actions[0]
    assert set(sub.choices) == {"gen-data", "train", "infer", "baseline",
                                "eval-reduced", "eval-full"}
    assert main(["gradcheck"]) == 1
    assert importlib.util.find_spec("msdnpan.gradcheck") is None


# ---------------------------------------------------------------------------
# allocator policy

class _Mallopt:
    """Stands in for libc's mallopt: records each call, answers `accepts`."""

    def __init__(self, accepts):
        self.accepts, self.calls = accepts, []

    def __call__(self, param, value):
        self.calls.append((param, value))
        return int(self.accepts)


@pytest.fixture
def fake_libc(monkeypatch):
    """cli's ctypes with CDLL(None) answering the given stand-in libc; the
    once-per-process policy runs again inside the test and after it."""
    def install(libc):
        monkeypatch.setattr(cli, "ctypes", types.SimpleNamespace(
            CDLL=lambda name: libc, c_int=ctypes.c_int))
    cli._keep_freed_memory.cache_clear()
    yield install
    cli._keep_freed_memory.cache_clear()


def _gen_data(tmp_path, name):
    return main(["gen-data", "--out", str(tmp_path / name), "--count", "2",
                 "--size", "16"])


@pytest.mark.parametrize("accepts", [True, False])
def test_allocator_policy_is_set_once(fake_libc, tmp_path, accepts):
    """The mmap threshold goes first; the trim threshold follows only if
    glibc accepted it, and a second command makes no further call."""
    mallopt = _Mallopt(accepts)
    fake_libc(types.SimpleNamespace(mallopt=mallopt))
    assert _gen_data(tmp_path, "a") == 0
    mmap, trim = (-3, 32 << 20), (-1, 256 << 20)  # glibc's malloc.h
    expected = [mmap, trim] if accepts else [mmap]
    assert mallopt.calls == expected
    assert _gen_data(tmp_path, "b") == 0
    assert mallopt.calls == expected


def test_allocator_policy_without_mallopt(fake_libc, tmp_path):
    """A libc without mallopt (macOS) is left as it is."""
    fake_libc(types.SimpleNamespace())
    assert _gen_data(tmp_path, "a") == 0
