"""Command-line interface.

Subcommands: gen-data, train, infer, baseline, eval-reduced, eval-full.
Machine-readable output (JSON, JSON lines) goes to stdout, diagnostics to
stderr. Exit codes: 0 success, 1 usage error, 2 data or format error,
3 numeric failure.

Every tensor a command reads must be non-empty, rank 3 (bands, h, w) and
finite, or the command exits 2 (shape) or 3 (NaN or inf). A command never
writes a tensor that holds NaN or inf; it exits 3 and writes nothing.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import json
import resource
import sys
import time
from pathlib import Path

import numpy as np

from .classic_fusion import METHODS, inject
from .data_pipeline import (
    check_image, export_ppm, generate_dataset, load_manifest, load_split,
    load_tensor, save_tensor,
)
from .errors import (
    DegenerateInputError, FormatError, NumericError, ShapeError,
)
from .injection_net import pansharpen
from .metrics import (
    full_resolution_report, reduced_resolution_report, scale_ratio,
)
from .tensor_core import Tensor, bicubic_upsample
from .trainer import (
    TrainConfig, desk_config, load_checkpoint, model_from_checkpoint,
    override, train,
)


class UsageError(Exception):
    pass


# glibc's mallopt parameter numbers (malloc.h)
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


@functools.cache
def _keep_freed_memory():
    """Keep freed array memory in the process, once per process (glibc).

    By default glibc returns each freed block above a dynamic threshold
    (128 KiB at first) to the kernel, so every command faults its arrays
    in again. A 32 MiB mmap threshold (glibc's cap) serves each per-op
    array from the heap and a 256 MiB trim threshold keeps that heap;
    setting either one turns the dynamic threshold off, so both are set.
    Without mallopt (macOS) or on a rejected value nothing changes.
    """
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    if mallopt(_M_MMAP_THRESHOLD, 32 << 20) == 1:
        mallopt(_M_TRIM_THRESHOLD, 256 << 20)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _emit(payload):
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def _read(path):
    """A tensor input as an ndarray that `check_image` accepts."""
    return check_image(load_tensor(path).data, path)


def _write(path, arr):
    """Save an output ndarray; a non-finite one raises and writes nothing."""
    if not np.isfinite(arr).all():
        raise NumericError(f"output contains NaN or inf; {path} not written")
    save_tensor(path, arr)


def _require_dir(path):
    """Fail before any work when an output file's directory is missing."""
    path = Path(path)
    if not path.parent.is_dir():
        raise FileNotFoundError(f"{path}: no such directory {path.parent}")


@functools.cache
def build_parser():
    """The argument parser, built once per process and shared by every
    `main` call; parsing does not change it."""
    parser = _Parser(prog="msdnpan",
                     description="Pan-sharpening tools: synthetic data, "
                                 "training, inference, baselines, metrics.")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    p = sub.add_parser("gen-data", help="write a synthetic dataset")
    p.add_argument("--out", required=True, help="dataset directory")
    p.add_argument("--count", type=int, required=True, help="number of scenes")
    p.add_argument("--size", type=int, required=True,
                   help="ground-truth image extent")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--scale", type=int, default=4)
    p.add_argument("--hp-window", type=int, default=5)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train a model on a dataset")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--preset", choices=["desk"], default=None,
                   help="desk = laptop-scale defaults")
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--batch", type=int, default=None)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--lambda", dest="loss_weight", type=float, default=None,
                   help="memorizing-loss weight")
    p.add_argument("--mem-slots", type=int, default=None,
                   help="memory bank size N")
    p.add_argument("--channels", type=int, default=None)
    p.add_argument("--nin-depth", type=int, default=None)
    p.add_argument("--head-blocks", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--checkpoint-every", type=int, default=0,
                   help="also save every E epochs")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("infer", help="sharpen an MS tensor (no PAN input)")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--ms", required=True, help="input .msdt, shape (4, h, w)")
    p.add_argument("--out", required=True, help="output .msdt")
    p.add_argument("--export-ppm", default=None,
                   help="also render the RGB bands")
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("baseline", help="classic fusion baselines")
    p.add_argument("--method", required=True,
                   choices=[*METHODS, "bicubic"])
    p.add_argument("--ms", required=True)
    p.add_argument("--pan", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--g", type=float, default=1.0,
                   help="injection gain (read by cs and mra-add)")
    p.add_argument("--window", type=int, default=5,
                   help="low-pass extent (read by mra-add and sfim)")
    p.add_argument("--scale", type=int, default=4,
                   help="upsample factor when no PAN is given (bicubic)")
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("eval-reduced", help="reference-based metrics")
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--ratio", type=float, default=0.25)
    p.set_defaults(func=cmd_eval_reduced)

    p = sub.add_parser("eval-full", help="no-reference metrics (needs PAN)")
    p.add_argument("--pred", required=True)
    p.add_argument("--ms", required=True)
    p.add_argument("--pan", required=True)
    p.set_defaults(func=cmd_eval_full)

    return parser


def cmd_gen_data(args):
    try:    # nothing is written before the first scene is built
        manifest = generate_dataset(args.out, args.count, args.size,
                                    args.seed, scale=args.scale,
                                    hp_window=args.hp_window)
    except MemoryError as e:
        raise ValueError(f"--size {args.size}, --hp-window {args.hp_window}: "
                         f"a scene cannot be allocated ({e})") from None
    _emit({"root": manifest.root, "count": len(manifest.ids),
           "train": len(manifest.train_ids()),
           "test": len(manifest.test_ids())})
    return 0


def cmd_train(args):
    if args.checkpoint_every < 0:
        raise UsageError(f"--checkpoint-every must be >= 0 (0 = never), "
                         f"got {args.checkpoint_every}")
    base = desk_config() if args.preset == "desk" else TrainConfig()
    overrides = {
        "epochs": args.epochs, "batch_size": args.batch, "lr": args.lr,
        "loss_weight": args.loss_weight, "seed": args.seed,
        "memory_slots": args.mem_slots, "channels": args.channels,
        "nin_depth": args.nin_depth, "head_blocks": args.head_blocks,
    }
    override(base, **{k: v for k, v in overrides.items() if v is not None})
    base.validate()
    _require_dir(args.out)      # before the dataset is read or any epoch runs
    manifest = load_manifest(args.data)
    samples = load_split(manifest, "train", with_pan=False)
    if not samples:
        raise FormatError(f"{args.data}: no training samples in the manifest")
    # the model upsamples by the data's own MS-to-GT ratio
    base.model.scale = scale_ratio(samples[0].ms.shape[1:],
                                   samples[0].gt.shape[1:], "MS/GT")
    train(samples, base, log_fn=_emit, checkpoint_path=args.out,
          checkpoint_every=args.checkpoint_every)
    return 0


def cmd_infer(args):
    started = time.perf_counter()
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    _require_dir(args.out)      # before the checkpoint is read
    if args.export_ppm:         # fail before --out is written
        _require_dir(args.export_ppm)
    model = model_from_checkpoint(load_checkpoint(args.ckpt))
    # frozen weights record no tape, so each plane's memory is freed once used
    for p in model.parameters():
        p.requires_grad = False
    ms = _read(args.ms)
    result = pansharpen(Tensor(ms[None]), model).data[0]
    _write(args.out, result)
    if args.export_ppm:
        export_ppm(args.export_ppm, result[:3])
    usage = resource.getrusage(resource.RUSAGE_SELF)
    # ru_maxrss counts KiB on Linux and bytes on macOS
    peak = usage.ru_maxrss / (2 ** 20 if sys.platform == "darwin" else 1024)
    _emit({"out": args.out, "shape": list(result.shape),
           "wall_s": time.perf_counter() - started, "peak_rss_mb": peak,
           "minor_faults": usage.ru_minflt - faults})
    return 0


def cmd_baseline(args):
    if args.method == "bicubic" and args.scale < 1:
        raise UsageError(f"--scale must be >= 1, got {args.scale}")
    _require_dir(args.out)
    ms = _read(args.ms)
    if args.method == "bicubic":
        try:    # the output is allocated before any interpolation work
            out = bicubic_upsample(Tensor(ms), args.scale).data
        except (MemoryError, ValueError) as e:  # ValueError: too big to index
            raise ValueError(f"--scale {args.scale}: the output cannot be "
                             f"allocated ({e})") from None
    elif not args.pan:
        raise UsageError(f"--pan is required for method {args.method}")
    else:
        pan = _read(args.pan)
        up = bicubic_upsample(Tensor(ms), scale_ratio(
            ms.shape[1:], pan.shape[1:], "MS/PAN")).data
        try:    # mra-add and sfim low-pass an edge-padded copy of PAN
            out = inject(up, pan, args.method, args.g, args.window)
        except MemoryError as e:
            raise ValueError(f"--window {args.window}: the low-pass filter "
                             f"cannot be allocated ({e})") from None
    _write(args.out, out)
    _emit({"out": args.out, "shape": list(out.shape)})
    return 0


def cmd_eval_reduced(args):
    _emit(reduced_resolution_report(_read(args.pred), _read(args.gt),
                                    args.ratio))
    return 0


def cmd_eval_full(args):
    _emit(full_resolution_report(_read(args.pred), _read(args.ms),
                                 _read(args.pan)))
    return 0


def main(argv=None):
    _keep_freed_memory()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "func", None):
            raise UsageError("a subcommand is required (see --help)")
        # huge finite inputs may overflow on the way; _write's finiteness
        # check reports that as one error line, so numpy stays quiet
        with np.errstate(all="ignore"):
            return args.func(args)
    except UsageError as e:
        sys.stderr.write(f"error: {e}\n")
        return 1
    except (FormatError, ShapeError, OSError) as e:
        sys.stderr.write(f"error: {e}\n")
        return 2
    except (DegenerateInputError, NumericError) as e:
        sys.stderr.write(f"error: {e}\n")
        return 3
    except ValueError as e:
        sys.stderr.write(f"error: {e}\n")
        return 1


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
