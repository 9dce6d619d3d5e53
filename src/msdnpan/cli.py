"""Command-line interface.

Subcommands: gen-data, train, infer, baseline, eval-reduced, eval-full,
gradcheck. Machine-readable output (JSON, JSON lines) goes to stdout,
diagnostics to stderr. Exit codes: 0 success, 1 usage error, 2 data or
format error, 3 numeric failure.

Every tensor a command reads must be non-empty, rank 3 (bands, h, w) and
finite, or the command exits 2 (shape) or 3 (NaN or inf). A command never
writes a tensor that holds NaN or inf; it exits 3 and writes nothing.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import gradcheck
from .classic_fusion import InjectionConfig, inject
from .data_pipeline import (
    export_ppm, generate_dataset, load_manifest, load_split, load_tensor,
    save_tensor,
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
    TrainConfig, desk_config, load_checkpoint, model_from_checkpoint, train,
)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _emit(payload):
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def _read(path):
    """A tensor input: non-empty, rank 3 and finite, or a typed error."""
    t = load_tensor(path)
    if t.ndim != 3 or t.data.size == 0:
        raise ShapeError(f"{path}: expected a non-empty rank-3 tensor "
                         f"(bands, h, w), got shape {t.shape}")
    if not np.isfinite(t.data).all():
        raise NumericError(f"{path}: input contains NaN or inf")
    return t


def _write(path, arr):
    """Save an output tensor; a non-finite one raises and writes nothing."""
    data = arr.data if isinstance(arr, Tensor) else arr
    if not np.isfinite(data).all():
        raise NumericError(f"output contains NaN or inf; {path} not written")
    save_tensor(path, arr)


def build_parser():
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
    p.add_argument("--scale", type=int, default=None)
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
                   choices=["cs", "mra-add", "sfim", "bicubic"])
    p.add_argument("--ms", required=True)
    p.add_argument("--pan", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--g", type=float, default=1.0, help="injection gain")
    p.add_argument("--window", type=int, default=5, help="low-pass extent")
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

    p = sub.add_parser("gradcheck", help="finite-difference gradient suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--self-test-corrupt", action="store_true",
                   help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_gradcheck)

    return parser


def cmd_gen_data(args):
    manifest = generate_dataset(args.out, args.count, args.size, args.seed,
                                scale=args.scale, hp_window=args.hp_window)
    _emit({"root": manifest.root, "count": len(manifest.ids),
           "train": len(manifest.train_ids()),
           "test": len(manifest.test_ids())})
    return 0


def cmd_train(args):
    base = desk_config() if args.preset == "desk" else TrainConfig()
    overrides = {
        "epochs": args.epochs, "batch_size": args.batch, "lr": args.lr,
        "loss_weight": args.loss_weight,
    }
    model_overrides = {
        "memory_slots": args.mem_slots, "scale": args.scale,
        "channels": args.channels, "nin_depth": args.nin_depth,
        "head_blocks": args.head_blocks,
    }
    for key, value in overrides.items():
        if value is not None:
            setattr(base, key, value)
    for key, value in model_overrides.items():
        if value is not None:
            setattr(base.model, key, value)
    base.seed = args.seed
    base.validate()
    manifest = load_manifest(args.data)
    samples = load_split(manifest, "train", with_pan=False)
    if not samples:
        raise FormatError(f"{args.data}: no training samples in the manifest")
    train(samples, base, log_fn=_emit, checkpoint_path=args.out,
          checkpoint_every=args.checkpoint_every)
    return 0


def cmd_infer(args):
    model = model_from_checkpoint(load_checkpoint(args.ckpt))
    ms = _read(args.ms)
    result = pansharpen(Tensor(ms.data[None]), model).data[0]
    _write(args.out, result)
    if args.export_ppm:
        export_ppm(args.export_ppm, result[:3])
    _emit({"out": args.out, "shape": list(result.shape)})
    return 0


def cmd_baseline(args):
    ms = _read(args.ms)
    if args.method == "bicubic":
        out = bicubic_upsample(ms, args.scale)
    elif not args.pan:
        raise UsageError(f"--pan is required for method {args.method}")
    else:
        pan = _read(args.pan)
        up = bicubic_upsample(ms, scale_ratio(ms.shape[1:], pan.shape[1:],
                                              "MS/PAN"))
        mode = {"cs": "cs", "mra-add": "mra_additive",
                "sfim": "sfim_multiplicative"}[args.method]
        out = inject(up, pan, InjectionConfig(gain=args.g, window=args.window,
                                              mode=mode))
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


def cmd_gradcheck(args):
    results = gradcheck.run_suite(seed=args.seed,
                                  corrupt=args.self_test_corrupt)
    failures = []
    for name, err in results:
        status = "ok" if err < gradcheck.TOLERANCE else "FAIL"
        sys.stdout.write(f"{name:<16} {err:.3e} {status}\n")
        if status == "FAIL":
            failures.append(name)
    sys.stdout.flush()
    if failures:
        sys.stderr.write(
            "gradient check failed for: " + ", ".join(failures) + "\n")
        return 3
    return 0


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "func", None):
            raise UsageError("a subcommand is required (see --help)")
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
