"""Per-layer metrics of the traced run, and the layer-to-metric map.

Every timed-phase value is per operation: the phase's total divided by the
operations it ran (optimizer steps including the first, CLI commands, or
infer requests). ``trainer.save_checkpoint_s`` is per set-up, the only
phase it runs in. A layer that does not run on a workload reads 0; a
layer whose function no longer exists is listed as absent and reads 0.

``PROBES`` declares each wrapped function once, with the metric that
reports its self time; the other SPEC rows are computed from counts, from
the fixed kernel shapes, or from the two halves of the run. The fourth
field of each SPEC row records, before any optimisation is
measured, which end-to-end metric the layer should move and on which
workload; traced runs print it beside the value. The end-to-end names are
the per-workload ones; ``workloads.py`` maps them onto the gated
``BENCHMARK.json`` metrics.
"""

from __future__ import annotations

import importlib
import statistics
import time

import numpy as np

from tracing import Probe

KS = (1, 3, 7)

# (batch, c_in, h, w, c_out, k): the conv-backend comparison shapes, timed
# directly on the conv entry points in train-desk's traced run.
KERNEL_SHAPES = (
    (4, 16, 32, 32, 16, 3),
    (4, 16, 32, 32, 16, 7),
    (4, 32, 64, 64, 32, 3),
    (1, 64, 128, 128, 64, 3),
)
KERNEL_REPEATS = 5


def _shape_tag(shape):
    n, ci, h, _, co, k = shape
    return f"n{n}c{ci}h{h}o{co}k{k}"


TRAIN = "train.step_s.p50 on train-desk"
INFER = "infer.ms*_s.p50 on infer-mixed"
NET = INFER + "; " + TRAIN
BASE = "baseline.mra_s.p50 on baseline-eval"
IO = "eval.*_s.p50 and baseline.mra_s.p50 on baseline-eval"
REDUCED = "eval.reduced_s.p50 on baseline-eval"
FULL = "eval.full_s.p50 on baseline-eval"


def _conv_k(args, kwargs):
    return int(args[1].shape[-1])


def _grad_weight_k(args, kwargs):
    return int(args[2] if len(args) > 2 else kwargs["k"])


def _conv_fwd_work(args, kwargs):
    """Computed FLOPs and bytes of one forward conv (inputs, weights and
    output read or written once; im2col copies and cache misses ignored)."""
    x, w = args[0], args[1]
    n, ci, h, wd = x.shape
    co, _, k, _ = w.shape
    out = n * co * h * wd
    return {"flop": 2 * out * ci * k * k,
            "bytes": x.itemsize * (x.size + w.size + out)}


def _tensor_mb(arr):
    """Megabytes of an ndarray or of a Tensor's array."""
    nbytes = getattr(arr, "nbytes", None)
    return {"mb": (arr.data.nbytes if nbytes is None else nbytes) / 1e6}


# Every wrapped name, and the per-layer metric that reports its span's
# self time per op. A probe with k_of reports one metric per kernel size.
PROBES = (
    Probe("cli", "main", "cli.main", "cli.self_s",
          "every infer.* and eval.* metric (argument parsing, JSON emit)"),
    Probe("cli", "load_checkpoint", "trainer.load_checkpoint",
          "trainer.load_checkpoint_s", "infer.ms16_s.p50 on infer-mixed"),
    Probe("cli", "model_from_checkpoint", "trainer.model_from_checkpoint",
          "trainer.model_from_checkpoint_s", "infer.ms16_s.p50 on infer-mixed"),
    Probe("cli", "load_tensor", "data_pipeline.load_tensor",
          "data_pipeline.load_tensor_s", IO, result_work=_tensor_mb),
    Probe("cli", "save_tensor", "data_pipeline.save_tensor",
          "data_pipeline.save_tensor_s", BASE,
          work=lambda a, kw: _tensor_mb(a[1])),
    Probe("cli", "inject", "classic_fusion.inject",
          "classic_fusion.inject_s", BASE),
    Probe("cli", "bicubic_upsample", "tensor_core.bicubic_upsample",
          "tensor_core.bicubic_upsample_s", "infer.ms64_s.p50 on infer-mixed"),
    Probe("injection_net", "bicubic_upsample", "tensor_core.bicubic_upsample"),
    Probe("injection_net", "head", "injection_net.head",
          "injection_net.head_s", NET),
    Probe("injection_net", "nin_forward", "injection_net.nin_forward",
          "injection_net.nin_forward_s", NET),
    Probe("injection_net", "msdn_forward", "msdn.msdn_forward",
          "msdn.forward_self_s", NET),
    *(Probe("msdn", fn, f"msdn.{fn}", f"msdn.{fn}_s", NET)
      for fn in ("expand_memory", "encode_query", "decode_memory",
                 "spatial_attention", "weighted_coefficients",
                 "channel_attention", "compose_spatial_details")),
    # conv2d_grad_input calls conv2d_forward through the same module
    # attribute; that inner call stays inside the grad span.
    Probe("backend", "conv2d_forward", "backend.conv_fwd",
          "backend.conv_fwd_s", "infer.mpix_per_s on infer-mixed; " + TRAIN,
          k_of=_conv_k, work=_conv_fwd_work,
          skip_under="backend.conv_grad_input"),
    Probe("backend", "conv2d_grad_input", "backend.conv_grad_input",
          "backend.conv_grad_input_s", TRAIN + " only", k_of=_conv_k),
    Probe("backend", "conv2d_grad_weight", "backend.conv_grad_weight",
          "backend.conv_grad_weight_s", TRAIN + " only", k_of=_grad_weight_k),
    Probe("trainer", "train", "trainer.train", "trainer.train_self_s",
          TRAIN + " (batching, augmentation, loss checks)"),
    Probe("trainer", "backward", "tensor_core.backward",
          "tensor_core.backward_self_s",
          TRAIN + " (backward minus conv grad kernels)"),
    Probe("trainer", "total_loss", "losses.total_loss",
          "losses.total_loss_s", TRAIN),
    Probe("trainer", "adam_step", "trainer.adam_step",
          "trainer.adam_step_s", "train.samples_per_s on train-desk"),
    Probe("trainer", "save_checkpoint", "trainer.save_checkpoint"),
    *(Probe("metrics", fn, f"metrics.{fn}", f"metrics.{fn}_s", REDUCED)
      for fn in ("sam", "ergas", "scc", "q4")),
    *(Probe("metrics", fn, f"metrics.{fn}", f"metrics.{fn}_s", FULL)
      for fn in ("d_lambda", "d_s")),
    Probe("metrics", "q_index", "metrics.q_index", count_only=True),
)


def _self_time_rows():
    """(per-layer metric, span whose self time per op it reports, moves)."""
    for probe in PROBES:
        if probe.k_of is not None:
            for k in KS:
                yield f"{probe.metric}.k{k}", f"{probe.span}.k{k}", probe.moves
        elif probe.metric:
            yield probe.metric, probe.span, probe.moves


SELF = {name: span for name, span, _ in _self_time_rows()}


def _spec():
    rows = [(name, "s/op", "lower", moves)
            for name, _, moves in _self_time_rows()]
    rows += [
        ("tensor_core.backward_s", "s/op", "lower",
         TRAIN + "; never runs on infer-mixed"),
        ("tensor_core.bicubic_upsample.calls", "count/op", "lower",
         "infer.ms64_s.p50 on infer-mixed"),
        ("backend.conv_calls", "count/op", "lower",
         "infer-mixed and train-desk; never baseline-eval"),
    ]
    for k in KS:
        rows += [
            (f"backend.conv_fwd_gflop.k{k}", "GFLOP/op", "lower",
             "computed from array sizes; " + TRAIN),
            (f"backend.conv_fwd_flop_per_byte.k{k}", "flop/B", "higher",
             "computed from array sizes, no roofline ratio (peak not measured)"),
            (f"backend.conv_fwd_gflops.k{k}", "GFLOP/s", "higher",
             "infer.mpix_per_s on infer-mixed; " + TRAIN),
        ]
    for shape in KERNEL_SHAPES:
        tag = _shape_tag(shape)
        for what in ("fwd_s", "grad_input_s", "grad_weight_s"):
            rows.append((f"backend.conv_{what}.{tag}", "s", "lower",
                         "kernel shape timed on train-desk only; " + TRAIN))
        rows.append((f"backend.conv_fwd_gflops.{tag}", "GFLOP/s", "higher",
                     "kernel shape timed on train-desk only; " + TRAIN))
    rows += [
        ("trainer.save_checkpoint_s", "s", "lower", "setup_s on infer-mixed"),
        ("data_pipeline.tensor_mb", "MB/op", "lower", IO),
        ("metrics.q_index.calls", "count/op", "lower", FULL),
        ("trace.untraced_op_s.p50", "s", "lower", "op_s.p50 of the untraced half"),
        ("trace.traced_op_s.p50", "s", "lower", "op_s.p50 of the traced half"),
        ("trace.overhead_ratio", "ratio", "lower",
         "traced over untraced op_s.p50, minus 1"),
        ("trace.spans_self_share", "ratio", "higher",
         "share of traced wall time inside layer spans"),
        ("trace.harness_share", "ratio", "lower",
         "share of traced wall time in harness code"),
    ]
    return rows


SPEC = _spec()
UNITS = {name: unit for name, unit, _, _ in SPEC}


def compute(tracer, ops, wall_s, untraced_p50, traced_p50, kernels):
    """Per-layer values keyed like SPEC, from the traced timed phase."""
    rows, top_s = tracer.summarize("timed")
    setup_rows, _ = tracer.summarize("setup")

    def per_op(value):
        return value / ops if ops else 0.0

    def self_s(span):
        return rows.get(span, {}).get("self_s", 0.0)

    def count(key):
        return tracer.count("timed", key)

    out = {name: per_op(self_s(span)) for name, span in SELF.items()}
    out["tensor_core.backward_s"] = per_op(
        rows.get("tensor_core.backward", {}).get("total_s", 0.0))
    out["tensor_core.bicubic_upsample.calls"] = per_op(
        count("tensor_core.bicubic_upsample.calls"))
    conv_calls = 0.0
    for k in KS:
        span = f"backend.conv_fwd.k{k}"
        flop, nbytes = count(span + ".flop"), count(span + ".bytes")
        fwd_s = self_s(span)
        out[f"backend.conv_fwd_gflop.k{k}"] = per_op(flop) / 1e9
        out[f"backend.conv_fwd_flop_per_byte.k{k}"] = flop / nbytes if nbytes else 0.0
        out[f"backend.conv_fwd_gflops.k{k}"] = flop / fwd_s / 1e9 if fwd_s else 0.0
        for what in ("fwd", "grad_input", "grad_weight"):
            conv_calls += rows.get(f"backend.conv_{what}.k{k}", {}).get("calls", 0)
    out["backend.conv_calls"] = per_op(conv_calls)
    for shape in KERNEL_SHAPES:
        tag = _shape_tag(shape)
        for what in ("fwd_s", "grad_input_s", "grad_weight_s", "fwd_gflops"):
            key = f"backend.conv_{what}.{tag}"
            out[key] = kernels.get(key, 0.0)
    out["trainer.save_checkpoint_s"] = setup_rows.get(
        "trainer.save_checkpoint", {}).get("self_s", 0.0)
    out["data_pipeline.tensor_mb"] = per_op(
        count("data_pipeline.load_tensor.mb") + count("data_pipeline.save_tensor.mb"))
    out["metrics.q_index.calls"] = per_op(count("metrics.q_index.calls"))
    out["trace.untraced_op_s.p50"] = untraced_p50
    out["trace.traced_op_s.p50"] = traced_p50
    out["trace.overhead_ratio"] = traced_p50 / untraced_p50 - 1.0
    out["trace.spans_self_share"] = top_s / wall_s
    out["trace.harness_share"] = (wall_s - top_s) / wall_s
    return out


def _median_time(fn, repeats):
    fn()
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def time_kernel_shapes(seed, shapes=KERNEL_SHAPES, repeats=KERNEL_REPEATS):
    """Median seconds of the three conv entry points on fixed shapes.

    Returns {} when the entry points no longer exist under these names.
    """
    backend = importlib.import_module("msdnpan.backend")
    try:
        fwd, gin, gw = (backend.conv2d_forward, backend.conv2d_grad_input,
                        backend.conv2d_grad_weight)
    except AttributeError:
        return {}
    rng = np.random.default_rng((seed, 11))
    out = {}
    for shape in shapes:
        b, ci, h, w, co, k = shape
        x = rng.standard_normal((b, ci, h, w)).astype(np.float32)
        wt = rng.standard_normal((co, ci, k, k)).astype(np.float32)
        gy = rng.standard_normal((b, co, h, w)).astype(np.float32)
        tag = _shape_tag(shape)
        fwd_s = _median_time(lambda: fwd(x, wt), repeats)
        out[f"backend.conv_fwd_s.{tag}"] = fwd_s
        out[f"backend.conv_grad_input_s.{tag}"] = _median_time(
            lambda: gin(gy, wt), repeats)
        out[f"backend.conv_grad_weight_s.{tag}"] = _median_time(
            lambda: gw(x, gy, k), repeats)
        out[f"backend.conv_fwd_gflops.{tag}"] = (
            2 * b * co * h * w * ci * k * k / fwd_s / 1e9)
    return out
