"""The three workloads: seeded inputs, set-up, a closed loop, output checks.

Each workload is one client that sends its next request only after the
previous one returns, in one process. Timed requests go through the
public entry points only: ``trainer.train`` for training and
``cli.main([...])`` in-process for infer, baseline and eval-*. Both are
looked up on their module at call time, so the tracer's wrappers see them.

Every timed request is checked and every failure is counted, never
raised: ``attempted`` counts per-request checks plus the run-level checks
done after the timed loop.

The gated metrics (run.END_TO_END) are the same on every workload; each
run also prints its workload's own metrics, which they summarise:

- mpix_per_s is output megapixels (GT extent) over the summed seconds of
  all timed requests. On train-desk it is train.samples_per_s times
  64*64/1e6; on infer-mixed it is infer.mpix_per_s; on baseline-eval it
  counts the fused scenes over the time of all three commands.
- op_s.p50 is the median of one fixed request class per workload, so the
  class it reads does not depend on how many requests fit in a run:
  train.step_s.p50 on train-desk, infer.ms16_s.p50 on infer-mixed, and on
  baseline-eval the median scene (its three commands' summed latency).
- op_tail_ratio is the 80th percentile of each request's latency over its
  class's median, pooled over classes (tail_ratio).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from msdnpan import cli, data_pipeline, trainer
from msdnpan.injection_net import ModelConfig, PansharpenModel, pansharpen
from msdnpan.tensor_core import Tensor

SCALE = 4
BANDS = 4

# An untrained full model's outputs reach ~1e3. float32 has a unit
# roundoff of 6e-8; across ~30 conv layers with dot products of up to 576
# terms the observed error is ~3e-6 of the output's largest magnitude, so
# 1e-4 of that magnitude bounds float32-vs-float64 disagreement.
ORACLE_REL_TOL = 1e-4


class Recorder:
    """Request latencies and check outcomes of one timed loop."""

    def __init__(self):
        self.ops = []           # (kind, seconds, output megapixels)
        self.executed = 0       # requests run, warm-up step included
        self.attempted = 0
        self.failures = []
        self.epoch_totals = {}  # train-desk: epoch -> per-step total losses

    def op(self, kind, seconds, mpix):
        self.ops.append((kind, seconds, mpix))

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    def seconds(self, kind=None):
        return [s for k, s, _ in self.ops if kind is None or k == kind]


def throughput(rec):
    """Output megapixels per second of request time."""
    return sum(m for _, _, m in rec.ops) / sum(rec.seconds())


def tail_ratio(rec):
    """80th percentile, over all requests, of latency divided by the median
    latency of the request's class: how much slower than usual the slowest
    fifth of requests are, on one scale for every class, whatever the class
    mix or the number of requests in a run. (The 90th percentile, tried
    first, spread about twice as much between runs.)"""
    ratios = []
    for kind in {k for k, _, _ in rec.ops}:
        secs = rec.seconds(kind)
        median = statistics.median(secs)
        ratios += [s / median for s in secs]
    if len(ratios) < 2:
        return max(ratios)
    return statistics.quantiles(ratios, n=5)[-1]


def p50(values, unit="s"):
    return statistics.median(values), unit, f"n={len(values)}"


def tail(values, unit="s"):
    """Highest order statistic with at least ten samples above it, as
    (value, unit, note naming its percentile and the sample count). With
    ten samples or fewer no such percentile exists; the maximum is given."""
    s = sorted(values)
    n = len(s)
    if n <= 10:
        return s[-1], unit, f"max, n={n}: too few samples for a tail"
    i = n - 11
    return s[i], unit, f"p{100.0 * i / (n - 1):.1f}, n={n}"


def _cli(argv):
    """Run one msdnpan command in-process; (exit code or error, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = cli.main([str(a) for a in argv])
        except Exception as e:  # a crash is a failed request, not a dead run
            code = f"raised {type(e).__name__}: {e}"
    return code, out.getvalue()


def _last_json(text):
    try:
        return json.loads(text.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return None


def _finite_tensor(path, shape):
    """Load an .msdt output; None unless it has `shape` and is finite."""
    try:
        arr = data_pipeline.load_tensor(path).data
    except (OSError, ValueError):   # missing or malformed file
        return None
    if arr.shape != shape or not np.isfinite(arr).all():
        return None
    return arr


def _poison(path):
    """Overwrite an output with NaN (self-test of failure counting)."""
    arr = data_pipeline.load_tensor(path).data
    data_pipeline.save_tensor(path, np.full_like(arr, np.nan))


class _Deadline(Exception):
    pass


# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrainSizes:
    count: int = 40             # same data as `gen-data --count 40 --size 64`
    size: int = 64


class TrainDesk:
    """desk_config training on the README quickstart data, augmentation on.

    The hook timestamps every optimizer step; the first step of each
    train() call builds the model and is not timed.
    """

    name = "train-desk"
    op = "optimizer steps"
    why = ("every backward closure, all three conv kernels, the losses and "
           "Adam at small-channel shapes; no metrics, no per-step .msdt I/O")

    def __init__(self, work, seed, sizes=TrainSizes()):
        self.work, self.seed, self.sizes = Path(work), seed, sizes
        self.info = {}          # check details for the result file

    def _config(self, epochs):
        return trainer.desk_config(epochs=epochs, seed=self.seed)

    def setup(self):
        data = self.work / "data"
        code, _ = _cli(["gen-data", "--out", data, "--count", self.sizes.count,
                        "--size", self.sizes.size, "--seed", self.seed])
        if code != 0:
            raise RuntimeError(f"gen-data failed: {code}")
        manifest = data_pipeline.load_manifest(data)
        self.samples = data_pipeline.load_split(manifest, "train", with_pan=False)
        cfg = self._config(1)
        trainer.train(self.samples[:cfg.batch_size], cfg)

    def run(self, seconds, rec, poison=False):
        cfg = self._config(10 ** 9)
        n, batch = len(self.samples), cfg.batch_size
        per_epoch = -(-n // batch)
        out_px = self.sizes.size ** 2
        last = [None]

        def hook(model, epoch, step, record):
            now = time.perf_counter()
            rec.executed += 1
            if poison and step == 2:
                record = dict(record, total=math.nan)
            in_epoch = step - 1 - epoch * per_epoch
            samples = min(batch, n - in_epoch * batch)
            if last[0] is not None:
                rec.op("step", now - last[0], samples * out_px / 1e6)
            rec.check(all(math.isfinite(v) for v in record.values()),
                      f"step {step}: non-finite loss {record}")
            rec.epoch_totals.setdefault(epoch, []).append(record["total"])
            last[0] = now
            if now >= deadline:
                raise _Deadline

        deadline = time.perf_counter() + seconds
        try:
            trainer.train(self.samples, cfg, hook=hook)
        except _Deadline:
            pass
        except Exception as e:  # e.g. NumericError on a non-finite loss
            rec.check(False, f"train raised {type(e).__name__}: {e}")

    def verify(self, rec):
        per_epoch = -(-len(self.samples) // self._config(1).batch_size)
        full = [e for e, v in sorted(rec.epoch_totals.items())
                if len(v) == per_epoch]
        if rec.check(len(full) >= 2, f"only {len(full)} complete epochs"):
            first = statistics.fmean(rec.epoch_totals[full[0]])
            lastm = statistics.fmean(rec.epoch_totals[full[-1]])
            self.info["epoch_mean_total"] = {"first": first, "last": lastm}
            rec.check(lastm < first,
                      f"mean total loss did not fall: {first} -> {lastm}")

    def op_seconds(self, rec):
        return rec.seconds("step")

    def named(self, rec):
        steps = rec.seconds()
        per_mpix = 1e6 / self.sizes.size ** 2
        return {"train.samples_per_s": (throughput(rec) * per_mpix, "samples/s",
                                        f"over {len(steps)} steps"),
                "train.step_s.p50": p50(steps),
                "train.step_s.tail": tail(steps)}


# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InferSizes:
    ms: tuple = (16, 32, 64)
    # requests per round of each size: a design choice that gives each
    # size class the same output pixels per round, so each carries equal
    # weight in infer.mpix_per_s
    mix: tuple = (16, 4, 1)
    model: ModelConfig = field(default_factory=ModelConfig)


class InferMixed:
    """`msdnpan infer` of a full-config checkpoint over MS scenes of
    growing size, in seeded order. Timing does not depend on the weights,
    so the checkpoint comes from a seeded untrained model."""

    name = "infer-mixed"
    op = "infer requests of the smallest scene"
    why = ("forward only on planes up to 256x256x32; checkpoint load is a "
           "large fixed share on small scenes and memory grows with pixels")

    def __init__(self, work, seed, sizes=InferSizes()):
        self.work, self.seed, self.sizes = Path(work), seed, sizes
        self.info = {}          # check details for the result file
        self.reference = {}     # MS size -> first output that passed checks

    def _ms_path(self, m):
        return self.work / f"ms{m}.msdt"

    def setup(self):
        cfg = trainer.TrainConfig(seed=self.seed, model=self.sizes.model)
        model = PansharpenModel(cfg.model, np.random.default_rng((self.seed, 0)))
        self.ckpt = self.work / "model.msdc"
        trainer.save_checkpoint(self.ckpt, trainer.snapshot(model, cfg))
        for i, m in enumerate(self.sizes.ms):
            scene = data_pipeline.synth_scene([self.seed, i], m * SCALE)
            data_pipeline.save_tensor(self._ms_path(m), scene.ms)
        m = self.sizes.ms[0]
        code, _ = _cli(["infer", "--ckpt", self.ckpt, "--ms", self._ms_path(m),
                        "--out", self.work / "warmup.msdt"])
        if code != 0:
            raise RuntimeError(f"infer failed: {code}")

    def run(self, seconds, rec, poison=False):
        plan = [m for m, c in zip(self.sizes.ms, self.sizes.mix)
                for _ in range(c)]
        rng = np.random.default_rng((self.seed, 1))
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            for i in rng.permutation(len(plan)):
                m = plan[i]
                out = self.work / f"out{m}.msdt"
                t0 = time.perf_counter()
                code, _ = _cli(["infer", "--ckpt", self.ckpt,
                                "--ms", self._ms_path(m), "--out", out])
                dt = time.perf_counter() - t0
                rec.executed += 1
                rec.op(f"ms{m}", dt, (m * SCALE) ** 2 / 1e6)
                if poison and rec.executed == 2:
                    _poison(out)
                self._check(rec, m, code, out)

    def _check(self, rec, m, code, out):
        if not rec.check(code == 0, f"infer ms{m}: exit {code}"):
            return
        arr = _finite_tensor(out, (BANDS, m * SCALE, m * SCALE))
        if not rec.check(arr is not None, f"infer ms{m}: non-finite or misshapen"):
            return
        ref = self.reference.setdefault(m, arr)
        rec.check(np.array_equal(arr, ref), f"infer ms{m}: output changed")

    def verify(self, rec):
        """Float64 re-run of the checkpoint on one scene per size."""
        errs = self.info["oracle_rel_err"] = {}
        ckpt = trainer.load_checkpoint(self.ckpt)
        model = PansharpenModel(ckpt.config.model,
                                np.random.default_rng((self.seed, 0)),
                                dtype=np.float64)
        for name, p in model.named_parameters().items():
            p.data[...] = ckpt.params[name]
        for m in self.sizes.ms:
            if not rec.check(m in self.reference, f"oracle ms{m}: no output"):
                continue
            ms = data_pipeline.load_tensor(self._ms_path(m)).data
            ref = pansharpen(Tensor(ms.astype(np.float64)[None]), model).data[0]
            scale = max(1.0, float(np.abs(ref).max()))
            err = float(np.abs(self.reference[m] - ref).max()) / scale
            errs[f"ms{m}"] = err
            rec.check(err <= ORACLE_REL_TOL,
                      f"oracle ms{m}: float64 disagreement {err:.3g} of max")

    def op_seconds(self, rec):
        return rec.seconds(f"ms{self.sizes.ms[0]}")

    def named(self, rec):
        out = {"infer.mpix_per_s": (throughput(rec), "Mpix/s",
                                    f"over {len(rec.ops)} requests")}
        for i, m in enumerate(self.sizes.ms):
            per = rec.seconds(f"ms{m}")
            out[f"infer.ms{m}_s.p50"] = p50(per)
            if i == 0:
                out[f"infer.ms{m}_s.tail"] = tail(per)
        return out


# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EvalSizes:
    gt: int = 512               # GT 512x512, MS 128x128
    scenes: int = 3


_REDUCED_RANGE = {"sam": (0.0, math.pi), "ergas": (0.0, math.inf),
                  "scc": (-1.0, 1.0), "q4": (-1.0, 1.0)}
_FULL_RANGE = {"qnr": (0.0, 1.0), "d_lambda": (0.0, 1.0), "d_s": (0.0, 1.0)}


class BaselineEval:
    """Per scene: `baseline --method mra-add`, then `eval-reduced` against
    GT, then `eval-full` against MS and PAN. No conv and no tape: metrics,
    classic fusion and .msdt I/O of 512x512 tensors."""

    name = "baseline-eval"
    op = "scenes (baseline, eval-reduced and eval-full summed)"
    why = ("no conv, no tape: metrics, classic fusion and 512x512 .msdt I/O; "
           "the control that must stay flat for model-side changes")

    def __init__(self, work, seed, sizes=EvalSizes()):
        self.work, self.seed, self.sizes = Path(work), seed, sizes
        self.info = {}          # check details for the result file
        self.reference = {}     # (scene, command) -> first checked result

    def _scene(self, i):
        return self.work / f"scene{i}"

    def setup(self):
        for i in range(self.sizes.scenes):
            scene = data_pipeline.synth_scene([self.seed, i], self.sizes.gt)
            d = self._scene(i)
            d.mkdir(parents=True, exist_ok=True)
            for part in ("ms", "pan", "gt"):
                data_pipeline.save_tensor(d / f"{part}.msdt", getattr(scene, part))
        d = self._scene(0)
        code, _ = _cli(["baseline", "--method", "mra-add", "--ms", d / "ms.msdt",
                        "--pan", d / "pan.msdt", "--out", d / "warmup.msdt"])
        if code != 0:
            raise RuntimeError(f"baseline failed: {code}")

    def run(self, seconds, rec, poison=False):
        rng = np.random.default_rng((self.seed, 1))
        order = []
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            if not order:
                order = list(rng.permutation(self.sizes.scenes))
            self._chain(int(order.pop()), rec, poison and rec.executed == 0)

    def _timed(self, rec, kind, argv, mpix):
        t0 = time.perf_counter()
        code, text = _cli(argv)
        rec.op(kind, time.perf_counter() - t0, mpix)
        rec.executed += 1
        return code, text

    def _chain(self, i, rec, poison):
        d = self._scene(i)
        ms, pan, gt, fused = (d / "ms.msdt", d / "pan.msdt", d / "gt.msdt",
                              d / "fused.msdt")
        size = self.sizes.gt
        code, _ = self._timed(rec, "mra", [
            "baseline", "--method", "mra-add", "--ms", ms, "--pan", pan,
            "--out", fused], size * size / 1e6)
        if poison:
            _poison(fused)
        if rec.check(code == 0, f"baseline scene{i}: exit {code}"):
            arr = _finite_tensor(fused, (BANDS, size, size))
            if rec.check(arr is not None, f"baseline scene{i}: non-finite"):
                ref = self.reference.setdefault((i, "mra"), arr)
                rec.check(np.array_equal(arr, ref), f"baseline scene{i}: changed")
        for kind, argv, ranges in (
                ("reduced", ["eval-reduced", "--pred", fused, "--gt", gt],
                 _REDUCED_RANGE),
                ("full", ["eval-full", "--pred", fused, "--ms", ms, "--pan", pan],
                 _FULL_RANGE)):
            code, text = self._timed(rec, kind, argv, 0.0)
            self._check_values(rec, f"eval-{kind} scene{i}", (i, kind), code,
                               _last_json(text), ranges)

    def _check_values(self, rec, what, key, code, values, ranges):
        if not rec.check(code == 0 and isinstance(values, dict),
                         f"{what}: exit {code}"):
            return
        ok = all(isinstance(values.get(k), float) and lo <= values[k] <= hi
                 for k, (lo, hi) in ranges.items())
        if rec.check(ok, f"{what}: values out of range {values}"):
            ref = self.reference.setdefault(key, values)
            rec.check(values == ref, f"{what}: values changed")

    def verify(self, rec):
        """sam(X, X) = 0, and D_lambda of a nearest-neighbour upsample = 0."""
        d = self._scene(0)
        code, text = _cli(["eval-reduced", "--pred", d / "gt.msdt",
                           "--gt", d / "gt.msdt"])
        values = _last_json(text) or {}
        rec.check(code == 0 and values.get("sam") == 0.0,
                  f"sam(X,X) != 0: exit {code}, {values}")
        ms = data_pipeline.load_tensor(d / "ms.msdt").data
        nn = np.repeat(np.repeat(ms, SCALE, axis=1), SCALE, axis=2)
        data_pipeline.save_tensor(d / "nn.msdt", nn)
        code, text = _cli(["eval-full", "--pred", d / "nn.msdt",
                           "--ms", d / "ms.msdt", "--pan", d / "pan.msdt"])
        values = _last_json(text) or {}
        rec.check(code == 0 and values.get("d_lambda") == 0.0,
                  f"D_lambda(NN upsample) != 0: exit {code}, {values}")

    def op_seconds(self, rec):
        """Per scene, the summed latency of its three commands (each scene
        records one of each, in order)."""
        return [sum(t) for t in zip(rec.seconds("mra"), rec.seconds("reduced"),
                                    rec.seconds("full"))]

    def named(self, rec):
        return {"baseline.mra_s.p50": p50(rec.seconds("mra")),
                "eval.reduced_s.p50": p50(rec.seconds("reduced")),
                "eval.full_s.p50": p50(rec.seconds("full"))}


WORKLOADS = {w.name: w for w in (TrainDesk, InferMixed, BaselineEval)}

# sizes for the harness self-test: every code path, a few seconds each
TOY = {
    "train-desk": TrainSizes(count=8, size=32),
    "infer-mixed": InferSizes(ms=(8, 16), mix=(2, 1), model=ModelConfig(
        channels=8, memory_slots=8, nin_depth=2, head_blocks=1)),
    "baseline-eval": EvalSizes(gt=64, scenes=2),
}
