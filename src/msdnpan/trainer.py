"""Training loop, Adam optimizer, learning-rate schedule, checkpointing.

Training consumes (ms, gt, hp) triples; the PAN band itself never enters
the model, only its precomputed high-pass target. All randomness (weight
init, shuffling, augmentation) is derived from the config seed through
named substreams, so a run is reproducible bit-for-bit on the same number
of usable CPUs.

`train` splits each batch into one contiguous part per usable CPU (at most
one per item). The calling thread runs part 0 on the model and a thread
pool runs the rest on replicas that share the model's parameter arrays but
own their gradients. Every loss term is a per-item mean, so each part
back-propagates its loss weighted by its share of the batch, and the part
gradients are summed in part order before one Adam step (the data-parallel
reduction of Goyal et al., arXiv:1706.02677). OpenBLAS is held at one
thread for the whole run, so the parts, not BLAS helper threads, fill the
cores. The part count sets the float summation order: across part counts
float32 results differ by rounding only. Where the loaded BLAS exposes no
thread control, every step runs as one part.

Checkpoint files: magic "MSDC", version byte, a length-prefixed UTF-8 JSON
header (config, epoch, step, RNG counters), an entry count, then one entry
per model parameter: (uint32 name length, "param." + name bytes, embedded
.msdt tensor blob). The tensor blobs are self-describing, so no per-entry
payload length is stored. Optimizer state is not stored.
"""

from __future__ import annotations

import contextvars
import ctypes
import json
import math
import os
import struct
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .data_pipeline import augment as augment_sample
from .data_pipeline import decode_tensor, encode_tensor, tensor_extent
from .errors import FormatError, NumericError
from .injection_net import ModelConfig, PansharpenModel, pansharpen_with_details
from .losses import total_loss
from .tensor_core import Tensor, backward

CKPT_MAGIC = b"MSDC"
CKPT_VERSION = 1

AUG_MODES = ("none", "hflip", "vflip")

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class TrainConfig:
    epochs: int = 200
    batch_size: int = 16
    lr: float = 4e-4
    decay_every: int = 50
    decay_factor: float = 0.5
    loss_weight: float = 0.001        # lambda, scales the memorizing loss
    augment: bool = True
    seed: int = 0
    model: ModelConfig = field(default_factory=ModelConfig)

    def validate(self):
        for name in ("lr", "loss_weight", "decay_factor"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.lr <= 0:
            raise ValueError("lr must be > 0")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.decay_every < 1:
            raise ValueError("decay_every must be >= 1")
        if self.loss_weight < 0:
            raise ValueError("loss_weight must be >= 0")
        self.model.validate()
        return self


def desk_config(**overrides):
    """Laptop-scale preset: small model, small batches, 8x8 MS patches."""
    model = ModelConfig(channels=16, memory_slots=16, nin_depth=2)
    cfg = TrainConfig(batch_size=4, model=model)
    for key, value in overrides.items():
        if hasattr(cfg, key):
            setattr(cfg, key, value)
        elif hasattr(model, key):
            setattr(model, key, value)
        else:
            raise TypeError(f"unknown config field {key!r}")
    return cfg


def lr_at(epoch, config):
    """Stepped decay: lr * factor^(epoch // every)."""
    if epoch < 0:
        raise ValueError("epoch must be >= 0")
    return config.lr * config.decay_factor ** (epoch // config.decay_every)


class AdamState:
    """First/second moments in lists parallel to params, and the step count."""

    def __init__(self, params):
        self.params = list(params)
        self.step_count = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]


def adam_step(state, lr):
    """One bias-corrected Adam update; gradients are zeroed afterward."""
    state.step_count += 1
    t = state.step_count
    c1 = 1.0 - ADAM_BETA1 ** t
    c2 = 1.0 - ADAM_BETA2 ** t
    for p, m, v in zip(state.params, state.m, state.v):
        g = p.grad
        if g is None:
            raise ValueError(f"parameter {p.name} has no gradient")
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        p.data -= lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)
        p.zero_grad()


@dataclass
class Checkpoint:
    config: TrainConfig
    params: dict
    epoch: int
    step: int


def snapshot(model, config, epoch=0, step=0):
    params = {p.name: p.data.copy() for p in model.parameters()}
    return Checkpoint(config=config, params=params, epoch=epoch, step=step)


def model_from_checkpoint(ckpt):
    """Rebuild the model, drawing no initial values, and copy in the stored
    tensors."""
    model = PansharpenModel(ckpt.config.model, rng=None)
    named = model.named_parameters()
    if set(named) != set(ckpt.params):
        missing = set(named) ^ set(ckpt.params)
        raise FormatError(f"checkpoint/model parameter mismatch: {sorted(missing)}")
    for name, value in ckpt.params.items():
        if named[name].data.shape != value.shape:
            raise FormatError(
                f"{name}: stored shape {value.shape} != model "
                f"{named[name].data.shape}")
        named[name].data[...] = value
    return model


def _config_from_json(d):
    model = ModelConfig(**d.pop("model"))
    return TrainConfig(model=model, **d)


def _rng_header(ckpt):
    # The RNG substreams are keyed by (seed, epoch); the header records them.
    return {"seed": ckpt.config.seed, "epoch": ckpt.epoch, "step": ckpt.step}


def save_checkpoint(path, ckpt):
    header = {
        "config": asdict(ckpt.config),
        "epoch": ckpt.epoch,
        "step": ckpt.step,
        "rng": _rng_header(ckpt),
    }
    hjson = json.dumps(header, sort_keys=True).encode("utf-8")
    entries = [("param." + name, ckpt.params[name])
               for name in sorted(ckpt.params)]
    out = bytearray()
    out += CKPT_MAGIC
    out.append(CKPT_VERSION)
    out += struct.pack("<I", len(hjson))
    out += hjson
    out += struct.pack("<I", len(entries))
    for name, arr in entries:
        nb = name.encode("utf-8")
        out += struct.pack("<I", len(nb))
        out += nb
        out += encode_tensor(arr)
    # Write beside the target and rename over it, so a failed write leaves
    # the previous checkpoint intact.
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_bytes(out)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def load_checkpoint(path):
    source = str(path)
    try:
        buf = Path(path).read_bytes()
    except FileNotFoundError:
        raise FormatError(f"{source}: no such file") from None
    if len(buf) < 13 or buf[:4] != CKPT_MAGIC:
        raise FormatError(f"{source}: not a checkpoint file (bad magic)")
    version = buf[4]
    if version != CKPT_VERSION:
        raise FormatError(
            f"{source}: unsupported checkpoint version {version} "
            f"(expected {CKPT_VERSION})")
    (hlen,) = struct.unpack_from("<I", buf, 5)
    pos = 9
    if len(buf) < pos + hlen + 4:
        raise FormatError(f"{source}: truncated header")
    try:
        header = json.loads(buf[pos:pos + hlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise FormatError(f"{source}: bad header ({e})") from None
    pos += hlen
    (count,) = struct.unpack_from("<I", buf, pos)
    pos += 4
    params = {}
    for _ in range(count):
        if len(buf) < pos + 4:
            raise FormatError(f"{source}: truncated entry")
        (nlen,) = struct.unpack_from("<I", buf, pos)
        pos += 4
        try:
            name = buf[pos:pos + nlen].decode("utf-8")
        except UnicodeDecodeError:
            raise FormatError(f"{source}: entry name is not UTF-8") from None
        pos += nlen
        if not name.startswith("param."):
            raise FormatError(f"{source}: unknown entry {name!r}")
        if name[6:] in params:
            raise FormatError(f"{source}: duplicate entry {name!r}")
        _, end = tensor_extent(buf, pos, source)
        params[name[6:]] = decode_tensor(buf[pos:end], source=source)
        pos = end
    if pos != len(buf):
        raise FormatError(f"{source}: {len(buf) - pos} trailing bytes")
    try:
        config = _config_from_json(header["config"]).validate()
        ckpt = Checkpoint(config=config, params=params,
                          epoch=header["epoch"], step=header["step"])
        if header["rng"] != _rng_header(ckpt):
            raise ValueError("rng counters disagree with seed, epoch and step")
    except (AttributeError, KeyError, TypeError, ValueError) as e:
        raise FormatError(f"{source}: bad header ({e!r})") from None
    return ckpt


def _stack(samples, attr):
    return np.stack([getattr(s, attr).data for s in samples])


def _blas_thread_controls():
    """(get, set) thread-count functions of the OpenBLAS mapped into this
    process, or None when there is none or it exposes no such symbols."""
    try:
        with open("/proc/self/maps") as f:
            libs = {line.split()[-1] for line in f if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas_", "64_"),
                               ("openblas_", "64_"), ("openblas_", "")):
            get = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


@contextmanager
def _one_blas_thread():
    """Hold BLAS at one thread and restore its count on exit. Yields False,
    changing nothing, when BLAS has no thread controls."""
    controls = _blas_thread_controls()
    if controls is None:
        yield False
        return
    get, put = controls
    before = get()
    put(1)
    try:
        yield True
    finally:
        put(before)


def _replica(model):
    """A model whose parameters share model's arrays but own their gradients."""
    rep = PansharpenModel(model.config, rng=None)
    for p, q in zip(model.parameters(), rep.parameters()):
        q.data = p.data
    return rep


def _part(model, ms, gt, hp, loss_weight, share):
    """Forward, loss and share-weighted backward of one part of a batch.

    Returns the part's (l1, l_mem, total) as floats, so its graph dies here.
    A non-finite loss is not back-propagated; the caller raises on it."""
    out, details, coeff = pansharpen_with_details(Tensor(ms), model)
    tot, l1v, memv = total_loss(out, Tensor(gt), Tensor(hp), details, coeff,
                                loss_weight)
    if np.isfinite(tot.data):
        backward(tot * share)
    return l1v.item(), memv.item(), tot.item()


def _batch_step(replicas, ms, gt, hp, loss_weight, pool):
    """Accumulate one batch's loss gradient into replicas[0]'s parameters.

    The batch splits into min(batch, len(replicas)) contiguous parts; part
    i runs on replicas[i], on the calling thread for part 0 and through
    `pool` for the rest. Replica gradients are added to replicas[0]'s in
    part order and zeroed. Returns the batch's l1, l_mem and total as the
    share-weighted sums of the part values."""
    n = len(ms)
    replicas = replicas[:n]
    cuts = [n * i // len(replicas) for i in range(len(replicas) + 1)]
    shares = [(b - a) / n for a, b in zip(cuts, cuts[1:])]
    jobs = [(rep, ms[a:b], gt[a:b], hp[a:b], loss_weight, share)
            for rep, a, b, share in zip(replicas, cuts, cuts[1:], shares)]
    # each worker runs in a copy of the caller's context, so it keeps the
    # caller's numpy error state (cli.main silences overflow warnings)
    later = [pool.submit(contextvars.copy_context().run, _part, *job)
             for job in jobs[1:]]
    parts = [_part(*jobs[0])] + [f.result() for f in later]
    params = replicas[0].parameters()
    for rep in replicas[1:]:
        for p, q in zip(params, rep.parameters()):
            p.grad += q.grad
            q.zero_grad()
    record = dict.fromkeys(("l1", "l_mem", "total"), 0.0)
    for share, values in zip(shares, parts):
        for key, value in zip(record, values):
            record[key] += share * value
    return record


@contextmanager
def _workers(model, batch_size):
    """Yield the replicas (model first) and the thread pool that run the
    parts of each step, with BLAS held at one thread throughout. When BLAS
    cannot be held, the replicas are just [model] and the pool stays idle."""
    # imported here to keep it off the import path of `infer`
    from concurrent.futures import ThreadPoolExecutor
    with _one_blas_thread() as pinned:
        k = min(batch_size, len(os.sched_getaffinity(0))) if pinned else 1
        replicas = [model] + [_replica(model) for _ in range(k - 1)]
        # threads start on first submit, so a one-part run starts none
        with ThreadPoolExecutor(max(k - 1, 1), "msdnpan-part") as pool:
            yield replicas, pool


def train(samples, config, log_fn=None, hook=None, checkpoint_path=None,
          checkpoint_every=0):
    """Optimize a fresh model on SceneSamples; returns the final Checkpoint.

    log_fn, when given, receives one dict per epoch (epoch, step, mean l1,
    l_mem and total, the epoch's wall seconds, samples_per_s and lr). hook,
    when given, is called after every optimizer step with (model, epoch,
    step, losses); used by convergence probes.

    Each step runs as one part per usable CPU (see the module docstring),
    so results are bit-identical for the same seed on the same number of
    usable CPUs, and differ only by float32 rounding across CPU counts.
    """
    config.validate()
    samples = sorted(samples, key=lambda s: s.id)
    if not samples:
        raise ValueError("training needs at least one sample")
    for s in samples:
        if s.hp is None:
            raise ValueError(f"sample {s.id} lacks the high-pass target")
    model = PansharpenModel(config.model, np.random.default_rng((config.seed, 0)))
    adam = AdamState(model.parameters())
    n = len(samples)
    step = 0
    epoch = 0
    with _workers(model, config.batch_size) as (replicas, pool):
        for epoch in range(config.epochs):
            started = time.perf_counter()
            lr = lr_at(epoch, config)
            order = np.random.default_rng((config.seed, 1, epoch)).permutation(n)
            aug_rng = np.random.default_rng((config.seed, 2, epoch))
            sums = {"l1": 0.0, "l_mem": 0.0, "total": 0.0}
            batches = 0
            for start in range(0, n, config.batch_size):
                chosen = [samples[i]
                          for i in order[start:start + config.batch_size]]
                if config.augment:
                    modes = aug_rng.integers(0, len(AUG_MODES), size=len(chosen))
                    chosen = [augment_sample(s, AUG_MODES[m])
                              for s, m in zip(chosen, modes)]
                record = _batch_step(
                    replicas, _stack(chosen, "ms"), _stack(chosen, "gt"),
                    _stack(chosen, "hp"), config.loss_weight, pool)
                if not math.isfinite(record["total"]):
                    raise NumericError(
                        f"non-finite loss at epoch {epoch} step {step}: "
                        f"l1={record['l1']!r} l_mem={record['l_mem']!r}")
                adam_step(adam, lr)
                step += 1
                for key in sums:
                    sums[key] += record[key]
                batches += 1
                if hook is not None:
                    hook(model, epoch, step, record)
            seconds = time.perf_counter() - started
            if log_fn is not None:
                log_fn({"epoch": epoch, "step": step,
                        "l1": sums["l1"] / batches,
                        "l_mem": sums["l_mem"] / batches,
                        "total": sums["total"] / batches,
                        "seconds": seconds, "samples_per_s": n / seconds,
                        "lr": lr})
            if (checkpoint_path and checkpoint_every
                    and (epoch + 1) % checkpoint_every == 0
                    and epoch + 1 < config.epochs):
                save_checkpoint(checkpoint_path,
                                snapshot(model, config, epoch + 1, step))
    final = snapshot(model, config, epoch + 1 if config.epochs else 0, step)
    if checkpoint_path:
        save_checkpoint(checkpoint_path, final)
    return final
