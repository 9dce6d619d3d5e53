"""Training loop, Adam optimizer at a constant learning rate, checkpointing.

Training consumes (ms, gt, hp) triples; the PAN band itself never enters
the model, only its precomputed high-pass target. Each step stacks the
samples' arrays and flips each item in place by its drawn AUG_MODES entry.
All randomness (weight init, shuffling, augmentation) is derived from the
config seed through named substreams, so a run is reproducible bit-for-bit
on the same number of usable CPUs.

`train` splits each batch into one contiguous part per usable CPU (at most
one per item). The calling process runs part 0; parts 1.. run in worker
processes forked once per run, each with its own copy of the model and one
duplex connection to the parent. A part makes thousands of small numpy
calls, which on threads would contend for the interpreter lock; processes
do not. Each step the parent sends every worker its part's arrays and the
current parameter values, and the worker sends back its gradients and a
dict of its losses, whose keys `_part` alone names. Every loss term is a
per-item mean, so each part back-propagates its loss weighted by its share
of the batch; the part gradients, and each loss share-weighted, are summed
in part order before one Adam step in the parent (the data-parallel
reduction of Goyal et al., arXiv:1706.02677). OpenBLAS is held at one
thread for the whole run, so the parts, not BLAS helper threads, fill the
cores. The part count sets the float summation order: across part counts
float32 results differ by rounding only. Where the loaded BLAS exposes no
thread control, or the platform cannot fork, every step runs as one part.

A worker ignores SIGINT, leaves through `os._exit` and holds no parent end
of any connection, so it ends when the run's connections close, and also
when the parent dies. An exception raised in a worker's part is raised
again in the parent with its type and message; a lost worker, as
ChildProcessError.

Checkpoint files: magic "MSDC", version byte 3, a uint32 header length,
a UTF-8 JSON header (config, epoch, step, params: the sorted parameter
names), then one .msdt tensor blob per listed name, in list order. The
blobs are self-describing, so no payload length is stored. Optimizer state
is not stored.
"""

from __future__ import annotations

import json
import math
import os
import struct
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .backend import _one_blas_thread
from .data_pipeline import (
    decode_tensor, encode_tensor, read_json, tensor_extent,
)
from .errors import FormatError, NumericError, ShapeError
from .injection_net import ModelConfig, PansharpenModel, pansharpen_with_details
from .losses import total_loss
from .tensor_core import Tensor, backward

CKPT_MAGIC = b"MSDC"
CKPT_VERSION = 3

# augmentation modes in draw order: (name, the item axis its flip reverses)
AUG_MODES = (("none", None), ("hflip", -1), ("vflip", -2))

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class TrainConfig:
    epochs: int = 200
    batch_size: int = 16
    lr: float = 2e-3                  # every step, no schedule
    loss_weight: float = 100.0        # lambda, scales the memorizing loss
    augment: bool = True
    seed: int = 0
    model: ModelConfig = field(default_factory=ModelConfig)

    def validate(self):
        for name in ("epochs", "batch_size", "seed", "augment"):
            value, kind = getattr(self, name), bool if name == "augment" else int
            if type(value) is not kind:
                raise TypeError(f"{name} must be {kind.__name__}, got {value!r}")
        for name in ("lr", "loss_weight"):
            value = getattr(self, name)
            if type(value) not in (int, float):
                raise TypeError(f"{name} must be a number, got {value!r}")
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite")
        if self.lr <= 0:
            raise ValueError("lr must be > 0")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.loss_weight < 0:
            raise ValueError("loss_weight must be >= 0")
        self.model.validate()
        return self


def override(config, **fields):
    """Set each named field on config, or else on config.model; an unknown
    name raises TypeError. Returns config."""
    for key, value in fields.items():
        if hasattr(config, key):
            setattr(config, key, value)
        elif hasattr(config.model, key):
            setattr(config.model, key, value)
        else:
            raise TypeError(f"unknown config field {key!r}")
    return config


def desk_config(**overrides):
    """Laptop-scale preset: small model, small batches."""
    model = ModelConfig(channels=16, memory_slots=16, nin_depth=2)
    return override(TrainConfig(batch_size=4, model=model), **overrides)


class AdamState:
    """First/second moments in lists parallel to params, and the step count."""

    def __init__(self, params):
        self.params = list(params)
        self.step_count = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]


def adam_step(state, grads, lr):
    """One bias-corrected Adam update from grads, a list parallel to
    state.params; the gradients are only read. A missing gradient raises
    before anything is updated."""
    for p, g in zip(state.params, grads, strict=True):
        if g is None:
            raise ValueError(f"parameter {p.name} has no gradient")
    state.step_count += 1
    t = state.step_count
    c1 = 1.0 - ADAM_BETA1 ** t
    c2 = 1.0 - ADAM_BETA2 ** t
    for p, g, m, v in zip(state.params, grads, state.m, state.v):
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        p.data -= lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)


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
    tensors; a model too large to allocate raises FormatError."""
    try:
        model = PansharpenModel(ckpt.config.model, rng=None)
    except (MemoryError, ValueError) as e:     # ValueError: too big to index
        raise FormatError(f"checkpoint model cannot be built ({e})") from None
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


def save_checkpoint(path, ckpt):
    names = sorted(ckpt.params)
    header = {
        "config": asdict(ckpt.config),
        "epoch": ckpt.epoch,
        "step": ckpt.step,
        "params": names,
    }
    hjson = json.dumps(header, sort_keys=True).encode("utf-8")
    out = bytearray()
    out += CKPT_MAGIC
    out.append(CKPT_VERSION)
    out += struct.pack("<I", len(hjson))
    out += hjson
    for name in names:
        out += encode_tensor(ckpt.params[name])
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
    if len(buf) < 9 or buf[:4] != CKPT_MAGIC:
        raise FormatError(f"{source}: not a checkpoint file (bad magic)")
    version = buf[4]
    if version != CKPT_VERSION:
        raise FormatError(
            f"{source}: unsupported checkpoint version {version} "
            f"(expected {CKPT_VERSION})")
    (hlen,) = struct.unpack_from("<I", buf, 5)
    pos = 9 + hlen
    if len(buf) < pos:
        raise FormatError(f"{source}: truncated header")
    header = read_json(buf[9:pos], f"{source}: bad header")
    try:
        model = ModelConfig(**header["config"].pop("model"))
        config = TrainConfig(model=model, **header["config"]).validate()
        epoch, step, names = header["epoch"], header["step"], header["params"]
        if not all(type(count) is int and count >= 0 for count in (epoch, step)):
            raise ValueError(f"epoch and step must be integers >= 0, "
                             f"got {epoch!r} and {step!r}")
        if not (isinstance(names, list)
                and all(isinstance(name, str) for name in names)):
            raise TypeError("params must be a list of names")
    except (AttributeError, KeyError, TypeError, ValueError) as e:
        raise FormatError(f"{source}: bad header ({e!r})") from None
    params = {}
    for name in names:
        if name in params:
            raise FormatError(f"{source}: bad header ({name!r} listed twice)")
        _, end = tensor_extent(buf, pos, source)
        params[name] = decode_tensor(buf[pos:end], source=source)
        pos = end
    if pos != len(buf):
        raise FormatError(f"{source}: {len(buf) - pos} trailing bytes")
    return Checkpoint(config=config, params=params, epoch=epoch, step=step)


def _part(model, ms, gt, hp, loss_weight, share):
    """Forward, loss and share-weighted backward of one part of a batch.

    Returns (grads, losses): the gradients as a list parallel to
    model.parameters() and a dict of the part's l1, l_mem and total as
    floats, so the part's graph dies here. A non-finite loss is not
    back-propagated and its grads are None; the caller raises on it."""
    out, details = pansharpen_with_details(Tensor(ms), model)
    tot, l1v, memv = total_loss(out, Tensor(gt), Tensor(hp), details,
                                loss_weight)
    grads = None
    if np.isfinite(tot.data):
        grads = backward(tot * share, model.parameters())
    return grads, {"l1": l1v.item(), "l_mem": memv.item(), "total": tot.item()}


def _serve(model, conn):
    """A part worker's loop: for each (values, job) received on the
    connection conn, load the parameter values into model, run `_part`
    and send back its result, or the exception it raised. Returns when
    the parent closes its end."""
    params = model.parameters()
    while True:
        try:
            values, job = conn.recv()
        except EOFError:
            return
        for p, value in zip(params, values, strict=True):
            p.data[...] = value
        try:
            reply = _part(model, *job)
        except Exception as e:
            reply = e
        conn.send(reply)


def _batch_step(model, ms, gt, hp, loss_weight, workers):
    """One batch's loss gradient with respect to model.parameters().

    The batch splits into min(batch, 1 + len(workers)) contiguous parts:
    part 0 runs on model in this process, part i on the forked worker
    workers[i - 1], which first receives the current parameter values.
    Returns (grads, record): the part gradients summed in part order (None
    when a part's loss is non-finite), and each loss as the share-weighted
    sum of its part values. An exception raised in a worker's part is
    raised here; a worker that has exited raises ChildProcessError."""
    n = len(ms)
    k = min(n, 1 + len(workers))
    cuts = [n * i // k for i in range(k + 1)]
    shares = [(b - a) / n for a, b in zip(cuts, cuts[1:])]
    jobs = [(ms[a:b], gt[a:b], hp[a:b], loss_weight, share)
            for a, b, share in zip(cuts, cuts[1:], shares)]
    current = [p.data for p in model.parameters()]
    try:
        for worker, job in zip(workers, jobs[1:]):
            worker.conn.send((current, job))
        parts = [_part(model, *jobs[0])]
        for worker in workers[:k - 1]:
            parts.append(worker.conn.recv())
    except (BrokenPipeError, ConnectionResetError, EOFError):
        raise ChildProcessError(f"part worker {worker.pid} exited") from None
    for reply in parts[1:]:
        if isinstance(reply, Exception):
            raise reply
    grads = parts[0][0]
    for part_grads, _ in parts[1:]:
        grads = (None if grads is None or part_grads is None
                 else [a + b for a, b in zip(grads, part_grads)])
    record = dict.fromkeys(parts[0][1], 0.0)
    for share, (_, losses) in zip(shares, parts):
        for key, value in losses.items():
            record[key] += share * value
    return grads, record


@dataclass
class _Worker:
    pid: int
    conn: object       # the parent's end of the worker's duplex connection


@contextmanager
def _forked(model, count):
    """Fork count part workers, each holding a copy of model, and yield
    them as a list of _Worker. On exit the connections close, so each
    worker reads EOF and leaves (or fails to send, if it is mid-part), and
    every worker is reaped."""
    # imported here to keep them off the import path of `infer`
    import signal
    from multiprocessing.connection import Pipe
    workers = []
    try:
        for _ in range(count):
            ours, theirs = Pipe()
            pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    # the terminal's Ctrl-C reaches the parent, which stops
                    # the run; a worker ends when its connection closes
                    signal.signal(signal.SIGINT, signal.SIG_IGN)
                    # hold no parent end of any connection, so a dead
                    # parent reads as EOF
                    ours.close()
                    for w in workers:
                        w.conn.close()
                    _serve(model, theirs)
                    status = 0
                finally:
                    # skip the parent's exit handlers and its inherited
                    # stdout buffer
                    os._exit(status)
            theirs.close()
            workers.append(_Worker(pid, ours))
        yield workers
    finally:
        for w in workers:
            w.conn.close()
        for w in workers:
            os.waitpid(w.pid, 0)


@contextmanager
def _workers(model, batch_size):
    """Yield the forked workers that run parts 1.. of each step, one fewer
    than the part count, with BLAS held at one thread throughout. When
    BLAS cannot be held or the platform cannot fork, every step is one
    part and no worker starts."""
    if not hasattr(os, "fork"):
        yield []
        return
    with _one_blas_thread() as pinned:
        k = min(batch_size, len(os.sched_getaffinity(0))) if pinned else 1
        with _forked(model, k - 1) as workers:
            yield workers


def train(samples, config, log_fn=None, hook=None, checkpoint_path=None,
          checkpoint_every=0):
    """Optimize a fresh model on SceneSamples; returns the final Checkpoint.

    log_fn, when given, receives one dict per epoch (epoch, step, mean l1,
    l_mem and total, the mean grad_norm, the epoch's wall seconds,
    samples_per_s and the constant lr); a step's grad_norm is the L2 norm,
    over all parameters, of the summed gradient that Adam receives. hook,
    when given, is called after every optimizer step with (model, epoch,
    step, losses); used by convergence probes.

    Each step runs as one part per usable CPU (see the module docstring),
    so results are bit-identical for the same seed on the same number of
    usable CPUs, and differ only by float32 rounding across CPU counts.
    """
    config.validate()
    if checkpoint_every < 0:
        raise ValueError(f"checkpoint_every must be >= 0 (0 = never), "
                         f"got {checkpoint_every}")
    samples = sorted(samples, key=lambda s: s.id)
    if not samples:
        raise ValueError("training needs at least one sample")
    first = samples[0]
    for s in samples:
        if s.hp is None:
            raise ValueError(f"sample {s.id} lacks the high-pass target")
        for attr in ("ms", "gt", "hp"):
            want, got = getattr(first, attr).shape, getattr(s, attr).shape
            if got != want:
                raise ShapeError(f"sample {s.id}: {attr} shape {got} differs "
                                 f"from {want} of sample {first.id}")
    try:
        model = PansharpenModel(config.model,
                                np.random.default_rng((config.seed, 0)))
    except MemoryError as e:
        raise ValueError(f"the model cannot be allocated ({e})") from None
    adam = AdamState(model.parameters())
    n = len(samples)
    step = 0
    epoch = 0
    with _workers(model, config.batch_size) as workers:
        for epoch in range(config.epochs):
            started = time.perf_counter()
            order = np.random.default_rng((config.seed, 1, epoch)).permutation(n)
            aug_rng = np.random.default_rng((config.seed, 2, epoch))
            sums = {}
            batches = 0
            for start in range(0, n, config.batch_size):
                chosen = [samples[i]
                          for i in order[start:start + config.batch_size]]
                # fresh stacks, so the flips below leave the samples intact
                ms, gt, hp = (np.stack([getattr(s, attr) for s in chosen])
                              for attr in ("ms", "gt", "hp"))
                if config.augment:
                    modes = aug_rng.integers(0, len(AUG_MODES), size=len(chosen))
                    for i, mode in enumerate(modes):
                        axis = AUG_MODES[mode][1]
                        if axis is not None:
                            for batch in (ms, gt, hp):
                                batch[i] = np.flip(batch[i], axis)
                grads, record = _batch_step(model, ms, gt, hp,
                                            config.loss_weight, workers)
                if not math.isfinite(record["total"]):
                    raise NumericError(
                        f"non-finite loss at epoch {epoch} step {step}: "
                        f"l1={record['l1']!r} l_mem={record['l_mem']!r}")
                adam_step(adam, grads, config.lr)
                step += 1
                grad_norm = math.sqrt(sum(
                    float(np.square(g, dtype=np.float64).sum()) for g in grads))
                for key, value in dict(record, grad_norm=grad_norm).items():
                    sums[key] = sums.get(key, 0.0) + value
                batches += 1
                if hook is not None:
                    hook(model, epoch, step, record)
            seconds = time.perf_counter() - started
            if log_fn is not None:
                log_fn({"epoch": epoch, "step": step,
                        **{key: total / batches for key, total in sums.items()},
                        "seconds": seconds, "samples_per_s": n / seconds,
                        "lr": config.lr})
            if (checkpoint_path and checkpoint_every
                    and (epoch + 1) % checkpoint_every == 0
                    and epoch + 1 < config.epochs):
                save_checkpoint(checkpoint_path,
                                snapshot(model, config, epoch + 1, step))
    final = snapshot(model, config, epoch + 1 if config.epochs else 0, step)
    if checkpoint_path:
        save_checkpoint(checkpoint_path, final)
    return final
