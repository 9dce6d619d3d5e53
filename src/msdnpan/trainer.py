"""Training loop, Adam optimizer, learning-rate schedule, checkpointing.

Training consumes (ms, gt, hp) triples; the PAN band itself never enters
the model, only its precomputed high-pass target. All randomness (weight
init, shuffling, augmentation) is derived from the config seed through
named substreams, so a run is reproducible bit-for-bit.

Checkpoint files: magic "MSDC", version byte, a length-prefixed UTF-8 JSON
header (config, epoch, step, RNG counters), an entry count, then repeated
(uint32 name length, name bytes, embedded .msdt tensor blob). The tensor
blobs are self-describing, so no per-entry payload length is stored.
"""

from __future__ import annotations

import json
import math
import os
import struct
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
    """Per-parameter first/second moments plus the shared step counter."""

    def __init__(self, params, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = list(params)
        names = [p.name for p in self.params]
        if len(names) != len(set(names)):
            raise ValueError("duplicate parameter names")
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.step_count = 0
        self.m = {p.name: np.zeros_like(p.data) for p in self.params}
        self.v = {p.name: np.zeros_like(p.data) for p in self.params}


def adam_step(state, lr):
    """One bias-corrected Adam update; gradients are zeroed afterward."""
    state.step_count += 1
    t = state.step_count
    c1 = 1.0 - state.beta1 ** t
    c2 = 1.0 - state.beta2 ** t
    for p in state.params:
        g = p.grad
        if g is None:
            raise ValueError(f"parameter {p.name} has no gradient")
        m, v = state.m[p.name], state.v[p.name]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * g * g
        p.data -= lr * (m / c1) / (np.sqrt(v / c2) + state.eps)
        p.zero_grad()


@dataclass
class Checkpoint:
    config: TrainConfig
    params: dict
    moments_m: dict
    moments_v: dict
    epoch: int
    step: int


def snapshot(model, config, adam=None, epoch=0, step=0):
    params = {p.name: p.data.copy() for p in model.parameters()}
    m = {k: v.copy() for k, v in adam.m.items()} if adam else {}
    v = {k: w.copy() for k, w in adam.v.items()} if adam else {}
    return Checkpoint(config=config, params=params, moments_m=m, moments_v=v,
                      epoch=epoch, step=step)


def model_from_checkpoint(ckpt):
    """Rebuild the model and overwrite its tensors with the stored ones."""
    cfg = ckpt.config
    model = PansharpenModel(cfg.model, np.random.default_rng((cfg.seed, 0)))
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
    entries = []
    for name in sorted(ckpt.params):
        entries.append(("param." + name, ckpt.params[name]))
    for name in sorted(ckpt.moments_m):
        entries.append(("adam.m." + name, ckpt.moments_m[name]))
    for name in sorted(ckpt.moments_v):
        entries.append(("adam.v." + name, ckpt.moments_v[name]))
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
    tensors = {}
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
        _, end = tensor_extent(buf, pos, source)
        tensors[name] = decode_tensor(buf[pos:end], source=source)
        pos = end
    if pos != len(buf):
        raise FormatError(f"{source}: {len(buf) - pos} trailing bytes")
    params, mm, mv = {}, {}, {}
    for name, arr in tensors.items():
        if name.startswith("param."):
            params[name[6:]] = arr
        elif name.startswith("adam.m."):
            mm[name[7:]] = arr
        elif name.startswith("adam.v."):
            mv[name[7:]] = arr
        else:
            raise FormatError(f"{source}: unknown entry {name!r}")
    try:
        config = _config_from_json(header["config"]).validate()
        ckpt = Checkpoint(config=config, params=params, moments_m=mm,
                          moments_v=mv, epoch=header["epoch"], step=header["step"])
        if header["rng"] != _rng_header(ckpt):
            raise ValueError("rng counters disagree with seed, epoch and step")
    except (AttributeError, KeyError, TypeError, ValueError) as e:
        raise FormatError(f"{source}: bad header ({e!r})") from None
    return ckpt


def _stack(samples, attr):
    return Tensor(np.stack([getattr(s, attr).data for s in samples]))


def train(samples, config, log_fn=None, hook=None, checkpoint_path=None,
          checkpoint_every=0):
    """Optimize a fresh model on SceneSamples; returns the final Checkpoint.

    log_fn, when given, receives one dict per epoch (step, l1, l_mem,
    total). hook, when given, is called after every optimizer step with
    (model, epoch, step, losses); used by convergence probes.
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
    for epoch in range(config.epochs):
        lr = lr_at(epoch, config)
        order = np.random.default_rng((config.seed, 1, epoch)).permutation(n)
        aug_rng = np.random.default_rng((config.seed, 2, epoch))
        sums = {"l1": 0.0, "l_mem": 0.0, "total": 0.0}
        batches = 0
        for start in range(0, n, config.batch_size):
            chosen = [samples[i] for i in order[start:start + config.batch_size]]
            if config.augment:
                modes = aug_rng.integers(0, len(AUG_MODES), size=len(chosen))
                chosen = [augment_sample(s, AUG_MODES[m])
                          for s, m in zip(chosen, modes)]
            ms = _stack(chosen, "ms")
            gt = _stack(chosen, "gt")
            hp = _stack(chosen, "hp")
            out, details, coeff = pansharpen_with_details(ms, model)
            tot, l1v, memv = total_loss(out, gt, hp, details, coeff,
                                        config.loss_weight)
            if not np.isfinite(tot.data):
                raise NumericError(
                    f"non-finite loss at epoch {epoch} step {step}: "
                    f"l1={l1v.item()!r} l_mem={memv.item()!r}")
            backward(tot)
            adam_step(adam, lr)
            step += 1
            record = {"l1": l1v.item(), "l_mem": memv.item(),
                      "total": tot.item()}
            for key in sums:
                sums[key] += record[key]
            batches += 1
            if hook is not None:
                hook(model, epoch, step, record)
        if log_fn is not None:
            log_fn({"epoch": epoch, "step": step,
                    "l1": sums["l1"] / batches,
                    "l_mem": sums["l_mem"] / batches,
                    "total": sums["total"] / batches})
        if (checkpoint_path and checkpoint_every
                and (epoch + 1) % checkpoint_every == 0
                and epoch + 1 < config.epochs):
            save_checkpoint(checkpoint_path,
                            snapshot(model, config, adam, epoch + 1, step))
    final = snapshot(model, config, adam,
                     epoch + 1 if config.epochs else 0, step)
    if checkpoint_path:
        save_checkpoint(checkpoint_path, final)
    return final
