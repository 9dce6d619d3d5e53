"""Training objectives: L1 reconstruction and the memorizing (KL) term.

The memorizing loss pushes the synthesized detail plane toward the
high-pass of the true panchromatic band. Both planes are flattened per
item and softmax-normalised so they can be compared as distributions; the
high-pass acts as the target (p) and the synthesized plane as the
approximation (q) in KL(p || q).

The paper adds an L1 sparsity penalty on the coefficient map. It is left
out: Adam rescales each step, so the penalty's constant per-element
gradient pinned the coefficients near zero and the detail plane never
learned the high-pass (README, criterion 6).
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError
from .tensor_core import Tensor, absolute, div, exp, log, reshape

KL_EPS = 1e-12          # keeps log() finite where a softmax underflows to 0


def l1_loss(pred, target):
    """Mean absolute error over every element."""
    if pred.shape != target.shape:
        raise ShapeError(f"l1_loss shapes differ: {pred.shape} vs {target.shape}")
    return absolute(pred - target).mean()


def _flat_softmax(t):
    """Per-item softmax over all non-batch elements. The per-item max is
    subtracted as a constant, which leaves the softmax value and its
    gradient unchanged."""
    n = t.shape[0]
    flat = reshape(t, (n, -1))
    shift = Tensor(flat.data.max(axis=1, keepdims=True), dtype=flat.dtype)
    e = exp(flat - shift)
    return div(e, e.sum(axis=1, keepdims=True))


def kl_divergence(target, approx):
    """KL(p || q) between per-item softmax distributions, averaged over the
    batch. `target` provides p, `approx` provides q."""
    if target.shape[0] != approx.shape[0]:
        raise ShapeError(
            f"batch sizes differ: {target.shape[0]} vs {approx.shape[0]}")
    if int(np.prod(target.shape[1:])) != int(np.prod(approx.shape[1:])):
        raise ShapeError(
            f"per-item sizes differ: {target.shape} vs {approx.shape}")
    p = _flat_softmax(target)
    q = _flat_softmax(approx)
    terms = p * (log(p + KL_EPS) - log(q + KL_EPS))
    return terms.sum(axis=1).mean()


def total_loss(pred, target, highpass, details, weight):
    """L1 + weight * memorizing, weight being lambda (TrainConfig.loss_weight)
    and the memorizing term KL(highpass || details) over planes of one shape.
    Returns (total, l1, memorizing) tensors."""
    if highpass.shape != details.shape:
        raise ShapeError(
            f"high-pass {highpass.shape} and details {details.shape} differ")
    rec = l1_loss(pred, target)
    mem = kl_divergence(highpass, details)
    return rec + mem * weight, rec, mem
