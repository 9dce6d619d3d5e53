"""Training objectives: reconstruction, memorizing (KL), and sparsity terms.

The memorizing loss pushes the synthesized detail plane toward the
high-pass of the true panchromatic band. Both planes are flattened per
item and softmax-normalised so they can be compared as distributions; the
high-pass acts as the target (p) and the synthesized plane as the
approximation (q) in KL(p || q).
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError
from .tensor_core import absolute, constant, div, exp, log, reshape


def l1_loss(pred, target):
    """Mean absolute error over every element."""
    if pred.shape != target.shape:
        raise ShapeError(f"l1_loss shapes differ: {pred.shape} vs {target.shape}")
    return absolute(pred - target).mean()


def sparsity_loss(coeff):
    """Sum of absolute coefficients, normalised by batch size."""
    if coeff.ndim < 1:
        raise ShapeError("sparsity_loss expects a batched tensor")
    return absolute(coeff).sum() / coeff.shape[0]


def _flat_softmax(t):
    """Per-item softmax over all non-batch elements. The per-item max is
    subtracted as a constant, which leaves the softmax value and its
    gradient unchanged."""
    n = t.shape[0]
    flat = reshape(t, (n, -1))
    shift = constant(flat.data.max(axis=1, keepdims=True), dtype=flat.dtype)
    e = exp(flat - shift)
    return div(e, e.sum(axis=1, keepdims=True))


def kl_divergence(target, approx, eps=1e-12):
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
    epsc = float(eps)
    terms = p * (log(p + epsc) - log(q + epsc))
    return terms.sum(axis=1).mean()


def memorizing_loss(highpass, details, coeff):
    """KL alignment of the detail plane with the PAN high-pass, plus an L1
    sparsity penalty on the coefficient map."""
    if highpass.shape != details.shape:
        raise ShapeError(
            f"high-pass {highpass.shape} and details {details.shape} differ")
    return kl_divergence(highpass, details) + sparsity_loss(coeff)


def total_loss(pred, target, highpass, details, coeff, weight):
    """L1 + weight * memorizing, weight being lambda (TrainConfig.loss_weight).
    Returns (total, l1, memorizing) tensors."""
    rec = l1_loss(pred, target)
    mem = memorizing_loss(highpass, details, coeff)
    return rec + mem * weight, rec, mem
