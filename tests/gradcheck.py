"""Central finite-difference validation of the autodiff primitives.

Test code: the tests import it as ``import gradcheck``, and pytest does not
collect it because its name does not start with ``test_``.

Every case builds a scalar loss from float64 leaves (non-scalar outputs
are contracted with a fixed random projection), computes the analytic
gradient once, then perturbs each leaf element by +/-h. Relative error is
|a - n| / max(1, |a|, |n|). Inputs that sit on activation kinks are pushed
away from them so the finite differences stay two-sided.
"""

from __future__ import annotations

import numpy as np

from msdnpan import losses, tensor_core as tc
from msdnpan.injection_net import (
    InjectionBlockWeights, ModelConfig, PansharpenModel, injection_block,
    pansharpen_with_details,
)
from msdnpan.msdn import MsdnWeights, msdn_forward

TOLERANCE = 1e-4
STEP = 1e-5


def max_rel_error(analytic, numeric):
    a = np.asarray(analytic, dtype=np.float64).ravel()
    n = np.asarray(numeric, dtype=np.float64).ravel()
    if a.size == 0:
        return 0.0
    denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(n)))
    return float(np.max(np.abs(a - n) / denom))


def check(make_loss, leaves, tamper=0.0):
    """Worst relative error between analytic and central-difference grads.

    `tamper` scales the analytic gradients by (1 + tamper); nonzero values
    are the negative control proving the comparator rejects wrong grads.
    """
    analytic = []
    for g in tc.backward(make_loss(), leaves):
        if g is None:
            raise AssertionError("leaf did not receive a gradient")
        analytic.append(g * (1.0 + tamper))
    worst = 0.0
    for t, ag in zip(leaves, analytic):
        flat = t.data.ravel()
        num = np.empty_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + STEP
            hi = float(make_loss().data)
            flat[i] = orig - STEP
            lo = float(make_loss().data)
            flat[i] = orig
            num[i] = (hi - lo) / (2.0 * STEP)
        worst = max(worst, max_rel_error(ag, num))
    return worst


def _leaf(rng, shape, low=-1.0, high=1.0):
    return tc.Tensor(rng.uniform(low, high, size=shape), requires_grad=True)


def _leaf_off_kink(rng, shape, margin=0.1):
    x = rng.uniform(margin, 1.0, size=shape)
    sign = rng.integers(0, 2, size=shape) * 2 - 1
    return tc.Tensor(x * sign, requires_grad=True)


def _projected(rng, builder, leaves):
    out_shape = builder().data.shape
    proj = tc.Tensor(rng.standard_normal(out_shape))

    def make_loss():
        return (builder() * proj).sum()

    return make_loss, leaves


def _case_binary(rng, op):
    a = _leaf(rng, (2, 3, 4, 4))
    b = _leaf(rng, (1, 3, 1, 1))
    if op is tc.div:
        b = tc.Tensor(rng.uniform(0.5, 1.5, size=(1, 3, 1, 1)),
                      requires_grad=True)
    return _projected(rng, lambda: op(a, b), [a, b])


def _case_scale_neg(rng):
    a = _leaf(rng, (3, 5))
    return _projected(rng, lambda: -tc.scale(a, 1.7), [a])


def _case_unary(rng, op, leaf):
    return _projected(rng, lambda: op(leaf), [leaf])


def _case_prelu(rng):
    x = _leaf_off_kink(rng, (2, 3, 4, 4))
    slope = tc.Tensor(rng.uniform(0.1, 0.6, size=3), requires_grad=True)
    return _projected(rng, lambda: tc.prelu(x, slope), [x, slope])


def _case_reduce(rng, op, axis, keepdims):
    x = _leaf(rng, (2, 3, 4, 4))
    if op is tc.reduce_max:
        # distinct values so the argmax is stable under +/-h
        base = np.arange(x.data.size, dtype=np.float64)
        rng.shuffle(base)
        x = tc.Tensor((base.reshape(x.data.shape) * 0.01), requires_grad=True)
    return _projected(rng, lambda: op(x, axis, keepdims), [x])


def _case_conv(rng, ci, co, k, size):
    x = _leaf(rng, (2, ci) + size)
    w = _leaf(rng, (co, ci, k, k))
    b = _leaf(rng, (co,))
    return _projected(rng, lambda: tc.conv2d(x, w, b), [x, w, b])


def _case_concat(rng):
    a = _leaf(rng, (2, 2, 3, 3))
    b = _leaf(rng, (2, 3, 3, 3))
    return _projected(rng, lambda: tc.concat_channels(a, b), [a, b])


def _case_reshape(rng):
    x = _leaf(rng, (2, 3, 4))
    return _projected(rng, lambda: tc.reshape(x, (6, 4)), [x])


def _case_tile_mul(rng):
    q = _leaf(rng, (2, 3, 6, 4))
    tiles = _leaf(rng, (3, 2, 2))
    return _projected(rng, lambda: tc.tile_mul(q, tiles), [q, tiles])


def _case_pool(rng, op):
    x = _leaf(rng, (2, 3, 4, 6))
    return _projected(rng, lambda: op(x), [x])


def _case_bicubic(rng, factor):
    x = _leaf(rng, (1, 2, 4, 5))
    return _projected(rng, lambda: tc.bicubic_upsample(x, factor), [x])


def _nudge(rng, params):
    # Zero-initialised biases make whole pre-activation regions exactly 0,
    # parking the evaluation point on relu kinks where central differences
    # measure one-sided slopes. Nudge every parameter to a generic point.
    for p in params:
        sign = rng.integers(0, 2, size=p.data.shape) * 2 - 1
        p.data += rng.uniform(0.05, 0.25, size=p.data.shape) * sign
    return params


def _case_injection_block(rng):
    """One NIN block: prelu of y and of -y, three convs, the residual."""
    block = InjectionBlockWeights("blk", 4, rng, dtype=np.float64)
    params = _nudge(rng, tc.parameters(block))
    y = _leaf_off_kink(rng, (2, 4, 4, 4))
    return _projected(rng, lambda: injection_block(y, block), [y, *params])


def _case_msdn(rng):
    """The detail generator: memory expansion, query, decode, spatial and
    channel attention, coefficients and the channel-sum composition."""
    config = ModelConfig(scale=2, channels=2, memory_slots=2)
    weights = MsdnWeights(config, rng, dtype=np.float64)
    params = _nudge(rng, tc.parameters(weights))
    x = _leaf_off_kink(rng, (2, 2, 4, 4))
    return _projected(rng, lambda: msdn_forward(x, weights), [x, *params])


def _case_l1(rng):
    a = _leaf(rng, (2, 3, 4, 4))
    b = _leaf(rng, (2, 3, 4, 4))
    return (lambda: losses.l1_loss(a, b)), [a, b]


def _case_kl(rng):
    p = _leaf(rng, (2, 1, 4, 4))
    q = _leaf(rng, (2, 1, 4, 4))
    return (lambda: losses.kl_divergence(p, q)), [p, q]


def _case_end_to_end(rng):
    config = ModelConfig(scale=2, channels=2, memory_slots=2, head_blocks=1,
                         nin_depth=2)
    model = PansharpenModel(config, rng, dtype=np.float64)
    _nudge(rng, model.parameters())
    ms = tc.Tensor(rng.uniform(0.1, 0.9, size=(1, 4, 4, 4)))
    gt = tc.Tensor(rng.uniform(0.1, 0.9, size=(1, 4, 8, 8)))
    hp = tc.Tensor(rng.uniform(-0.2, 0.2, size=(1, 1, 8, 8)))

    def make_loss():
        out, details = pansharpen_with_details(ms, model)
        return losses.total_loss(out, gt, hp, details, 0.5)[0]

    return make_loss, model.parameters()


def cases(seed=0):
    """Ordered (name, make_loss, leaves) triples for the whole suite."""
    def r(salt):
        return np.random.default_rng((seed, salt))

    out = [
        ("add", *_case_binary(r(1), tc.add)),
        ("sub", *_case_binary(r(2), tc.sub)),
        ("mul", *_case_binary(r(3), tc.mul)),
        ("div", *_case_binary(r(4), tc.div)),
        ("scale_neg", *_case_scale_neg(r(5))),
        ("abs", *_case_unary(r(6), tc.absolute, _leaf_off_kink(r(106), (3, 4)))),
        ("exp", *_case_unary(r(7), tc.exp, _leaf(r(107), (3, 4)))),
        ("log", *_case_unary(r(8), tc.log,
                             tc.Tensor(r(108).uniform(0.5, 1.5, (3, 4)),
                                       requires_grad=True))),
        ("relu", *_case_unary(r(9), tc.relu, _leaf_off_kink(r(109), (3, 4)))),
        ("sigmoid", *_case_unary(r(10), tc.sigmoid, _leaf(r(110), (3, 4)))),
        ("prelu_channel", *_case_prelu(r(12))),
        ("sum", *_case_reduce(r(13), tc.reduce_sum, (1, 2), False)),
        ("mean", *_case_reduce(r(14), tc.reduce_mean, 1, True)),
        ("mean_spatial", *_case_reduce(r(32), tc.reduce_mean, (2, 3), True)),
        ("max", *_case_reduce(r(15), tc.reduce_max, 1, True)),
        ("reshape", *_case_reshape(r(16))),
        ("concat_channels", *_case_concat(r(17))),
        ("tile_mul", *_case_tile_mul(r(18))),
        ("avg_pool2", *_case_pool(r(19), tc.avg_pool2)),
        ("nearest_up2", *_case_pool(r(20), tc.nearest_up2)),
        ("conv2d_3x3", *_case_conv(r(21), 3, 4, 3, (5, 5))),
        ("conv2d_1x1", *_case_conv(r(22), 3, 2, 1, (4, 4))),
        ("conv2d_7x7", *_case_conv(r(23), 2, 1, 7, (8, 8))),
        ("bicubic_up2", *_case_bicubic(r(24), 2)),
        ("bicubic_up3", *_case_bicubic(r(25), 3)),
        ("injection_block", *_case_injection_block(r(33))),
        ("msdn_forward", *_case_msdn(r(34))),
        ("l1_loss", *_case_l1(r(28))),
        ("kl_divergence", *_case_kl(r(30))),
        ("end_to_end", *_case_end_to_end(r(31))),
    ]
    return out


def run_suite(seed=0):
    """Evaluate every case; returns a list of (name, max_rel_error)."""
    return [(name, check(make_loss, leaves))
            for name, make_loss, leaves in cases(seed)]
