"""Objective terms, their worked values, and a scalar KL oracle."""

import math

import numpy as np
import pytest

from msdnpan.errors import ShapeError
from msdnpan.losses import kl_divergence, l1_loss, total_loss
from msdnpan.tensor_core import Tensor


def test_l1_is_mean_absolute_error():
    pred = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
    target = Tensor(np.array([[2.0, 2.0], [1.0, 8.0]]))
    assert l1_loss(pred, target).item() == (1 + 0 + 2 + 4) / 4.0
    with pytest.raises(ShapeError):
        l1_loss(pred, Tensor(np.zeros((2, 3))))


def test_kl_identical_inputs_is_zero():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((3, 1, 4, 4))
    assert abs(kl_divergence(Tensor(x), Tensor(x.copy())).item()) < 1e-12


def test_kl_worked_example():
    # softmax([ln 3, 0, 0, 0]) = [1/2, 1/6, 1/6, 1/6] against uniform;
    # KL(p||q) = 0.5*ln2 + 0.5*ln(2/3) = 0.5*ln(4/3)
    p_logits = Tensor(np.array([[math.log(3.0), 0.0, 0.0, 0.0]]))
    q_logits = Tensor(np.zeros((1, 4)))
    forward = kl_divergence(p_logits, q_logits).item()
    assert abs(forward - 0.5 * math.log(4.0 / 3.0)) < 1e-9
    assert abs(forward - 0.14384) < 5e-6

    # the divergence is asymmetric; swapping the arguments gives
    # 0.25*ln(1/2) + 0.75*ln(3/2)
    swapped = kl_divergence(q_logits, p_logits).item()
    assert abs(swapped - 0.13081203594113696) < 1e-9
    assert abs(forward - swapped) > 0.01


def test_kl_nonnegative_on_random_inputs():
    rng = np.random.default_rng(1)
    for _ in range(20):
        p = Tensor(rng.standard_normal((2, 8)))
        q = Tensor(rng.standard_normal((2, 8)))
        assert kl_divergence(p, q).item() >= -1e-12


def _kl_oracle(target, approx, eps):
    # direct per-item summation, no vectorisation
    total = 0.0
    n = target.shape[0]
    for b in range(n):
        tv = list(target[b].ravel())
        av = list(approx[b].ravel())
        mt, ma = max(tv), max(av)
        et = [math.exp(v - mt) for v in tv]
        ea = [math.exp(v - ma) for v in av]
        st, sa = sum(et), sum(ea)
        p = [v / st for v in et]
        q = [v / sa for v in ea]
        total += sum(pi * (math.log(pi + eps) - math.log(qi + eps))
                     for pi, qi in zip(p, q))
    return total / n


def test_kl_matches_scalar_oracle():
    rng = np.random.default_rng(2)
    for _ in range(5):
        t = rng.standard_normal((3, 2, 3, 3))
        a = rng.standard_normal((3, 2, 3, 3))
        got = kl_divergence(Tensor(t), Tensor(a)).item()
        want = _kl_oracle(t, a, 1e-12)
        assert abs(got - want) < 1e-12


def test_kl_shape_checks():
    with pytest.raises(ShapeError):
        kl_divergence(Tensor(np.zeros((2, 4))), Tensor(np.zeros((3, 4))))
    with pytest.raises(ShapeError):
        kl_divergence(Tensor(np.zeros((2, 4))), Tensor(np.zeros((2, 5))))


def _memorizing(hp, ps):
    """The memorizing term of total_loss alone."""
    x = Tensor(np.zeros((1, 2)))
    return total_loss(x, x, hp, ps, 1.0)[2]


def test_memorizing_is_kl():
    rng = np.random.default_rng(3)
    hp = rng.standard_normal((2, 1, 4, 4))
    ps = rng.standard_normal((2, 1, 4, 4))
    got = _memorizing(Tensor(hp), Tensor(ps)).item()
    assert got == kl_divergence(Tensor(hp), Tensor(ps)).item()


def test_memorizing_trivial_cases():
    hp = Tensor(np.array([[0.1, -0.2, 0.3]]))
    assert abs(_memorizing(hp, Tensor(hp.data.copy())).item()) < 1e-12
    # kl_divergence compares flattened items; the memorizing term also
    # needs the two planes to have one shape
    with pytest.raises(ShapeError):
        _memorizing(Tensor(np.zeros((1, 1, 2, 3))),
                    Tensor(np.zeros((1, 1, 3, 2))))


def test_total_loss_composition():
    # softmax([ln 3, 0, 0, 0]) against uniform gives L_Mem = 0.5*ln(4/3)
    # (test_kl_worked_example); L1 = 0.5 and weight 100 give
    # 0.5 + 50*ln(4/3)
    pred = Tensor(np.zeros((1, 4)))
    target = Tensor(np.full((1, 4), 0.5))
    hp = Tensor(np.array([[math.log(3.0), 0.0, 0.0, 0.0]]))
    ps = Tensor(np.zeros((1, 4)))
    total, rec, mem = total_loss(pred, target, hp, ps, 100.0)
    assert abs(rec.item() - 0.5) < 1e-15
    assert abs(mem.item() - 0.5 * math.log(4.0 / 3.0)) < 1e-12
    assert abs(total.item() - (0.5 + 50.0 * math.log(4.0 / 3.0))) < 1e-10


def test_total_loss_perfect_prediction_is_zero():
    x = Tensor(np.full((1, 4), 0.25))
    hp = Tensor(np.array([[0.1, 0.2]]))
    total, _, _ = total_loss(x, Tensor(x.data.copy()), hp,
                             Tensor(hp.data.copy()), 100.0)
    assert abs(total.item()) < 1e-12


def test_zero_weight_reduces_to_l1():
    rng = np.random.default_rng(4)
    pred = Tensor(rng.standard_normal((2, 4)))
    target = Tensor(rng.standard_normal((2, 4)))
    hp = Tensor(rng.standard_normal((2, 4)))
    ps = Tensor(rng.standard_normal((2, 4)))
    total, rec, _ = total_loss(pred, target, hp, ps, 0.0)
    assert total.item() == rec.item()

