"""Finite-difference validation of every primitive and the full model."""

import numpy as np

import gradcheck
from msdnpan import tensor_core as tc

# The seed-0 suite itself runs once, in criterion 1 (test_acceptance.py).


def test_suite_is_seed_robust():
    results = gradcheck.run_suite(seed=1)
    assert all(err < gradcheck.TOLERANCE for _, err in results)


def test_corrupt_mode_is_detected():
    # scaling an analytic gradient by 1.01 must trip the comparator,
    # proving the suite can actually fail
    _, make_loss, leaves = gradcheck.cases(0)[0]
    err = gradcheck.check(make_loss, leaves, tamper=0.01)
    assert err >= gradcheck.TOLERANCE


def test_max_rel_error_normalisation():
    # small absolute deviations on large gradients stay small relatively
    assert gradcheck.max_rel_error([1000.0], [1000.1]) < 1e-3
    assert gradcheck.max_rel_error([0.0], [0.5]) == 0.5
    assert gradcheck.max_rel_error([], []) == 0.0


def test_check_reports_missing_gradient():
    x = tc.Tensor(np.ones(3), requires_grad=True)
    dead = tc.Tensor(np.ones(3), requires_grad=True)

    def make_loss():
        return x.sum()

    try:
        gradcheck.check(make_loss, [x, dead])
    except AssertionError as e:
        assert "gradient" in str(e)
    else:
        raise AssertionError("expected a missing-gradient report")
