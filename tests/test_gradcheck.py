"""`gradient_check` probes forward only.

A loss function runs the forward pass and returns (loss, backward); the
check calls backward once, for the analytic gradient, and never during
its 2n probes.  `_backward_after_every_probe` is the check as it ran
before: every evaluation runs its backward, and the grads the probes
pile up are zeroed at the end.  The battery must read the same errors,
to the last bit, either way: a backward that left something behind for
the next forward would show here.
"""

import numpy as np
import pytest

from deepconn import gradcheck
from deepconn.gradcheck import DEFAULT_EPS, gradient_check
from deepconn.layers import Parameter

_MACHEPS = np.finfo(np.float64).eps


def _backward_after_every_probe(loss_fn, params, eps=DEFAULT_EPS):
    """The reference: gradient_check's error measure, with backward run
    after each of the 1 + 2n evaluations."""
    for p in params:
        p.zero_grad()
    loss, backward = loss_fn()
    backward()
    analytic = [p.grad.copy() for p in params]
    worst = 0.0
    for p, grad in zip(params, analytic):
        flat = p.value.reshape(-1)
        gflat = grad.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            probed = []
            for value in (orig + eps, orig - eps):
                flat[i] = value
                f, backward = loss_fn()
                backward()
                probed.append(float(f))
            flat[i] = orig
            f_plus, f_minus = probed
            numeric = (f_plus - f_minus) / (2.0 * eps)
            noise = _MACHEPS * max(abs(f_plus), abs(f_minus)) / eps
            a = gflat[i]
            err = max(0.0, abs(a - numeric) - noise) / max(1e-8, abs(a) + abs(numeric))
            worst = max(worst, err)
    for p in params:
        p.zero_grad()
    return worst


@pytest.mark.parametrize("corrupt", [False, True], ids=["pristine", "corrupt"])
@pytest.mark.parametrize("batch", [1, 3])
def test_forward_only_probes_match_backward_after_every_probe(batch, corrupt,
                                                              monkeypatch):
    monkeypatch.setattr(gradcheck, "BATCH", batch)
    forward_only = gradcheck.standard_checks(corrupt=corrupt)
    monkeypatch.setattr(gradcheck, "gradient_check", _backward_after_every_probe)
    reference = gradcheck.standard_checks(corrupt=corrupt)
    assert forward_only == reference


def test_one_backward_per_check_and_one_forward_per_evaluation():
    # loss = x . x + 3 y, over n = 3 + 1 entries.
    x = Parameter(np.array([3.0, -1.0, 0.5]), "x")
    y = Parameter(np.array([[2.0]]), "y")
    calls = {"forward": 0, "backward": 0}

    def loss_fn():
        calls["forward"] += 1

        def backward():
            calls["backward"] += 1
            x.grad += 2.0 * x.value
            y.grad += 3.0

        return float(x.value @ x.value + 3.0 * y.value.sum()), backward

    assert gradient_check(loss_fn, [x, y]) < 1e-9
    assert calls == {"forward": 1 + 2 * 4, "backward": 1}
    assert not x.grad.any() and not y.grad.any()


@pytest.mark.parametrize("seed", [0, 5])
@pytest.mark.parametrize("batch", [1, 3])
def test_every_case_gives_each_parameter_a_nonzero_gradient(batch, seed, monkeypatch):
    """A parameter whose analytic gradient is all zero passes its check
    without testing anything; a piecewise-linear case such as conv plus
    max can read an error of exactly 0.  Seeds as `standard_checks`
    draws them, case i at seed + i."""
    monkeypatch.setattr(gradcheck, "BATCH", batch)
    for i, (name, build) in enumerate(gradcheck.STANDARD_CASES):
        loss_fn, params = build(np.random.default_rng(seed + i))
        for p in params:
            p.zero_grad()
        loss_fn()[1]()
        assert [p.name for p in params if not p.grad.any()] == [], name
