"""Adam and RMSprop updates over lists of Parameters.

Both optimizers consume the gradients accumulated on each parameter and
zero them once applied, so one training step is: accumulate over the
mini-batch, then call step().
"""

import numpy as np

from .errors import ConfigError, NumericFault

# Adam's moment decays and RMSprop's mean-square decay; EPS guards both divisions.
_BETA1, _BETA2, _RHO, _EPS = 0.9, 0.999, 0.9, 1e-8


def _check_learning_rate(learning_rate):
    if not (np.isfinite(learning_rate) and learning_rate > 0):
        raise ConfigError(f"learning_rate must be a finite number > 0, "
                          f"got {learning_rate}")


def _check_finite_grads(params):
    for p in params:
        if not np.isfinite(p.grad).all():
            raise NumericFault(f"non-finite gradient in parameter {p.name!r}")


class Adam:
    """Adaptive moments with bias correction.

    m_t = b1 m + (1-b1) g        mhat = m_t / (1 - b1^t)
    v_t = b2 v + (1-b2) g^2      vhat = v_t / (1 - b2^t)
    theta -= lr * mhat / (sqrt(vhat) + eps)
    """

    def __init__(self, params, learning_rate=0.001):
        _check_learning_rate(learning_rate)
        self.params = list(params)
        self.learning_rate = learning_rate
        self.step_count = 0
        self._m = [np.zeros_like(p.value) for p in self.params]
        self._v = [np.zeros_like(p.value) for p in self.params]

    def step(self):
        _check_finite_grads(self.params)
        self.step_count += 1
        t = self.step_count
        bias1 = 1.0 - _BETA1 ** t
        bias2 = 1.0 - _BETA2 ** t
        for p, m, v in zip(self.params, self._m, self._v):
            # The moments in place, each product in the order written above.
            g = p.grad
            m *= _BETA1
            m += (1.0 - _BETA1) * g
            v *= _BETA2
            v += ((1.0 - _BETA2) * g) * g
            p.value -= self.learning_rate * (m / bias1) / (np.sqrt(v / bias2) + _EPS)
            p.zero_grad()


class RMSprop:
    """Running mean-square scaling:

    v = rho v + (1-rho) g^2
    theta -= lr * g / (sqrt(v) + eps)
    """

    def __init__(self, params, learning_rate=0.001):
        _check_learning_rate(learning_rate)
        self.params = list(params)
        self.learning_rate = learning_rate
        self.step_count = 0
        self._v = [np.zeros_like(p.value) for p in self.params]

    def step(self):
        _check_finite_grads(self.params)
        self.step_count += 1
        for p, v in zip(self.params, self._v):
            g = p.grad
            v *= _RHO
            v += ((1.0 - _RHO) * g) * g
            p.value -= self.learning_rate * g / (np.sqrt(v) + _EPS)
            p.zero_grad()


OPTIMIZERS = {"adam": Adam, "rmsprop": RMSprop}


def make_optimizer(kind, params, learning_rate=0.001):
    if kind not in OPTIMIZERS:
        raise ConfigError(f"unknown optimizer {kind!r}, expected one of "
                          f"{tuple(OPTIMIZERS)}")
    return OPTIMIZERS[kind](params, learning_rate=learning_rate)
