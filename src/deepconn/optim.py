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
        for i, p in enumerate(self.params):
            g = p.grad
            self._m[i] = _BETA1 * self._m[i] + (1.0 - _BETA1) * g
            self._v[i] = _BETA2 * self._v[i] + (1.0 - _BETA2) * g * g
            m_hat = self._m[i] / bias1
            v_hat = self._v[i] / bias2
            p.value -= self.learning_rate * m_hat / (np.sqrt(v_hat) + _EPS)
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
        for i, p in enumerate(self.params):
            g = p.grad
            self._v[i] = _RHO * self._v[i] + (1.0 - _RHO) * g * g
            p.value -= self.learning_rate * g / (np.sqrt(self._v[i]) + _EPS)
            p.zero_grad()


OPTIMIZERS = {"adam": Adam, "rmsprop": RMSprop}


def make_optimizer(kind, params, learning_rate=0.001):
    if kind not in OPTIMIZERS:
        raise ConfigError(f"unknown optimizer {kind!r}, expected one of "
                          f"{tuple(OPTIMIZERS)}")
    return OPTIMIZERS[kind](params, learning_rate=learning_rate)
