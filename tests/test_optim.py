import numpy as np
import numpy.testing as npt
import pytest

from deepconn.errors import ConfigError, NumericFault
from deepconn.layers import Parameter
from deepconn.optim import Adam, RMSprop, make_optimizer


def _param(values, name="p"):
    return Parameter(np.asarray(values, dtype=float), name)


class TestAdam:
    def test_zero_gradient_leaves_parameters_unchanged(self):
        p = _param([1.0, -2.0, 3.0])
        opt = Adam([p])
        opt.step()
        npt.assert_array_equal(p.value, [1.0, -2.0, 3.0])

    def test_first_step_moves_by_lr_times_sign(self):
        # Bias-corrected first step: mhat = g, vhat = g^2, so the update is
        # -lr * g / (|g| + eps) ~ -lr * sign(g).
        p = _param([10.0, -10.0])
        p.grad[:] = [4.0, -0.25]
        opt = Adam([p], learning_rate=0.001)
        opt.step()
        npt.assert_allclose(p.value, [10.0 - 0.001, -10.0 + 0.001], rtol=1e-6)

    def test_step_count_increments_and_grads_zeroed(self):
        p = _param([1.0])
        p.grad[:] = 1.0
        opt = Adam([p])
        opt.step()
        assert opt.step_count == 1
        npt.assert_array_equal(p.grad, [0.0])

    def test_identical_runs_identical_trajectories(self):
        def run():
            rng = np.random.default_rng(5)
            p = _param(rng.standard_normal(4))
            opt = Adam([p], learning_rate=0.01)
            for _ in range(20):
                p.grad[:] = np.sin(p.value)  # deterministic pseudo-gradient
                opt.step()
            return p.value
        npt.assert_array_equal(run(), run())

    def test_non_finite_gradient_names_parameter(self):
        p = _param([1.0], name="tower.dense.W")
        p.grad[:] = np.nan
        with pytest.raises(NumericFault, match="tower.dense.W"):
            Adam([p]).step()

    def test_invalid_hyperparameters(self):
        with pytest.raises(ConfigError):
            Adam([], learning_rate=0.0)


class TestRMSprop:
    def test_zero_gradient_leaves_parameters_unchanged(self):
        p = _param([5.0])
        RMSprop([p]).step()
        npt.assert_array_equal(p.value, [5.0])

    def test_first_step_closed_form(self):
        # v = (1-rho) g^2, so the step is -lr * g / (sqrt(1-rho)|g| + eps).
        g = 3.0
        p = _param([1.0])
        p.grad[:] = g
        opt = RMSprop([p], learning_rate=0.001)
        opt.step()
        expected = 1.0 - 0.001 * g / (np.sqrt(0.1) * g + 1e-8)
        npt.assert_allclose(p.value, [expected], rtol=1e-12)
        # magnitude ~ lr / sqrt(1-rho), independent of |g|
        assert abs(1.0 - p.value[0]) == pytest.approx(0.001 / np.sqrt(0.1), rel=1e-6)

    def test_grads_zeroed_after_step(self):
        p = _param([1.0])
        p.grad[:] = 2.0
        RMSprop([p]).step()
        npt.assert_array_equal(p.grad, [0.0])

    def test_non_finite_gradient_rejected(self):
        p = _param([1.0], name="w")
        p.grad[:] = np.inf
        with pytest.raises(NumericFault, match="w"):
            RMSprop([p]).step()


def _adam_reference(value, m, v, g, t, lr, b1=0.9, b2=0.999, eps=1e-8):
    """One Adam step as out-of-place expressions; returns (value, m, v)."""
    m = b1 * m + (1.0 - b1) * g
    v = b2 * v + (1.0 - b2) * g * g
    m_hat = m / (1.0 - b1 ** t)
    v_hat = v / (1.0 - b2 ** t)
    return value - lr * m_hat / (np.sqrt(v_hat) + eps), m, v


def _rmsprop_reference(value, v, g, lr, rho=0.9, eps=1e-8):
    """One RMSprop step as out-of-place expressions; returns (value, v)."""
    v = rho * v + (1.0 - rho) * g * g
    return value - lr * g / (np.sqrt(v) + eps), v


@pytest.mark.parametrize("cls", [Adam, RMSprop])
def test_in_place_steps_match_the_expressions_bit_for_bit(cls):
    # A 0-d, a 1-d and a 3-d parameter, gradients over six decades.
    rng = np.random.default_rng(3)
    params = [_param(rng.standard_normal(shape), f"p{k}")
              for k, shape in enumerate([(), (5,), (4, 3, 2)])]
    values = [p.value.copy() for p in params]
    m, v = [np.zeros(p.shape) for p in params], [np.zeros(p.shape) for p in params]
    opt = cls(params, learning_rate=0.01)
    for t in range(1, 101):
        for k, p in enumerate(params):
            p.grad[...] = g = rng.standard_normal(p.shape) * 10.0 ** rng.integers(-4, 3)
            if cls is Adam:
                values[k], m[k], v[k] = _adam_reference(values[k], m[k], v[k], g, t, 0.01)
            else:
                values[k], v[k] = _rmsprop_reference(values[k], v[k], g, 0.01)
        opt.step()
        for p, value in zip(params, values):
            npt.assert_array_equal(p.value, value)


@pytest.mark.parametrize("cls", [Adam, RMSprop])
@pytest.mark.parametrize("rate", [np.nan, np.inf, -np.inf, -1.0])
def test_learning_rate_must_be_finite_and_positive(cls, rate):
    with pytest.raises(ConfigError, match="learning_rate"):
        cls([_param([1.0])], learning_rate=rate)


def test_make_optimizer_dispatch():
    p = _param([1.0])
    assert isinstance(make_optimizer("adam", [p]), Adam)
    assert isinstance(make_optimizer("rmsprop", [p]), RMSprop)
    with pytest.raises(ConfigError):
        make_optimizer("sgd", [p])
