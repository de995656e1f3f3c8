import os
import subprocess
import sys

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deepconn import gradcheck
from deepconn.errors import ConfigError, NumericFault, ShapeError
from deepconn.gradcheck import (DEFAULT_EPS, DEFAULT_THRESHOLD, gradient_check,
                                miniature_model)
from deepconn.layers import (Conv1d, Dense, Dropout, GruCell, LstmCell, MaxPoolOverTime,
                             Parameter, _sigmoid_in_place, chunk_steps)
from deepconn.model import Tower, TowerConfig
from deepconn.optim import Adam
from deepconn.train import load_checkpoint, restore_parameters, save_checkpoint

from per_sample import sigmoid, table
from test_batched import check_cell, check_conv


def _rng(seed=0):
    return np.random.default_rng(seed)


def _battery_case(name, seed):
    """The (loss_fn, params) that `gradcheck.STANDARD_CASES`' case `name`
    builds from a generator seeded with `seed`, at one sample."""
    return dict(gradcheck.STANDARD_CASES)[name](_rng(seed))


class TestDense:
    def test_identity_weights_identity_activation(self):
        layer = Dense(2, 2, activation="identity", rng=_rng())
        layer.W.value[:] = np.eye(2)
        layer.b.value[:] = 0.0
        npt.assert_array_equal(layer.forward(np.array([[1.0, 2.0]])), [[1.0, 2.0]])

    def test_relu_clips_negatives(self):
        layer = Dense(2, 2, activation="relu", rng=_rng())
        layer.W.value[:] = np.eye(2)
        layer.b.value[:] = 0.0
        npt.assert_array_equal(layer.forward(np.array([[1.0, -1.0]])), [[1.0, 0.0]])

    def test_shape_mismatch(self):
        layer = Dense(3, 2, "identity", _rng())
        with pytest.raises(ShapeError):
            layer.forward(np.zeros((1, 4)))

    def test_unknown_activation(self):
        with pytest.raises(ConfigError):
            Dense(2, 2, activation="gelu", rng=_rng())

    @pytest.mark.parametrize("activation", ["identity", "relu", "tanh"])
    def test_gradient_matches_finite_differences(self, activation):
        rng = _rng(7)
        layer = Dense(4, 3, activation=activation, rng=rng)
        x = rng.standard_normal((1, 4))
        w = rng.standard_normal((1, 3))

        def loss_fn():
            out = layer.forward(x)
            return float(np.sum(w * out)), lambda: layer.backward(w)

        assert gradient_check(loss_fn, layer.parameters()) < 1e-6


class TestConv1d:
    def test_output_length_default_geometry(self):
        # kernel 8, stride 6 over a 300-token document gives 49 windows
        layer = Conv1d(50, 64, kernel=8, stride=6, rng=_rng())
        assert layer.output_length(300) == 49

    def test_single_window(self):
        layer = Conv1d(3, 2, kernel=8, stride=6, rng=_rng())
        assert layer.output_length(8) == 1
        out = layer.forward(*table(np.ones((1, 8, 3))))
        assert out.shape == (1, 2)

    def test_zero_kernels_zero_output(self):
        layer = Conv1d(3, 4, kernel=2, stride=1, rng=_rng())
        layer.kernels.value[:] = 0.0
        layer.bias.value[:] = 0.0
        out = layer.forward(*table(_rng(3).standard_normal((1, 6, 3))))
        npt.assert_array_equal(out, np.zeros((1, 4)))

    def test_too_short_input(self):
        layer = Conv1d(3, 2, kernel=8, stride=6, rng=_rng())
        with pytest.raises(ShapeError):
            layer.forward(*table(np.zeros((1, 7, 3))))

    @given(T=st.integers(1, 64), K=st.integers(1, 12), S=st.integers(1, 8))
    @settings(max_examples=60, deadline=None)
    def test_output_length_formula(self, T, K, S):
        layer = Conv1d(2, 1, kernel=K, stride=S, rng=_rng())
        if T < K:
            with pytest.raises(ShapeError):
                layer.output_length(T)
        else:
            L = layer.output_length(T)
            assert L == (T - K) // S + 1
            # Token t's vector is (t, t), so the last of the L windows
            # peaks: the pooled output is that window's sum.
            layer.kernels.value[:] = 1.0
            x = np.repeat(np.arange(T, dtype=np.float64), 2).reshape(1, T, 2)
            last = S * (L - 1) + np.arange(K)
            npt.assert_array_equal(layer.forward(*table(x)), [[2.0 * last.sum()]])

    @given(K=st.integers(1, 12), S=st.integers(1, 8), extra=st.integers(0, 40),
           seed=st.integers(0, 2**16))
    @settings(max_examples=80, deadline=None)
    def test_backward_matches_per_sample(self, K, S, extra, seed):
        check_conv(1, K, S, extra, 3, 4, seed)

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="reads the minor-fault count as Linux keeps it")
    def test_steady_state_calls_take_no_page_faults(self):
        # A fresh process, so the heap is the calls' own, under the default
        # allocator and its default thresholds.  A window array made per
        # chunk took 368 faults per call at both sizes.
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("MALLOC_") and k not in ("LD_PRELOAD", "GLIBC_TUNABLES")}
        proc = subprocess.run([sys.executable, "-c", _CONV_FAULTS],
                              env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        faults = {int(B): float(n) for B, n in map(str.split, proc.stdout.splitlines())}
        assert set(faults) == {8, 32}
        assert all(n < 20 for n in faults.values()), faults


_CONV_FAULTS = """
import resource
import numpy as np
from deepconn.layers import Conv1d

rng = np.random.default_rng(0)
conv = Conv1d(50, 64, kernel=8, stride=6, rng=rng)
matrix = rng.standard_normal((51, 50))
for B in (8, 32):
    ids = rng.integers(0, len(matrix), (B, 300))
    dout = rng.standard_normal((B, 64))
    for call in range(22):
        if call == 2:  # after two warm-up calls
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        conv.forward(ids, matrix)
        conv.backward(dout)
    print(B, (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 20)
"""


class TestMaxPool:
    def test_columnwise_max(self):
        pool = MaxPoolOverTime()
        npt.assert_array_equal(
            pool.forward(np.array([[[1.0, 5.0], [3.0, 2.0]]])), [[3.0, 5.0]])

    def test_single_row_is_identity(self):
        pool = MaxPoolOverTime()
        row = np.array([[[0.5, -1.0, 2.0]]])
        npt.assert_array_equal(pool.forward(row), row[0])

    def test_empty_input(self):
        with pytest.raises(ShapeError):
            MaxPoolOverTime().forward(np.zeros((1, 0, 3)))

    def test_backward_routes_to_first_argmax(self):
        pool = MaxPoolOverTime()
        x = np.array([[[2.0, 1.0], [2.0, 3.0], [0.0, 3.0]]])  # ties in both columns
        pool.forward(x)
        dx = pool.backward(np.array([[1.0, 1.0]]))
        npt.assert_array_equal(dx, [[[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]])

    def test_gradient_matches_finite_differences(self):
        assert gradient_check(*_battery_case("maxpool_over_time", 13)) < 1e-6


class TestDropout:
    def test_zero_rate_train_is_identity(self):
        x = _rng(1).standard_normal((1, 10))
        mask = (_rng(3).random((1, 10)) >= 0.0) / 1.0
        npt.assert_array_equal(Dropout().forward(x, mask), x)

    def test_eval_is_identity_for_any_rate(self):
        x = _rng(2).standard_normal((1, 10))
        npt.assert_array_equal(Dropout().forward(x), x)

    def test_invalid_rate(self):
        # The rate is checked once, by the config; the layer only multiplies.
        for rate in (1.0, -0.1):
            with pytest.raises(ConfigError, match="dropout_rate"):
                Tower(TowerConfig(dropout_rate=rate), _rng(), "t")

    def test_inverted_scaling_preserves_mean(self):
        # The tower's feature mask keeps the mean: E[kept * 1/(1-p)] = 1.
        tower = Tower(TowerConfig(embedding_dim=3, hidden_units=100_000, kernel=2,
                                  stride=1, dense_units=1, dropout_rate=0.1),
                      _rng(), "t")
        tower.forward(*table(np.ones((1, 2, 3))), _rng(5).random((1, 1, 100_000)))
        mask = tower.dropout._mask
        assert set(np.unique(mask)) == {0.0, 1.0 / 0.9}
        assert abs(mask.mean() - 1.0) < 0.01

    def test_backward_uses_recorded_mask(self):
        drop = Dropout()
        mask = np.array([[2.0, 0.0, 2.0, 0.0]])
        out = drop.forward(np.ones((1, 4)), mask)
        npt.assert_array_equal(out, [[2.0, 0.0, 2.0, 0.0]])
        npt.assert_array_equal(drop.backward(np.ones((1, 4))), [[2.0, 0.0, 2.0, 0.0]])

    def test_gradient_with_fixed_mask(self):
        assert gradient_check(*_battery_case("dropout_fixed_mask", 17)) < 1e-6


def _cell_sigmoid(x):
    """The cells' in-place sigmoid on a copy of x, with every floating-point
    error raised."""
    out = np.array(x, dtype=np.float64)
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        _sigmoid_in_place(out)
    return out


class TestSigmoid:
    @given(st.lists(st.floats(-800.0, 800.0), min_size=1, max_size=64))
    def test_matches_per_sample_reference(self, xs):
        x = np.array(xs)
        npt.assert_allclose(_cell_sigmoid(x), sigmoid(x),
                            rtol=0, atol=2.3e-16)

    def test_exact_at_zero_and_the_float_extremes(self):
        npt.assert_array_equal(_cell_sigmoid([-1e308, 0.0, 1e308]), [0.0, 0.5, 1.0])


class TestGruCell:
    def test_zero_weights_halve_state(self):
        # z = r = sigmoid(0) = 0.5, h = tanh(0) = 0, so s_t = 0.5 * s_prev.
        cell = GruCell(3, 4, rng=_rng())
        for p in cell.parameters():
            p.value[:] = 0.0
        s_prev = np.array([[1.0, -2.0, 0.5, 4.0]])
        (s_t,) = cell.step((s_prev,), _projected(cell, np.ones((1, 3))))
        npt.assert_allclose(s_t, 0.5 * s_prev, rtol=0, atol=1e-15)

    def test_zero_state_zero_weights(self):
        cell = GruCell(3, 4, rng=_rng())
        for p in cell.parameters():
            p.value[:] = 0.0
        (s_t,) = cell.step((np.zeros((1, 4)),), _projected(cell, np.ones((1, 3))))
        npt.assert_array_equal(s_t, np.zeros((1, 4)))

    def test_gates_stay_in_unit_interval(self):
        rng = _rng(23)
        cell = GruCell(3, 4, rng=rng)
        s = np.zeros((1, 4))
        for t in range(20):
            x = 10.0 * rng.standard_normal((1, 3))
            z = sigmoid(x @ cell.U.value[0] + s @ cell.W.value[0])
            r = sigmoid(x @ cell.U.value[1] + s @ cell.W.value[1])
            assert np.all((z > 0) & (z < 1)) and np.all((r > 0) & (r < 1))
            (s,) = cell.step((s,), _projected(cell, x))
            # convex combination of s_prev and |h| < 1 keeps the sup norm bounded
            assert np.max(np.abs(s)) <= 1.0 + 1e-12

    @given(B=st.integers(1, 4), T=st.integers(1, 200), rate=st.floats(0.0, 0.95),
           seed=st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_state_stays_in_unit_ball_under_any_mask(self, B, T, rate, seed):
        # The carry (1 - z) * s_prev + z * h reads the unmasked state, so a
        # recurrent-dropout mask cannot grow it past |h| < 1.
        rng = _rng(seed)
        cell = GruCell(3, 4, rng=rng)
        mask = (rng.random((B, 4)) >= rate) / (1.0 - rate)
        s = cell.forward(*table(5.0 * rng.standard_normal((B, T, 3))), mask)
        for states in (s, cell._checkpoints, cell._states):
            assert np.max(np.abs(states)) <= 1.0 + 1e-12

    def test_shape_mismatch(self):
        cell = GruCell(3, 4, rng=_rng())
        steps = []
        cell.step = lambda *args: steps.append(args)
        ids, matrix = np.zeros((1, 5), dtype=np.int64), np.zeros((2, 3))
        for bad in ((ids, np.zeros((2, 4))),             # wrong d
                    (ids[0], matrix),                    # no batch axis
                    (ids[:, :0], matrix)):               # no steps
            with pytest.raises(ShapeError):
                cell.forward(*bad)
        assert steps == []  # rejected before any step runs


@pytest.mark.parametrize("encoder,options", [
    (Conv1d, {"kernel": 2, "stride": 1}), (GruCell, {}), (LstmCell, {})])
def test_encoders_reject_ids_outside_the_table(encoder, options):
    # In a 6-row table, id -1 would read the last row and id 6 would fail
    # in numpy's gather, in the middle of a chunked forward.
    layer = encoder(3, 2, rng=_rng(), **options)
    matrix = _rng(1).standard_normal((6, 3))
    ids = _rng(2).integers(0, 6, (2, 5))
    layer.forward(ids, matrix)
    for bad in (-1, 6):
        wrong = ids.copy()
        wrong[1, 3] = bad
        with pytest.raises(ShapeError, match=rf"^{encoder.__name__} got token ids "
                                             "outside its 6-row table"):
            layer.forward(wrong, matrix)


class TestLstmCell:
    def test_forget_bias_path(self):
        # All weights zero, forget bias 1: c = sigmoid(1) * c_prev, h = 0.5 * tanh(c).
        cell = LstmCell(3, 4, rng=_rng())
        for p in cell.parameters():
            p.value[:] = 0.0
        cell.b.value[1] = 1.0
        c_prev = np.array([[1.0, -1.0, 2.0, 0.25]])
        h, c = cell.step((np.zeros((1, 4)), c_prev), _projected(cell, np.ones((1, 3))))
        npt.assert_allclose(c, sigmoid(np.ones(4)) * c_prev, atol=1e-15)
        npt.assert_allclose(h, 0.5 * np.tanh(c), atol=1e-15)

    def test_all_zero_everything(self):
        cell = LstmCell(3, 4, rng=_rng())
        for p in cell.parameters():
            p.value[:] = 0.0
        h, c = cell.step((np.zeros((1, 4)), np.zeros((1, 4))),
                         _projected(cell, np.zeros((1, 3))))
        npt.assert_array_equal(c, np.zeros((1, 4)))
        npt.assert_array_equal(h, np.zeros((1, 4)))

    def test_forget_bias_initialized_to_one(self):
        cell = LstmCell(3, 4, rng=_rng())
        npt.assert_array_equal(cell.b.value[1], np.ones(4))
        npt.assert_array_equal(cell.b.value[0], np.zeros(4))

    def test_cell_state_finite_on_bounded_unroll(self):
        rng = _rng(31)
        cell = LstmCell(3, 4, rng=rng)
        h, c = np.zeros((1, 4)), np.zeros((1, 4))
        for t in range(100):
            h, c = cell.step((h, c), _projected(cell, 5.0 * rng.standard_normal((1, 3))))
        assert np.isfinite(c).all() and np.isfinite(h).all()


def _projected(cell, x_t):
    """The (G, B, H) row of the hoisted input projection that `step` takes
    for the (B, d) inputs x_t."""
    xu = x_t @ cell.U.value
    return xu + cell.b.value[:, None] if isinstance(cell, LstmCell) else xu


# The cells against `per_sample.cell_unroll`, the one GRU/LSTM reference,
# through `test_batched.check_cell`: one sample after an eval forward, the
# hoisted unroll over random shapes, and the paper's sizes among fixed ones.
@pytest.mark.parametrize("cell_cls", [GruCell, LstmCell])
@pytest.mark.parametrize("masked", [False, True])
def test_unroll_matches_step_loop_bit_for_bit(cell_cls, masked):
    check_cell(cell_cls, B=1, T=7, d=3, H=4, masked=masked, eval_T=2, seed=41)


@pytest.mark.parametrize("cell_cls", [GruCell, LstmCell])
@given(T=st.integers(1, 40), d=st.integers(1, 6), H=st.integers(1, 8),
       masked=st.booleans(), eval_T=st.integers(1, 40), seed=st.integers(0, 2**16))
@settings(max_examples=40, deadline=None)
def test_hoisted_unroll_matches_step_loop(cell_cls, T, d, H, masked, eval_T, seed):
    check_cell(cell_cls, 1, T, d, H, masked, eval_T, seed)


@pytest.mark.parametrize("cell_cls", [GruCell, LstmCell])
@pytest.mark.parametrize("T,d,H", [(3, 3, 4), (24, 8, 64), (300, 50, 64)])
@pytest.mark.parametrize("masked", [False, True])
def test_gate_stacked_cell_matches_per_gate_equations(cell_cls, T, d, H, masked):
    for B in (1, 3):
        check_cell(cell_cls, B, T, d, H, masked, eval_T=2, seed=47)


@pytest.mark.parametrize("cell_cls", [GruCell, LstmCell])
@pytest.mark.parametrize("B", [1, 3, 4, 32])
@pytest.mark.parametrize("masked", [False, True])
def test_backward_reads_the_activations_forward_ran(cell_cls, B, masked, monkeypatch):
    """Backward keeps the last chunk's activations and re-runs each earlier
    chunk once from its entering state: the rows and states of every step
    it re-runs and differentiates are, bit for bit, the ones forward's
    `step` saw and wrote.  T spans three whole chunks and a partial one."""
    rng = _rng(59)
    tc = chunk_steps(B)
    T, H = 3 * tc + tc // 2 + 1, 4
    cell = cell_cls(3, H, rng=rng)
    x = rng.standard_normal((B, T, 3))
    mask = (rng.random((B, H)) >= 0.3) / 0.7 if masked else None
    stepped, read = [], []
    step, backward_step = cell.step, cell.backward_step

    def recording_step(state, xu_t):
        entering = np.array(state)
        out = step(state, xu_t)
        stepped.append((entering, xu_t.copy()))
        return out

    def recording_backward_step(dstate, k):
        read.append((cell._states[k].copy(), cell._gates[k].copy()))
        return backward_step(dstate, k)

    monkeypatch.setattr(cell, "step", recording_step)
    monkeypatch.setattr(cell, "backward_step", recording_backward_step)
    cell.forward(*table(x), mask)
    forward = stepped.copy()
    stepped.clear()
    cell.backward(rng.standard_normal((B, H)))
    assert len(forward) == len(read) == T
    # Chunks re-run last to first, each one's steps in order.
    rerun = [t for c0 in reversed(range(0, 3 * tc, tc)) for t in range(c0, c0 + tc)]
    assert len(stepped) == len(rerun)
    for (state, row), t in zip(stepped, rerun):
        npt.assert_array_equal(state, forward[t][0])
        npt.assert_array_equal(row, forward[t][1])
    for (state, row), (state_fwd, row_fwd) in zip(read[::-1], forward):
        npt.assert_array_equal(state, state_fwd)
        npt.assert_array_equal(row, row_fwd)


def _stacked_role(cell, p):
    """The cell's gate-stacked Parameter that `p` is a slice of, and the slice index."""
    role, gate = p.name.rsplit(".", 1)[1].split("_")
    gates = "zrh" if isinstance(cell, GruCell) else LstmCell.GATES
    return getattr(cell, role), gates.index(gate)


@pytest.mark.parametrize("kind", ["gru", "lstm"])
def test_per_gate_parameters_are_views_of_the_stack(kind, tmp_path):
    model = miniature_model(kind, seed=3)
    cell = model.user_tower.cell
    params = cell.parameters()
    roles = [cell.U, cell.W] + ([cell.b] if kind == "lstm" else [])
    for p in params:
        stacked, k = _stacked_role(cell, p)
        for view, whole in ((p.value, stacked.value), (p.grad, stacked.grad)):
            assert view.flags.c_contiguous
            assert np.shares_memory(view, whole)
        npt.assert_array_equal(p.value, stacked.value[k])

    ids, matrix = table(_rng(5).standard_normal((1, 12, 8)))
    cell.backward(np.ones_like(cell.forward(ids, matrix)))
    before = [r.value.copy() for r in roles]
    Adam(params, learning_rate=0.01).step()
    for old, r in zip(before, roles):
        assert np.all(r.value != old)        # every entry of every role moved
        npt.assert_array_equal(r.grad, 0.0)  # zero_grad reached the stack

    restore_parameters(model, [np.full(p.shape, 0.25) for p in model.parameters()])
    for r in roles:
        npt.assert_array_equal(r.value, 0.25)

    saved = miniature_model(kind, seed=4)
    save_checkpoint(saved, tmp_path / "m.ckpt")
    loaded = load_checkpoint(tmp_path / "m.ckpt").user_tower.cell
    for p, q in zip(loaded.parameters(), saved.user_tower.cell.parameters()):
        stacked, k = _stacked_role(loaded, p)
        npt.assert_array_equal(stacked.value[k], q.value)

    first = params[0]
    stacked, k = _stacked_role(cell, first)
    probes = []

    def loss_fn():
        probes.append(stacked.value[k].copy())
        out = cell.forward(ids, matrix)
        return float(out.sum()), lambda: cell.backward(np.ones_like(out))

    gradient_check(loss_fn, [first])
    assert probes[1].reshape(-1)[0] == 0.25 + DEFAULT_EPS  # the first probe's +eps
    npt.assert_array_equal(stacked.value[k], 0.25)        # restored after probing


class TestGradientCheckHarness:
    def test_quadratic_closed_form(self):
        x = Parameter(np.array(3.0), "x")

        def loss_fn():
            def backward():
                x.grad += 2.0 * x.value
            return float(x.value ** 2), backward

        assert gradient_check(loss_fn, [x]) < 1e-9

    def test_constant_function(self):
        x = Parameter(np.array(3.0), "x")
        assert gradient_check(lambda: (5.0, lambda: None), [x]) == 0.0

    def test_corrupted_gradient_detected(self):
        x = Parameter(np.array(3.0), "x")

        def loss_fn():
            def backward():
                x.grad += 1.1 * 2.0 * x.value  # 10% too large
            return float(x.value ** 2), backward

        err = gradient_check(loss_fn, [x])
        assert 0.04 < err < 0.06  # |0.1 g| / |2.1 g|

    def _tiny_gradient_beside_large_loss(self, grad_error):
        # loss = 16 + g x with g = 1e-8: the central difference resolves g
        # only to about macheps * 16 / eps = 3.6e-10.
        x = Parameter(np.array(0.3), "x")

        def loss_fn():
            def backward():
                x.grad += 1e-8 + grad_error
            return 16.0 + 1e-8 * float(x.value), backward

        return gradient_check(loss_fn, [x])

    def test_rounding_noise_of_central_difference_not_flagged(self):
        assert self._tiny_gradient_beside_large_loss(0.0) < DEFAULT_THRESHOLD

    def test_error_of_ten_noise_floors_flagged(self):
        noise = np.finfo(np.float64).eps * 16.0 / DEFAULT_EPS
        assert self._tiny_gradient_beside_large_loss(10 * noise) > DEFAULT_THRESHOLD

    def test_non_finite_loss_raises(self):
        x = Parameter(np.array(3.0), "x")
        with pytest.raises(NumericFault):
            gradient_check(lambda: (float("nan"), lambda: None), [x])


def test_gradient_accumulation_is_additive():
    rng = _rng(41)
    layer = Dense(3, 2, activation="tanh", rng=rng)
    x = rng.standard_normal((1, 3))
    w = rng.standard_normal((1, 2))

    def one_pass():
        layer.forward(x)
        layer.backward(w)

    for p in layer.parameters():
        p.zero_grad()
    one_pass()
    single = [p.grad.copy() for p in layer.parameters()]
    one_pass()
    for p, g in zip(layer.parameters(), single):
        npt.assert_array_equal(p.grad, 2.0 * g)
