"""Finite-difference verification of every hand-written backward pass.

`gradient_check` is the generic harness.  A loss function runs the
forward pass only and returns (loss, backward); the harness calls
backward once, for the analytic gradient, and its 2n central-difference
probes read the loss alone.  `standard_checks` runs the battery the CLI
exposes, `STANDARD_CASES`: each layer type in isolation, both recurrent
cells under a recurrent-dropout mask, both coupling heads, and full
miniature twin-tower models.  Every case builds its inputs,
masks, output weights and targets with a leading axis of `BATCH`
samples: one in the CLI, which keeps the battery cheap, and three in the
tests, which run the same cases.
"""

import numpy as np

from .errors import NumericFault
from .layers import Conv1d, Dense, Dropout, GruCell, LstmCell, MaxPoolOverTime
from .model import DeepConn, DpHead, FmHead, ModelConfig, TowerConfig

DEFAULT_EPS = 1e-5
DEFAULT_THRESHOLD = 1e-4
_MACHEPS = np.finfo(np.float64).eps


def gradient_check(loss_fn, params, eps=DEFAULT_EPS):
    """Max relative error between analytic and central-difference gradients.

    loss_fn() runs the forward pass only, with the *current* parameter
    values, and returns (loss, backward): the scalar loss and a function
    that accumulates that forward's gradients into `params`.  The check
    calls backward once, for the analytic gradient; its 2n probes run
    forward only.  loss_fn has to be deterministic across calls (fix any
    dropout masks).  The grads are zero again on return.  Error per entry is

        max(0, |a - n| - macheps * |f| / eps) / max(1e-8, |a| + |n|)

    where f is the larger of the two probed losses: the central difference
    n is only known to within the rounding of f(x+eps) - f(x-eps), so a
    tiny correct entry beside a large loss would otherwise read as wrong.
    """
    for p in params:
        p.zero_grad()
    loss, backward = loss_fn()
    if not np.isfinite(loss):
        raise NumericFault(f"loss is not finite: {loss}")
    backward()
    analytic = [p.grad.copy() for p in params]
    for p in params:
        p.zero_grad()

    worst = 0.0
    for p, grad in zip(params, analytic):
        flat = p.value.reshape(-1)
        gflat = grad.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            f_plus = float(loss_fn()[0])
            flat[i] = orig - eps
            f_minus = float(loss_fn()[0])
            flat[i] = orig
            if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
                raise NumericFault(f"non-finite loss while probing {p.name}[{i}]")
            numeric = (f_plus - f_minus) / (2.0 * eps)
            noise = _MACHEPS * max(abs(f_plus), abs(f_minus)) / eps
            a = gflat[i]
            err = max(0.0, abs(a - numeric) - noise) / max(1e-8, abs(a) + abs(numeric))
            worst = max(worst, err)
    return worst


# Samples per case.  The tests run the battery at a batch of three too;
# the CLI stays at one, where fewer ReLU pre-activations can land within
# eps of their kink and read as a failure at some seeds.
BATCH = 1


# Each case builder returns (loss_fn, params) for gradient_check, drawing
# from its rng in the order its lines are written.

def _summed(forward, backward, w):
    """The loss w . forward(), whose gradient w.r.t. the output is w."""

    def loss_fn():
        return float(np.vdot(w, forward())), lambda: backward(w)

    return loss_fn


def _documents(rng, n, T, d):
    """n documents of T token ids; document b reads rows b*T to b*T + T - 1
    of an (n*T, d) table of random vectors."""
    return np.arange(n * T).reshape(n, T), rng.standard_normal((n * T, d))


def _case_dense(rng):
    layer = Dense(4, 3, activation="tanh", rng=rng, name="check.dense")
    x = rng.standard_normal((BATCH, 4))
    return _summed(lambda: layer.forward(x), layer.backward,
                   rng.standard_normal((BATCH, 3))), layer.parameters()


def _case_conv1d(rng):
    layer = Conv1d(5, 3, kernel=4, stride=2, rng=rng, name="check.conv")
    ids, matrix = _documents(rng, BATCH, 12, 5)   # max over L = 5 positions
    return _summed(lambda: layer.forward(ids, matrix), layer.backward,
                   rng.standard_normal((BATCH, 3))), layer.parameters()


def _case_maxpool(rng):
    # The pool has no parameters of its own; verify the gradient it routes
    # by driving its input from a dense layer whose weights get perturbed.
    pre = Dense(6, 12, activation="identity", rng=rng, name="check.pool_pre")
    pool = MaxPoolOverTime()
    x = rng.standard_normal((BATCH, 6))
    return _summed(lambda: pool.forward(pre.forward(x).reshape(-1, 4, 3)),
                   lambda w: pre.backward(pool.backward(w).reshape(-1, 12)),
                   rng.standard_normal((BATCH, 3))), pre.parameters()


def _case_dropout(rng):
    pre = Dense(4, 6, activation="tanh", rng=rng, name="check.drop_pre")
    drop = Dropout()
    mask = (rng.random((BATCH, 6)) >= 0.4) / 0.6  # fixed across probing evaluations
    x = rng.standard_normal((BATCH, 4))
    return _summed(lambda: drop.forward(pre.forward(x), mask),
                   lambda w: pre.backward(drop.backward(w)),
                   rng.standard_normal((BATCH, 6))), pre.parameters()


def _case_cell(cell_cls, rng):
    """Three steps under a recurrent-dropout mask at rate 0.3."""
    cell = cell_cls(3, 4, rng=rng)
    ids, matrix = _documents(rng, BATCH, 3, 3)
    mask = (rng.random((BATCH, 4)) >= 0.3) / 0.7
    return _summed(lambda: cell.forward(ids, matrix, mask), cell.backward,
                   rng.standard_normal((BATCH, 4))), cell.parameters()


# The heads' w is ones: the loss is the sum of the predictions.

def _case_dp_head(rng):
    head = DpHead(5, name="check.dp")
    head.w.value[:] = rng.standard_normal(10)
    head.beta0.value[...] = 0.3
    # Feed the head from dense layers so its input gradients are verified too.
    u_pre = Dense(3, 5, activation="tanh", rng=rng, name="check.dp_u")
    i_pre = Dense(3, 5, activation="tanh", rng=rng, name="check.dp_i")
    xu_in = rng.standard_normal((BATCH, 3))
    xi_in = rng.standard_normal((BATCH, 3))

    def backward(w):
        dx_u, dx_i = head.backward(w)
        u_pre.backward(dx_u)
        i_pre.backward(dx_i)

    return (_summed(lambda: head.predict(u_pre.forward(xu_in), i_pre.forward(xi_in)),
                    backward, np.ones(BATCH)),
            head.parameters() + u_pre.parameters() + i_pre.parameters())


def _case_fm_head(rng):
    head = FmHead(5, rank=3, rng=rng, name="check.fm")
    head.w.value[:] = rng.standard_normal(10)
    pre = Dense(4, 10, activation="tanh", rng=rng, name="check.fm_pre")
    x_in = rng.standard_normal((BATCH, 4))
    return (_summed(lambda: head.predict_z(pre.forward(x_in)),
                    lambda w: pre.backward(head.backward_z(w)), np.ones(BATCH)),
            head.parameters() + pre.parameters())


def miniature_model(kind="cnn", head="dp", seed=0):
    """Smallest useful twin-tower model: d=8, units=4, T around 12."""
    tower = TowerConfig(kind=kind, embedding_dim=8, hidden_units=4, kernel=4,
                        stride=2, dense_units=4, dropout_rate=0.0)
    config = ModelConfig(tower=tower, head=head, fm_rank=2)
    return DeepConn(config, seed=seed)


def _case_full_model(rng, kind, head):
    """The squared error of the rating against a target of 4 per pair."""
    model = miniature_model(kind, head, seed=int(rng.integers(1 << 30)))
    if head == "dp":
        # Zero first-order weights would leave their gradient path untested.
        model.head.w.value[:] = 0.1 * rng.standard_normal(model.head.w.value.shape)
    ids, matrix = _documents(rng, 2 * BATCH, 12, 8)  # the users', then the items'
    user_ids, item_ids = ids[:BATCH], ids[BATCH:]
    targets = np.full(BATCH, 4.0)

    def loss_fn():
        residual = model.forward(user_ids, item_ids, matrix) - targets
        return float(residual @ residual), lambda: model.backward(2.0 * residual)

    return loss_fn, model.parameters()


STANDARD_CASES = (
    ("dense", _case_dense),
    ("conv1d", _case_conv1d),
    ("maxpool_over_time", _case_maxpool),
    ("dropout_fixed_mask", _case_dropout),
    ("gru_3step", lambda rng: _case_cell(GruCell, rng)),
    ("lstm_3step", lambda rng: _case_cell(LstmCell, rng)),
    ("dp_head", _case_dp_head),
    ("fm_head", _case_fm_head),
    ("full_model_cnn_dp", lambda rng: _case_full_model(rng, "cnn", "dp")),
    ("full_model_gru_fm", lambda rng: _case_full_model(rng, "gru", "fm")),
    ("full_model_lstm_dp", lambda rng: _case_full_model(rng, "lstm", "dp")),
)


def standard_checks(eps=DEFAULT_EPS, seed=0, corrupt=False):
    """Run the whole battery; returns a list of (name, max_relative_error).

    corrupt=True scales each analytic gradient by 1.1 before comparison,
    a self-test of the checker (expected error around 0.1/2.1 ~ 0.05).
    """
    results = []
    for i, (name, build) in enumerate(STANDARD_CASES):
        rng = np.random.default_rng(seed + i)
        loss_fn, params = build(rng)
        if corrupt:
            loss_fn = _corrupted(loss_fn, params)
        results.append((name, gradient_check(loss_fn, params, eps)))
    return results


def _corrupted(loss_fn, params):
    def tampered():
        loss, backward = loss_fn()

        def inflated():
            backward()
            for p in params:
                p.grad *= 1.1

        return loss, inflated
    return tampered
