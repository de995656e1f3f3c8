"""Finite-difference verification of every hand-written backward pass.

`gradient_check` is the generic harness; `standard_checks` runs the
battery the CLI exposes: each layer type in isolation, both coupling
heads, and full miniature twin-tower models, each on a batch of one
sample so that the battery stays cheap.
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

    loss_fn() must run a full forward+backward pass with the *current*
    parameter values, accumulate gradients into `params`, and return the
    scalar loss.  It has to be deterministic across calls (fix any dropout
    masks).  Error per entry is

        max(0, |a - n| - macheps * |f| / eps) / max(1e-8, |a| + |n|)

    where f is the larger of the two probed losses: the central difference
    n is only known to within the rounding of f(x+eps) - f(x-eps), so a
    tiny correct entry beside a large loss would otherwise read as wrong.
    """
    for p in params:
        p.zero_grad()
    loss = float(loss_fn())
    if not np.isfinite(loss):
        raise NumericFault(f"loss is not finite: {loss}")
    analytic = [p.grad.copy() for p in params]

    worst = 0.0
    for p, grad in zip(params, analytic):
        flat = p.value.reshape(-1)
        gflat = grad.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            f_plus = float(loss_fn())
            flat[i] = orig - eps
            f_minus = float(loss_fn())
            flat[i] = orig
            if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
                raise NumericFault(f"non-finite loss while probing {p.name}[{i}]")
            numeric = (f_plus - f_minus) / (2.0 * eps)
            noise = _MACHEPS * max(abs(f_plus), abs(f_minus)) / eps
            a = gflat[i]
            err = max(0.0, abs(a - numeric) - noise) / max(1e-8, abs(a) + abs(numeric))
            worst = max(worst, err)
    for p in params:
        p.zero_grad()  # probing calls accumulated junk
    return worst


# Each case builder returns (loss_fn, params) for gradient_check.

def _case_layer(layer, inputs, w):
    """The loss w . layer(*inputs), for w of the output's shape."""

    def loss_fn():
        out = layer.forward(*inputs)
        layer.backward(w)
        return float(np.vdot(w, out))

    return loss_fn, layer.parameters()


def _case_maxpool(rng):
    # The pool has no parameters of its own; verify the gradient it routes
    # by driving its input from a dense layer whose weights get perturbed.
    pre = Dense(6, 12, activation="identity", rng=rng, name="check.pool_pre")
    pool = MaxPoolOverTime()
    x = rng.standard_normal((1, 6))
    w = rng.standard_normal((1, 3))

    def loss_fn():
        rows = pre.forward(x).reshape(1, 4, 3)
        out = pool.forward(rows)
        pre.backward(pool.backward(w).reshape(1, 12))
        return float(np.vdot(w, out))

    return loss_fn, pre.parameters()


def _case_dropout(rng):
    pre = Dense(4, 6, activation="tanh", rng=rng, name="check.drop_pre")
    drop = Dropout(0.4)
    mask = rng.random((1, 6)) >= 0.4  # fixed across probing evaluations
    x = rng.standard_normal((1, 4))
    w = rng.standard_normal((1, 6))

    def loss_fn():
        out = drop.forward(pre.forward(x), mask)
        pre.backward(drop.backward(w))
        return float(np.vdot(w, out))

    return loss_fn, pre.parameters()


def _case_dp_head(rng):
    head = DpHead(5, name="check.dp")
    head.w.value[:] = rng.standard_normal(10)
    head.beta0.value[...] = 0.3
    # Feed the head from dense layers so its input gradients are verified too.
    u_pre = Dense(3, 5, activation="tanh", rng=rng, name="check.dp_u")
    i_pre = Dense(3, 5, activation="tanh", rng=rng, name="check.dp_i")
    xu_in = rng.standard_normal((1, 3))
    xi_in = rng.standard_normal((1, 3))

    def loss_fn():
        y = head.predict(u_pre.forward(xu_in), i_pre.forward(xi_in))
        dx_u, dx_i = head.backward(np.ones(1))
        u_pre.backward(dx_u)
        i_pre.backward(dx_i)
        return float(y[0])

    return loss_fn, head.parameters() + u_pre.parameters() + i_pre.parameters()


def _case_fm_head(rng):
    head = FmHead(5, rank=3, rng=rng, name="check.fm")
    head.w.value[:] = rng.standard_normal(10)
    pre = Dense(4, 10, activation="tanh", rng=rng, name="check.fm_pre")
    x_in = rng.standard_normal((1, 4))

    def loss_fn():
        y = head.predict_z(pre.forward(x_in))
        pre.backward(head.backward_z(np.ones(1)))
        return float(y[0])

    return loss_fn, head.parameters() + pre.parameters()


def miniature_model(kind="cnn", head="dp", seed=0):
    """Smallest useful twin-tower model: d=8, units=4, T around 12."""
    tower = TowerConfig(kind=kind, embedding_dim=8, hidden_units=4, kernel=4,
                        stride=2, dense_units=4, dropout_rate=0.0)
    config = ModelConfig(tower=tower, head=head, fm_rank=2)
    return DeepConn(config, seed=seed)


def _case_full_model(rng, kind="cnn", head="dp", T=12):
    model = miniature_model(kind, head, seed=int(rng.integers(1 << 30)))
    if head == "dp":
        # Zero first-order weights would leave their gradient path untested.
        model.head.w.value[:] = 0.1 * rng.standard_normal(model.head.w.value.shape)
    matrix = rng.standard_normal((2 * T, 8))   # the user's rows, then the item's
    ids = np.arange(2 * T).reshape(2, T)
    target = 4.0

    def loss_fn():
        residual = model.forward(ids[:1], ids[1:], matrix) - target
        model.backward(2.0 * residual)
        return float(residual @ residual)

    return loss_fn, model.parameters()


# Arguments are evaluated left to right: a plain layer case draws the
# layer's weights, then its input, then w from its rng.
STANDARD_CASES = (
    ("dense", lambda rng: _case_layer(
        Dense(4, 3, activation="tanh", rng=rng, name="check.dense"),
        (rng.standard_normal((1, 4)),), rng.standard_normal((1, 3)))),
    ("conv1d", lambda rng: _case_layer(   # L = (12 - 4) // 2 + 1 = 5 positions
        Conv1d(5, 3, kernel=4, stride=2, rng=rng, name="check.conv"),
        (np.arange(12)[None], rng.standard_normal((12, 5))),
        rng.standard_normal((1, 5, 3)))),
    ("maxpool_over_time", _case_maxpool),
    ("dropout_fixed_mask", _case_dropout),
    ("gru_3step", lambda rng: _case_layer(
        GruCell(3, 4, rng=rng), (np.arange(3)[None], rng.standard_normal((3, 3))),
        rng.standard_normal((1, 4)))),
    ("lstm_3step", lambda rng: _case_layer(
        LstmCell(3, 4, rng=rng), (np.arange(3)[None], rng.standard_normal((3, 3))),
        rng.standard_normal((1, 4)))),
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
        loss = loss_fn()
        for p in params:
            p.grad *= 1.1
        return loss
    return tampered
