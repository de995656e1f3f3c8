"""Differentiable building blocks on float64 numpy arrays.

Every layer implements `forward(...)` caching whatever the backward pass
needs, and `backward(dout)` returning the gradient w.r.t. its input while
accumulating parameter gradients with `+=`.  Gradients therefore add up
across calls until `zero_grad()` is invoked, which is what the optimizers
and the finite-difference checker rely on.

Every layer, the recurrent cells included, takes one whole sample: a
document is a (T, d) matrix, hidden states are 1-d vectors.  Batching is a
loop one level up.  GruCell and LstmCell share one unroll; each writes out
only its own step and backward step, with one product per weight role on
gate-first arrays (`U` (G, d, H), `W` (G, H, H), LSTM's `b` (G, H)).  The
per-gate Parameters a cell returns are views of their gate's slices.
`sigmoid` is tanh-based, so it needs no branch on the sign of its input.

Layers draw no random numbers after construction: the model's Tower
draws every dropout mask, the recurrent one and the feature one, and
hands it to `GruCell`/`LstmCell.forward` or `Dropout.forward`.  A layer
with weights takes the rng they are drawn from as a required argument.
"""

import numpy as np

from .errors import ConfigError, ShapeError


class Parameter:
    """A trainable array paired with its accumulated gradient."""

    def __init__(self, value, name=""):
        self.value = np.array(value, dtype=np.float64)
        self.grad = np.zeros_like(self.value)
        self.name = name

    @property
    def shape(self):
        return self.value.shape

    def zero_grad(self):
        self.grad[...] = 0.0

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.value.shape})"


def glorot_uniform(shape, rng):
    """Uniform init with limit sqrt(6 / (fan_in + fan_out)).

    For 2-d weights the fans are the two axes; conv kernels (C, K, d)
    use fan_in = K*d and fan_out = C.
    """
    if len(shape) == 2:
        fan_in, fan_out = shape
    elif len(shape) == 3:
        c, k, d = shape
        fan_in, fan_out = k * d, c
    else:
        raise ConfigError(f"cannot infer fans for shape {shape}")
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def sigmoid(x):
    # tanh saturates instead of overflowing, so no input needs a branch.
    return 0.5 * (1.0 + np.tanh(0.5 * x))


_ACTIVATIONS = ("relu", "tanh", "identity")


def _activate(name, z):
    if name == "relu":
        return np.maximum(z, 0.0)
    if name == "tanh":
        return np.tanh(z)
    if name == "identity":
        return z
    raise ConfigError(f"unknown activation {name!r}, expected one of {_ACTIVATIONS}")


def _activation_grad(name, z, out):
    """d activation / d z, expressed from the pre-activation z and output."""
    if name == "relu":
        return (z > 0.0).astype(np.float64)
    if name == "tanh":
        return 1.0 - out * out
    return np.ones_like(z)


class Dense:
    """Fully connected layer: activation(x @ W + b)."""

    def __init__(self, n_in, n_out, activation, rng, name="dense"):
        if activation not in _ACTIVATIONS:
            raise ConfigError(f"unknown activation {activation!r}")
        self.n_in = n_in
        self.n_out = n_out
        self.activation = activation
        self.W = Parameter(glorot_uniform((n_in, n_out), rng), f"{name}.W")
        self.b = Parameter(np.zeros(n_out), f"{name}.b")
        self._cache = None

    def parameters(self):
        return [self.W, self.b]

    def forward(self, x):
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.n_in,):
            raise ShapeError(
                f"dense expected input shape ({self.n_in},), got {x.shape}")
        z = x @ self.W.value + self.b.value
        out = _activate(self.activation, z)
        self._cache = (x, z, out)
        return out

    def backward(self, dout):
        x, z, out = self._cache
        dz = np.asarray(dout) * _activation_grad(self.activation, z, out)
        self.W.grad += np.outer(x, dz)
        self.b.grad += dz
        return dz @ self.W.value.T


class Conv1d:
    """Valid temporal convolution over a (T, d) input, ReLU activation.

    out[l, c] = relu(sum_{k,j} x[l*S + k, j] * kernels[c, k, j] + bias[c])
    with L = floor((T - K) / S) + 1 output positions.
    """

    def __init__(self, in_dim, channels, kernel, stride, rng, name="conv"):
        if kernel < 1 or stride < 1 or channels < 1:
            raise ConfigError("conv1d needs channels, kernel and stride >= 1")
        self.in_dim = in_dim
        self.channels = channels
        self.kernel = kernel
        self.stride = stride
        self.kernels = Parameter(
            glorot_uniform((channels, kernel, in_dim), rng), f"{name}.kernels")
        self.bias = Parameter(np.zeros(channels), f"{name}.bias")
        self._cache = None

    def parameters(self):
        return [self.kernels, self.bias]

    def output_length(self, T):
        if T < self.kernel:
            raise ShapeError(
                f"conv1d needs T >= kernel ({self.kernel}), got T={T}")
        return (T - self.kernel) // self.stride + 1

    def forward(self, x):
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.in_dim:
            raise ShapeError(
                f"conv1d expected (T, {self.in_dim}) input, got {x.shape}")
        T = x.shape[0]
        L = self.output_length(T)
        K, S, C = self.kernel, self.stride, self.channels
        # im2col: one (L, K*d) matrix of flattened windows, then a single matmul.
        windows = np.lib.stride_tricks.sliding_window_view(x, (K, self.in_dim))
        windows = windows[::S, 0].reshape(L, K * self.in_dim)
        z = windows @ self.kernels.value.reshape(C, -1).T + self.bias.value
        out = np.maximum(z, 0.0)
        self._cache = (x.shape, windows, z)
        return out

    def backward(self, dout):
        (T, d), windows, z = self._cache
        K, S, C = self.kernel, self.stride, self.channels
        L = windows.shape[0]
        dz = np.asarray(dout) * (z > 0.0)
        self.kernels.grad += (dz.T @ windows).reshape(C, K, d)
        self.bias.grad += dz.sum(axis=0)
        dwindows = (dz @ self.kernels.value.reshape(C, -1)).reshape(L, K, d)
        # col2im: kernel offset k of window l lands on row l*S + k.  While
        # K <= 2S no row gets more than two terms, so the sum is the same
        # in any order.
        dx = np.zeros((T, d))
        span = S * (L - 1) + 1
        for k in range(K):
            dx[k:k + span:S] += dwindows[:, k]
        return dx


class MaxPoolOverTime:
    """Per-channel maximum over all temporal positions of a (L, C) input."""

    def __init__(self):
        self._cache = None

    def parameters(self):
        return []

    def forward(self, x):
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[0] < 1:
            raise ShapeError(f"maxpool expected non-empty (L, C) input, got {x.shape}")
        argmax = np.argmax(x, axis=0)  # first maximum per channel on ties
        self._cache = (x.shape, argmax)
        return x[argmax, np.arange(x.shape[1])]

    def backward(self, dout):
        (L, C), argmax = self._cache
        dx = np.zeros((L, C))
        dx[argmax, np.arange(C)] = dout
        return dx


class Dropout:
    """Inverted dropout: keep with probability 1-p and scale kept entries by 1/(1-p).

    The layer applies a mask; it does not draw one.  The Tower draws the
    boolean mask (`rng.random(n) >= rate`) in train mode and passes none
    in eval mode, where the layer is the identity.
    """

    def __init__(self, rate):
        if not 0.0 <= rate < 1.0:
            raise ConfigError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate
        self._cache = None

    def parameters(self):
        return []

    def forward(self, x, mask=None):
        """x with the boolean `mask` applied and kept entries rescaled;
        x itself when there is no mask."""
        x = np.asarray(x, dtype=np.float64)
        if mask is None:
            self._cache = None
            return x
        scale = 1.0 / (1.0 - self.rate)
        self._cache = (mask, scale)
        return x * mask * scale

    def backward(self, dout):
        if self._cache is None:
            return np.asarray(dout, dtype=np.float64)
        mask, scale = self._cache
        return np.asarray(dout) * mask * scale


def _gate_stacked(gates, name, gate_names):
    """The gates stacked gate-first in one Parameter, and one Parameter per
    gate whose value and grad are views of its C-contiguous slice.  The views
    skip Parameter.__init__, which would copy."""
    stacked = Parameter(gates, name)
    views = [Parameter.__new__(Parameter) for _ in gate_names]
    for k, (p, g) in enumerate(zip(views, gate_names)):
        p.value, p.grad, p.name = stacked.value[k], stacked.grad[k], f"{name}_{g}"
    return stacked, views


class _RecurrentCell:
    """The unroll shared by GruCell and LstmCell.

    A cell's state is a tuple whose first entry is the hidden vector.
    `step(state, x_t)` returns the next state and pushes its cache on a
    stack; `backward_step(dstate)` pops the latest cache and returns
    (dstate_prev, dx_t).  A recurrent-dropout `mask` scales the hidden
    vector before every step, and its gradient after every backward step.
    """

    def parameters(self):
        return list(self._parameters)

    def forward(self, x, mask=None):
        """Run over a (T, input_dim) document; returns the final hidden vector."""
        x = np.asarray(x, dtype=np.float64)
        self._stack = []
        state = self.initial_state()
        for x_t in x:
            if mask is not None:
                state = (state[0] * mask,) + state[1:]
            state = self.step(state, x_t)
        self._unroll = (len(x), mask)
        return state[0]

    def backward(self, dh):
        """(T, input_dim) input gradient, given that of the final hidden vector."""
        T, mask = self._unroll
        dstate = (dh,) + self.initial_state()[1:]
        dx = np.zeros((T, self.input_dim))
        for t in reversed(range(T)):
            dstate, dx[t] = self.backward_step(dstate)
            if mask is not None:
                dstate = (dstate[0] * mask,) + dstate[1:]
        return dx


class GruCell(_RecurrentCell):
    """Gated recurrent unit, no bias terms; the state is (s,).

    z   = sigmoid(x_t @ U_z + s_prev @ W_z)
    r   = sigmoid(x_t @ U_r + s_prev @ W_r)
    h   = tanh(x_t @ U_h + (s_prev * r) @ W_h)
    s_t = (1 - z) * s_prev + z * h

    `U` (3, d, H) and `W` (3, H, H) stack the gates z, r, h.
    """

    def __init__(self, input_dim, hidden_dim, rng, name="gru"):
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        U = [glorot_uniform((input_dim, hidden_dim), rng) for _ in "zrh"]
        W = [glorot_uniform((hidden_dim, hidden_dim), rng) for _ in "zrh"]
        self.U, U_gates = _gate_stacked(U, f"{name}.U", "zrh")
        self.W, W_gates = _gate_stacked(W, f"{name}.W", "zrh")
        self._parameters = U_gates + W_gates
        self._stack = []

    def initial_state(self):
        return (np.zeros(self.hidden_dim),)

    def step(self, state, x_t):
        (s_prev,) = state
        s_prev = np.asarray(s_prev, dtype=np.float64)
        x_t = np.asarray(x_t, dtype=np.float64)
        if x_t.shape != (self.input_dim,) or s_prev.shape != (self.hidden_dim,):
            raise ShapeError(
                f"gru step expected x ({self.input_dim},) and state "
                f"({self.hidden_dim},), got {x_t.shape} and {s_prev.shape}")
        W = self.W.value
        xu = x_t @ self.U.value
        z, r = sigmoid(xu[:2] + s_prev @ W[:2])
        h = np.tanh(xu[2] + (s_prev * r) @ W[2])
        s_t = (1.0 - z) * s_prev + z * h
        self._stack.append((x_t, s_prev, z, r, h))
        return (s_t,)

    def backward_step(self, dstate):
        """Gradient of one step; returns ((ds_prev,), dx_t)."""
        x_t, s_prev, z, r, h = self._stack.pop()
        (ds_t,) = dstate
        W = self.W.value
        da_h = ds_t * z * (1.0 - h * h)                   # h = tanh(a_h)
        dsr = W[2] @ da_h
        da = np.stack([ds_t * (h - s_prev) * z * (1.0 - z),  # z = sigmoid(a_z)
                       dsr * s_prev * r * (1.0 - r),         # r = sigmoid(a_r)
                       da_h])
        s_in = np.stack([s_prev, s_prev, s_prev * r])
        self.U.grad += x_t[:, None] * da[:, None, :]
        self.W.grad += s_in[:, :, None] * da[:, None, :]
        # Gates summed h, r, z, left to right, as in the per-gate reference
        # in tests/test_layers.py: another order moves the last bits.
        dx = (da[:, None, :] @ self.U.value.transpose(0, 2, 1))[:, 0]
        dx_t = dx[2] + dx[1] + dx[0]
        ds_prev = ds_t * (1.0 - z) + dsr * r + W[1] @ da[1] + W[0] @ da[0]
        return (ds_prev,), dx_t


class LstmCell(_RecurrentCell):
    """Standard LSTM cell with per-gate biases; the state is (h, c).

    The forget-gate bias starts at 1.

    i = sigmoid(x @ U_i + h_prev @ W_i + b_i)
    f = sigmoid(x @ U_f + h_prev @ W_f + b_f)
    o = sigmoid(x @ U_o + h_prev @ W_o + b_o)
    g = tanh   (x @ U_g + h_prev @ W_g + b_g)
    c = f * c_prev + i * g
    h = o * tanh(c)

    `U` (4, d, H), `W` (4, H, H) and `b` (4, H) stack the gates i, f, o, g.
    """

    GATES = ("i", "f", "o", "g")

    def __init__(self, input_dim, hidden_dim, rng, name="lstm"):
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        U, W = zip(*[(glorot_uniform((input_dim, hidden_dim), rng),
                      glorot_uniform((hidden_dim, hidden_dim), rng))
                     for _ in self.GATES])
        b = np.zeros((len(self.GATES), hidden_dim))
        b[1] = 1.0  # forget gate
        self.U, U_gates = _gate_stacked(U, f"{name}.U", self.GATES)
        self.W, W_gates = _gate_stacked(W, f"{name}.W", self.GATES)
        self.b, b_gates = _gate_stacked(b, f"{name}.b", self.GATES)
        self._parameters = [p for ps in zip(U_gates, W_gates, b_gates) for p in ps]
        self._stack = []

    def initial_state(self):
        return np.zeros(self.hidden_dim), np.zeros(self.hidden_dim)

    def step(self, state, x_t):
        h_prev, c_prev = state
        h_prev = np.asarray(h_prev, dtype=np.float64)
        c_prev = np.asarray(c_prev, dtype=np.float64)
        x_t = np.asarray(x_t, dtype=np.float64)
        if x_t.shape != (self.input_dim,) or h_prev.shape != (self.hidden_dim,):
            raise ShapeError(
                f"lstm step expected x ({self.input_dim},) and state "
                f"({self.hidden_dim},), got {x_t.shape} and {h_prev.shape}")
        a = x_t @ self.U.value + h_prev @ self.W.value + self.b.value
        i, f, o = sigmoid(a[:3])
        g = np.tanh(a[3])
        c = f * c_prev + i * g
        tc = np.tanh(c)
        h = o * tc
        self._stack.append((x_t, h_prev, c_prev, i, f, o, g, tc))
        return h, c

    def backward_step(self, dstate):
        """Gradient of one step; returns ((dh_prev, dc_prev), dx_t)."""
        x_t, h_prev, c_prev, i, f, o, g, tc = self._stack.pop()
        dh, dc = dstate
        dc = dc + dh * o * (1.0 - tc * tc)
        da = np.stack([dc * g * i * (1.0 - i),
                       dc * c_prev * f * (1.0 - f),
                       dh * tc * o * (1.0 - o),
                       dc * i * (1.0 - g * g)])
        self.U.grad += x_t[:, None] * da[:, None, :]
        self.W.grad += h_prev[:, None] * da[:, None, :]
        self.b.grad += da
        dx = (da[:, None, :] @ self.U.value.transpose(0, 2, 1))[:, 0]
        dh_in = (da[:, None, :] @ self.W.value.transpose(0, 2, 1))[:, 0]
        dh_prev = dh_in[0] + dh_in[1] + dh_in[2] + dh_in[3]
        return (dh_prev, dc * f), dx[0] + dx[1] + dx[2] + dx[3]
