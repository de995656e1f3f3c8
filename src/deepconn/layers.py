"""Differentiable building blocks on float64 numpy arrays.

Every layer implements `forward(...)` caching whatever the backward pass
needs, and `backward(dout)` returning the gradient w.r.t. its input while
accumulating parameter gradients with `+=`.  Gradients therefore add up
across calls until `zero_grad()` is invoked, which is what the optimizers
and the finite-difference checker rely on.

Every layer, the recurrent cells included, takes one whole sample: a
document is a (T, d) matrix, hidden states are 1-d vectors.  Batching is a
loop one level up.  GruCell and LstmCell share one unroll and keep their
weights in gate-first arrays (`U` (G, d, H), `W` (G, H, H), LSTM's `b`
(G, H)); the per-gate Parameters a cell returns are views of their gate's
slices.  The unroll projects the whole document onto the gates with one
matmul before the time loop and takes the weight and input gradients with
a few matmuls after it, so a step runs only the recurrent product and the
gates' elementwise work.  Each cell writes out only its own step and
backward step.  `sigmoid` is tanh-based, so it needs no branch on the sign
of its input.

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


def _columns(stacked):
    """A gate-first (G, n, H) array as an (n, G*H) copy whose columns hold the
    gates in turn: one matmul against it is one product per gate."""
    G, n, H = stacked.shape
    return stacked.transpose(1, 0, 2).reshape(n, G * H)


def _gate_first(columns, G):
    """The (G, n, H) gate-first view of an (n, G*H) array of gate columns."""
    return columns.reshape(len(columns), G, -1).transpose(1, 0, 2)


class _RecurrentCell:
    """The unroll shared by GruCell and LstmCell.

    Only the recurrent product `h_prev @ W` depends on the previous step,
    so every other product runs once per document, outside the time loop
    (the hoisting of Appleyard, Kocisky & Blunsom 2016, arXiv 1604.01946):

    - Before the loop, one input projection `x @ U` of the whole (T, d)
      document, with LSTM's `b` added once, fills a (T, G, H) array.
    - Per step, `step(state, xu_t)` takes row t of that array, adds the
      recurrent product, overwrites the row with the gate activations and
      returns the next state.  The state entering each step, after the
      mask, is kept in a (T + 1, len(state), H) array whose last row is the
      final state.
    - Per backward step, `backward_step(dstate, t)` reads those arrays and
      returns (dstate_prev, da_t): the gradients of the state entering step
      t and of its (G, H) gate pre-activations, which fill a (T, G, H) dA.
    - After the loop, `dU += x.T @ dA`, each cell's recurrent weight (and
      bias) gradients from the stored states and dA, and the input gradient
      `dA @ U.T`: a few products over the time axis in place of 3T small
      ones.

    A cell's state is a sequence of vectors whose first entry is the hidden
    vector.  A recurrent-dropout `mask` scales the hidden vector before
    every step, and its gradient after every backward step.
    """

    def parameters(self):
        return list(self._parameters)

    def _project(self, x):
        G, d, H = self.U.shape
        return (x @ _columns(self.U.value)).reshape(len(x), G, H)

    def forward(self, x, mask=None):
        """Run over a (T, input_dim) document; returns the final hidden vector."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.input_dim:
            raise ShapeError(f"{type(self).__name__} expected (T, {self.input_dim}) "
                             f"input, got {x.shape}")
        gates = self._project(x)
        states = np.zeros((len(x) + 1, len(self.initial_state()), self.hidden_dim))
        for t in range(len(x)):
            if mask is not None:
                states[t, 0] *= mask
            states[t + 1] = self.step(states[t], gates[t])
        self._x, self._mask, self._gates, self._states = x, mask, gates, states
        return states[-1, 0].copy()

    def backward(self, dh):
        """(T, input_dim) input gradient, given that of the final hidden vector."""
        T, G, H = self._gates.shape
        self._W_columns = _columns(self.W.value)
        dA = np.empty((T, G, H))
        dstate = (dh,) + self.initial_state()[1:]
        for t in reversed(range(T)):
            dstate, dA[t] = self.backward_step(dstate, t)
            if self._mask is not None:
                dstate = (dstate[0] * self._mask,) + dstate[1:]
        dA_columns = dA.reshape(T, G * H)
        self.U.grad += _gate_first(self._x.T @ dA_columns, G)
        self._recurrent_grads(dA)
        return dA_columns @ _columns(self.U.value).T


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

    def initial_state(self):
        return (np.zeros(self.hidden_dim),)

    def step(self, state, xu_t):
        """The next state from `xu_t` = x_t @ U, a (3, H) row that is
        overwritten with the gate activations z, r, h."""
        (s_prev,) = state
        W = self.W.value
        a = xu_t
        a[:2] += s_prev @ W[:2]
        a[:2] = sigmoid(a[:2])
        z, r, h = a
        h += (s_prev * r) @ W[2]
        np.tanh(h, out=h)
        return ((1.0 - z) * s_prev + z * h,)

    def backward_step(self, dstate, t):
        """Gradient of step t; returns ((ds_prev,), da_t)."""
        z, r, h = self._gates[t]
        s_prev = self._states[t, 0]
        (ds_t,) = dstate
        da_h = ds_t * z * (1.0 - h * h)                    # h = tanh(a_h)
        dsr = self.W.value[2] @ da_h
        da = np.empty((3, self.hidden_dim))
        da[0] = ds_t * (h - s_prev) * z * (1.0 - z)        # z = sigmoid(a_z)
        da[1] = dsr * s_prev * r * (1.0 - r)               # r = sigmoid(a_r)
        da[2] = da_h
        ds_zr = self._W_columns[:, :2 * self.hidden_dim] @ da[:2].reshape(-1)
        return (ds_t * (1.0 - z) + dsr * r + ds_zr,), da

    def _recurrent_grads(self, dA):
        T = len(dA)
        s_prev = self._states[:-1, 0]
        self.W.grad[:2] += _gate_first(s_prev.T @ dA[:, :2].reshape(T, -1), 2)
        self.W.grad[2] += (s_prev * self._gates[:, 1]).T @ dA[:, 2]


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

    def initial_state(self):
        return np.zeros(self.hidden_dim), np.zeros(self.hidden_dim)

    def _project(self, x):
        xu = super()._project(x)
        xu += self.b.value
        return xu

    def step(self, state, xu_t):
        """The next state from `xu_t` = x_t @ U + b, a (4, H) row that is
        overwritten with the gate activations i, f, o, g."""
        h_prev, c_prev = state
        a = xu_t
        a += h_prev @ self.W.value
        a[:3] = sigmoid(a[:3])
        np.tanh(a[3], out=a[3])
        i, f, o, g = a
        c = f * c_prev + i * g
        return o * np.tanh(c), c

    def backward_step(self, dstate, t):
        """Gradient of step t; returns ((dh_prev, dc_prev), da_t)."""
        i, f, o, g = self._gates[t]
        c_prev, c = self._states[t, 1], self._states[t + 1, 1]
        tc = np.tanh(c)
        dh, dc = dstate
        dc = dc + dh * o * (1.0 - tc * tc)
        da = np.empty((4, self.hidden_dim))
        da[0] = dc * g * i * (1.0 - i)
        da[1] = dc * c_prev * f * (1.0 - f)
        da[2] = dh * tc * o * (1.0 - o)
        da[3] = dc * i * (1.0 - g * g)
        return (self._W_columns @ da.reshape(-1), dc * f), da

    def _recurrent_grads(self, dA):
        T, G, H = dA.shape
        self.W.grad += _gate_first(self._states[:-1, 0].T @ dA.reshape(T, G * H), G)
        self.b.grad += dA.sum(axis=0)
