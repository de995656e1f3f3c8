"""Differentiable building blocks on float64 numpy arrays.

Every layer implements `forward(...)` caching whatever the backward pass
needs, and `backward(dout)` accumulating parameter gradients with `+=`.
Gradients therefore add up across calls until `zero_grad()` is invoked,
which is what the optimizers and the finite-difference checker rely on.
`backward` returns the gradient w.r.t. the layer's input, except in the
two encoders, Conv1d and GruCell/LstmCell: their input is the frozen word
embedding, which takes no gradient, so their `backward` returns nothing.

Every layer is batch-first: a batch of B documents is a (B, T) array of
token ids into a read-only (V, d) embedding matrix, whose rows each
encoder gathers itself, and vectors are the rows of a (B, n) array.  A
forward caches one batch, and backward differentiates the latest
forward: a forward with no backward after it is allowed (evaluation, and
the gradient check's probes), but a training forward must be followed by
its backward before the next forward.  Sample b of a batch gets the same
result as a batch of that sample alone, within rounding.  GruCell and
LstmCell share one unroll and keep their weights in gate-first arrays
(`U` (G, d, H), `W` (G, H, H), LSTM's `b` (G, H)); the per-gate
Parameters a cell returns are views of their gate's slices.  The unroll
runs in chunks of `chunk_steps(B)` steps, about CHUNK_ROWS rows each: it
projects a chunk's documents onto the gates with one matmul per gate and
takes the weight gradients with a few matmuls per chunk, so a step runs
only the recurrent product and the gates' elementwise work for the whole
batch.  Forward keeps one entering state per chunk and the last chunk's
states and activations; backward re-runs each earlier chunk's steps from
its entering state, so the activations it differentiates are forward's
bit for bit.  The cells' sigmoid is tanh-based, so it needs no branch on
the sign of its input.  Conv1d ends in its ReLU and max over time, so its
backward reads one window per document and channel.

Layers draw no random numbers after construction: the model draws every
dropout mask, the recurrent one and the feature one, scales its kept
entries to 1/(1 - rate), and hands it to `GruCell`/`LstmCell.forward` or
`Dropout.forward`.  A layer with weights takes the rng they are drawn
from as a required argument.
"""

import numpy as np

from .errors import ConfigError, ShapeError

# Rows per chunk of the recurrent unroll (steps x documents) and of the
# conv's windows (documents x positions).  Backward holds one chunk's rows
# at a time.
CHUNK_ROWS = 256


def chunk_steps(B):
    """Steps per chunk of the recurrent unroll over a batch of B documents;
    also documents per chunk of a conv with B output positions."""
    return max(1, CHUNK_ROWS // B)


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


def _sigmoid_in_place(a):
    """0.5 * (1 + tanh(0.5 * a)) written over `a`.  tanh saturates instead
    of overflowing, so no input needs a branch."""
    a *= 0.5
    np.tanh(a, out=a)
    a += 1.0
    a *= 0.5


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


def _check_table(layer, ids, matrix, dim):
    if ids.ndim != 2 or ids.shape[1] < 1 or matrix.shape[1:] != (dim,):
        raise ShapeError(f"{type(layer).__name__} expected (B, T >= 1) ids and a "
                         f"(V, {dim}) table, got {ids.shape} and {matrix.shape}")
    # Once per forward, not per chunk: a negative id would wrap silently.
    if ids.size and (ids.min() < 0 or ids.max() >= len(matrix)):
        raise ShapeError(f"{type(layer).__name__} got token ids outside its "
                         f"{len(matrix)}-row table (min {ids.min()}, max {ids.max()})")


class Dense:
    """Fully connected layer over a (B, n_in) batch: activation(x @ W + b)."""

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

    def release(self):
        """Drop what the latest forward kept for its backward."""
        self._cache = None

    def forward(self, x):
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.n_in:
            raise ShapeError(
                f"dense expected (B, {self.n_in}) input, got {x.shape}")
        z = x @ self.W.value + self.b.value
        out = _activate(self.activation, z)
        self._cache = (x, z, out)
        return out

    def backward(self, dout):
        x, z, out = self._cache
        dz = np.asarray(dout) * _activation_grad(self.activation, z, out)
        self.W.grad += x.T @ dz
        self.b.grad += dz.sum(axis=0)
        return dz @ self.W.value.T


class Conv1d:
    """Valid temporal convolution over (B, T) token ids, then ReLU and the
    max over time, which commute: (B, T) ids -> (B, C) features.

    z[b, l, c] = sum_{k,j} x[b, l*S + k, j] * kernels[c, k, j] + bias[c]
    out[b, c] = max(z[b, argmax[b, c], c], 0), argmax the first peak over l
    with x[b, t] = matrix[ids[b, t]] and L = floor((T - K) / S) + 1 positions.

    Its input is the frozen word embedding, so `backward(dout)` only
    accumulates the kernel and bias gradients and returns nothing.

    Forward runs one (L, K*d) @ (K*d, C) product per document, gathering
    the windows `chunk_steps(L)` documents at a time, and keeps the ids,
    the table and the (B, C) argmax and output (the checkpointing of Chen
    et al. 2016, arXiv 1604.06174).  Backward gathers the B*C argmax
    windows channel-major, `chunk_steps(C)` documents at a time, for one
    (C, 1, n) @ (C, n, K*d) kernel-gradient product per chunk.

    Each pass gathers its chunks into one buffer, a local of the call
    sized for the largest chunk, so the layer keeps none between calls.  A
    fresh window array per chunk went back to the system after each call,
    and the next call took hundreds of page faults to map it again.
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

    def release(self):
        """Drop what the latest forward kept for its backward."""
        self._cache = None

    def output_length(self, T):
        if T < self.kernel:
            raise ShapeError(
                f"conv1d needs T >= kernel ({self.kernel}), got T={T}")
        return (T - self.kernel) // self.stride + 1

    def forward(self, ids, matrix):
        _check_table(self, ids, matrix, self.in_dim)
        C, K, S = self.channels, self.kernel, self.stride
        L = self.output_length(ids.shape[1])
        kernels = self.kernels.value.reshape(C, -1).T
        argmax, out = np.empty((len(ids), C), dtype=np.intp), np.empty((len(ids), C))
        rows = np.arange(0, S * L, S)[:, None] + np.arange(K)
        n = chunk_steps(L)
        windows = np.empty((min(n, len(ids)) * L * K, self.in_dim), matrix.dtype)
        for b in range(0, len(ids), n):
            chunk = ids[b:b + n]
            x = _gather(matrix, chunk[:, rows], windows)
            # One product per document: a single (n*L, K*d) GEMM changes
            # its bits with the BLAS thread count.
            z = x.reshape(len(chunk), L, -1) @ kernels
            z += self.bias.value
            argmax[b:b + n], out[b:b + n] = _max_over_time(z)
        np.maximum(out, 0.0, out=out)
        self._cache = (ids, matrix, argmax, out)
        return out

    def backward(self, dout):
        ids, matrix, argmax, out = self._cache
        self.release()
        C, K, d = self.kernels.shape
        # The ReLU's output is positive exactly where its input is.
        g = np.asarray(dout) * (out > 0.0)
        self.bias.grad += g.sum(axis=0)
        n = chunk_steps(C)
        windows = np.empty((C * min(n, len(ids)) * K, d), matrix.dtype)
        for b in range(0, len(ids), n):
            # Channel c's window of document j starts at argmax[j, c] * S.
            docs = np.arange(b, min(b + n, len(ids)))
            starts = argmax[docs].T[..., None] * self.stride
            x = _gather(matrix, ids[docs[:, None], starts + np.arange(K)], windows)
            x = x.reshape(C, len(docs), K * d)
            self.kernels.grad += (g[docs].T[:, None] @ x).reshape(C, K, d)


def _gather(matrix, rows, buffer):
    """matrix[rows.ravel()], written over the first rows.size rows of
    `buffer` and returned as that C-contiguous leading slice.  `clip` never
    moves an id: `_check_table` has bounded them all."""
    out = buffer[:rows.size]
    np.take(matrix, rows.ravel(), axis=0, out=out, mode="clip")
    return out


def _max_over_time(x):
    """(B, C) first argmax and maxima over the L of a (B, L, C) batch."""
    argmax = np.argmax(x, axis=1)  # first maximum per channel on ties
    return argmax, x[np.arange(len(x))[:, None], argmax, np.arange(x.shape[2])]


class MaxPoolOverTime:
    """Per-channel maximum over all temporal positions of a (B, L, C) batch."""

    def __init__(self):
        self._cache = None

    def parameters(self):
        return []

    def forward(self, x):
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 3 or x.shape[1] < 1:
            raise ShapeError(
                f"maxpool expected non-empty (B, L, C) input, got {x.shape}")
        argmax, out = _max_over_time(x)
        self._cache = (x.shape, argmax)
        return out

    def backward(self, dout):
        shape, argmax = self._cache
        dx = np.zeros(shape)
        dx[np.arange(shape[0])[:, None], argmax, np.arange(shape[2])] = dout
        return dx


class Dropout:
    """Inverted dropout: the input times a mask whose kept entries hold
    1/(1 - rate) and dropped ones 0.  The model draws and scales the (B, n)
    mask in train mode and passes none in eval mode, where the layer is
    the identity."""

    _mask = None

    def forward(self, x, mask=None):
        """x times `mask`; x itself when there is no mask."""
        x = np.asarray(x, dtype=np.float64)
        self._mask = mask
        return x if mask is None else x * mask

    def backward(self, dout):
        dout = np.asarray(dout, dtype=np.float64)
        return dout if self._mask is None else dout * self._mask


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
    """The unroll shared by GruCell and LstmCell, over (B, T) token ids.

    Only the recurrent product `h_prev @ W` depends on the previous step,
    so every other product runs once per chunk of `chunk_steps(B)` steps,
    outside the step loop (the hoisting of Appleyard, Kocisky & Blunsom
    2016, arXiv 1604.01946):

    - A chunk gathers its (tc*B, d) time-major rows from the table and
      projects them onto the gates with one matmul per gate, LSTM's `b`
      added once, into a gate-major (tc, G, B, H) array.  A step,
      `step(state, a_t)`, adds the recurrent product to its (G, B, H) row,
      turns the row into the gate activations in place and returns the
      next state.  The chunk keeps its (tc + 1, n_state, B, H) states: the
      state entering each step and the chunk's final one.
    - Forward runs the chunks in turn and keeps each chunk's entering
      state, a checkpoint, in a (n_chunks + 1, n_state, B, H) array whose
      last row is the final state.  Of the chunks, it keeps only the last
      one's rows, states and activations, the first that backward needs.
    - Backward walks the chunks in reverse.  It re-runs each earlier chunk
      from its checkpoint with the steps forward ran, so the chunk's
      activations are forward's bit for bit, and holds only one chunk at a
      time (the checkpointing of Chen et al. 2016, arXiv 1604.06174, and
      Gruslys et al. 2016, arXiv 1606.03401).  Between the passes the cell
      keeps the ids and the table, not a copy of its input.
      `backward_step(dstate, k)` fills row k of the chunk's (tc, B, G, H)
      dA with the gradients of step k's gate pre-activations and returns
      those of the state entering it.  After the steps, `dU` and the
      recurrent weight (and bias) gradients are a few products over its
      (tc*B, G*H) rows.

    The checkpoints grow with B*T/tc, that is B**2 * T / CHUNK_ROWS.  A
    cell's state is a sequence of (B, H) arrays whose first entry is the
    hidden state.  A recurrent-dropout `mask` (B, H) scales the hidden
    state where the recurrent products read it (`_masked`), the variational
    dropout of Gal & Ghahramani 2016, arXiv 1512.05287; the states the
    cell keeps and carries from step to step are unmasked.
    """

    _mask = None

    def parameters(self):
        return list(self._parameters)

    def release(self):
        """Drop what the latest forward kept for its backward: the ids, the
        table, the mask, the checkpoints and the last chunk."""
        self._table = self._mask = self._checkpoints = self._x_rows = None
        self._states = self._gates = self._dA = self._W_columns = None

    def _masked(self, hidden):
        """`hidden` as the recurrent products read it: times the mask, if any."""
        return hidden if self._mask is None else hidden * self._mask

    def _project(self, x_rows, B):
        """A chunk's (tc*B, d) time-major input rows projected onto the
        gates, one product per gate, as a C-contiguous (tc, G, B, H) array:
        step t's gates are then contiguous (B, H) blocks."""
        xu = x_rows @ self.U.value
        G, _, H = xu.shape
        return xu.reshape(G, -1, B, H).transpose(1, 0, 2, 3).copy()

    def _run_chunk(self, t0, entering):
        """Run the chunk from step t0 out of its (n_state, B, H) entering
        state, keeping its input rows, states and activations; returns its
        final state."""
        ids, matrix = self._table
        B = len(ids)
        # Free the previous chunk's arrays before this one's are made.
        self._x_rows = self._gates = self._states = None
        chunk_ids = ids[:, t0:t0 + chunk_steps(B)].T
        self._x_rows = matrix[chunk_ids].reshape(-1, matrix.shape[1])
        self._gates = gates = self._project(self._x_rows, B)
        self._states = states = np.empty((len(gates) + 1,) + entering.shape)
        states[0] = entering
        for k, a_k in enumerate(gates):
            states[k + 1] = self.step(states[k], a_k)
        return states[-1]

    def forward(self, ids, matrix, mask=None):
        """Run over the (B, T) ids' documents, whose vectors are the rows of
        the (V, input_dim) `matrix`; returns the (B, H) final hidden states."""
        _check_table(self, ids, matrix, self.input_dim)
        B, T = ids.shape
        self._table, self._mask = (ids, matrix), mask
        starts = range(0, T, chunk_steps(B))
        checkpoints = np.zeros((len(starts) + 1, self.n_state, B, self.hidden_dim))
        for c, t0 in enumerate(starts):
            checkpoints[c + 1] = self._run_chunk(t0, checkpoints[c])
        self._checkpoints = checkpoints
        return checkpoints[-1, 0].copy()

    def backward(self, dh):
        """Accumulate the weight gradients, given the (B, H) gradient of the
        final hidden states; returns nothing."""
        checkpoints = self._checkpoints
        B, H = checkpoints.shape[2:]
        G = len(self.U.value)
        n_chunks = len(checkpoints) - 1
        self._W_columns = _columns(self.W.value)
        dstate = (np.asarray(dh, dtype=np.float64),) + \
            (np.zeros((B, H)),) * (self.n_state - 1)
        for c in reversed(range(n_chunks)):
            if c < n_chunks - 1:                # forward kept the last chunk
                self._run_chunk(c * chunk_steps(B), checkpoints[c])
            tc = len(self._gates)
            self._dA = dA = np.empty((tc, B, G, H))
            for k in reversed(range(tc)):
                dstate = self.backward_step(dstate, k)
            self.U.grad += _gate_first(self._x_rows.T @ dA.reshape(tc * B, G * H), G)
            s_in = self._masked(self._states[:-1, 0]).reshape(tc * B, H)
            self._recurrent_grads(dA, s_in)
        self.release()


class GruCell(_RecurrentCell):
    """Gated recurrent unit, no bias terms; the state is (s,).

    s_m = s_prev * mask                (s_prev without a mask)
    z   = sigmoid(x_t @ U_z + s_m @ W_z)
    r   = sigmoid(x_t @ U_r + s_m @ W_r)
    h   = tanh(x_t @ U_h + (s_m * r) @ W_h)
    s_t = (1 - z) * s_prev + z * h     (unmasked, so |s_t| <= 1 under any mask)

    `U` (3, d, H) and `W` (3, H, H) stack the gates z, r, h.
    """

    n_state = 1

    def __init__(self, input_dim, hidden_dim, rng, name="gru"):
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        U = [glorot_uniform((input_dim, hidden_dim), rng) for _ in "zrh"]
        W = [glorot_uniform((hidden_dim, hidden_dim), rng) for _ in "zrh"]
        self.U, U_gates = _gate_stacked(U, f"{name}.U", "zrh")
        self.W, W_gates = _gate_stacked(W, f"{name}.W", "zrh")
        self._parameters = U_gates + W_gates

    def step(self, state, xu_t):
        """The next state from `xu_t` = x_t @ U, a (3, B, H) row that is
        overwritten with the gate activations z, r, h."""
        s_prev, W, a = state[0], self.W.value, xu_t
        s_in = self._masked(s_prev)
        a[:2] += s_in @ W[:2]
        _sigmoid_in_place(a[:2])
        h = a[2]
        h += (s_in * a[1]) @ W[2]                          # r = a[1]
        np.tanh(h, out=h)
        z = a[0]
        return ((1.0 - z) * s_prev + z * h,)

    def backward_step(self, dstate, k):
        """Gradient of the chunk's step k: fills row k of the chunk's dA
        with the (B, 3, H) gate gradients and returns (ds_prev,)."""
        a = self._gates[k]
        z, r, h = a[0], a[1], a[2]
        s_prev = self._states[k, 0]
        (ds_t,) = dstate
        B, H = s_prev.shape
        da = self._dA[k]
        da_h = ds_t * z * (1.0 - h * h)                    # h = tanh(a_h)
        dsr = da_h @ self.W.value[2].T
        da[:, 0] = ds_t * (h - s_prev) * z * (1.0 - z)     # z = sigmoid(a_z)
        da[:, 1] = dsr * self._masked(s_prev) * r * (1.0 - r)  # r = sigmoid(a_r)
        da[:, 2] = da_h
        ds_zr = da[:, :2].reshape(B, 2 * H) @ self._W_columns[:, :2 * H].T
        return (ds_t * (1.0 - z) + self._masked(dsr * r) + self._masked(ds_zr),)

    def _recurrent_grads(self, dA, s_prev):
        tc, B, _, H = dA.shape
        rows = dA.reshape(tc * B, 3, H)
        self.W.grad[:2] += _gate_first(s_prev.T @ rows[:, :2].reshape(tc * B, -1), 2)
        self.W.grad[2] += (s_prev * self._gates[:, 1].reshape(tc * B, H)).T @ rows[:, 2]


class LstmCell(_RecurrentCell):
    """Standard LSTM cell with per-gate biases; the state is (h, c).

    The forget-gate bias starts at 1.

    i = sigmoid(x @ U_i + h_prev @ W_i + b_i)
    f = sigmoid(x @ U_f + h_prev @ W_f + b_f)
    o = sigmoid(x @ U_o + h_prev @ W_o + b_o)
    g = tanh   (x @ U_g + h_prev @ W_g + b_g)
    c = f * c_prev + i * g
    h = o * tanh(c)

    where h_prev is the previous hidden state times the mask, if any.
    `U` (4, d, H), `W` (4, H, H) and `b` (4, H) stack the gates i, f, o, g.
    """

    GATES = ("i", "f", "o", "g")
    n_state = 2

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

    def _project(self, x_rows, B):
        xu = super()._project(x_rows, B)
        xu += self.b.value[:, None]
        return xu

    def step(self, state, xu_t):
        """The next state from `xu_t` = x_t @ U + b, a (4, B, H) row that is
        overwritten with the gate activations i, f, o, g."""
        a = xu_t
        a += self._masked(state[0]) @ self.W.value
        _sigmoid_in_place(a[:3])
        np.tanh(a[3], out=a[3])
        c = a[1] * state[1] + a[0] * a[3]                  # f * c_prev + i * g
        return a[2] * np.tanh(c), c                        # o * tanh(c)

    def backward_step(self, dstate, k):
        """Gradient of the chunk's step k: fills row k of the chunk's dA
        with the (B, 4, H) gate gradients and returns (dh_prev, dc_prev)."""
        a = self._gates[k]
        i, f, o, g = a[0], a[1], a[2], a[3]
        c_prev, c = self._states[k, 1], self._states[k + 1, 1]
        tc = np.tanh(c)
        dh, dc = dstate
        dc = dc + dh * o * (1.0 - tc * tc)
        da = self._dA[k]
        da[:, 0] = dc * g * i * (1.0 - i)
        da[:, 1] = dc * c_prev * f * (1.0 - f)
        da[:, 2] = dh * tc * o * (1.0 - o)
        da[:, 3] = dc * i * (1.0 - g * g)
        return self._masked(da.reshape(len(c), -1) @ self._W_columns.T), dc * f

    def _recurrent_grads(self, dA, h_prev):
        tc, B, G, H = dA.shape
        rows = dA.reshape(tc * B, G * H)
        self.W.grad += _gate_first(h_prev.T @ rows, G)
        self.b.grad += rows.sum(axis=0).reshape(G, H)
