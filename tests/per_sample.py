"""Per-sample oracles for the batch-first layers.

Each function runs one sample through a layer's equations as the layers
ran before they took a batch axis (1-d vectors, (T, d) documents), reading
the layer's current weights, and returns (output, input gradient,
{parameter role: gradient}).  The oracles read dense (T, d) documents;
`table` turns a batch of them into the token ids and table that the
batched encoders read.  The encoders, `conv1d` and `cell_unroll`,
return (output, {parameter role: gradient}): their input is the frozen
word embedding, which takes no gradient.  A role is the last part of the
parameter's name ("W", "kernels", "U", "beta0", ...).  The tests compare
every batched layer against these, sample by sample.
"""

import numpy as np

from deepconn.layers import GruCell


def table(docs):
    """(ids, matrix) for a (B, T, d) batch of dense documents: the matrix
    holds their rows, and document b's ids are the block b*T to b*T + T."""
    docs = np.asarray(docs, dtype=np.float64)
    B, T, d = docs.shape
    return np.arange(B * T).reshape(B, T), docs.reshape(B * T, d)


def sigmoid(x):
    """The textbook form, independent of the cells' in-place tanh form.
    Below x = -709, exp(-x) overflows to inf, which gives the right 0."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def dense(layer, x, dout):
    W, b = layer.W.value, layer.b.value
    z = x @ W + b
    if layer.activation == "relu":
        out, dact = np.maximum(z, 0.0), (z > 0.0).astype(np.float64)
    elif layer.activation == "tanh":
        out = np.tanh(z)
        dact = 1.0 - out * out
    else:
        out, dact = z, np.ones_like(z)
    dz = dout * dact
    return out, dz @ W.T, {"W": np.outer(x, dz), "b": dz}


def conv1d(layer, x, dout):
    """The im2col forward and the parameter gradients."""
    T, d = x.shape
    K, S, C = layer.kernel, layer.stride, layer.channels
    L = (T - K) // S + 1
    windows = np.lib.stride_tricks.sliding_window_view(x, (K, d))
    windows = windows[::S, 0].reshape(L, K * d)
    z = windows @ layer.kernels.value.reshape(C, -1).T + layer.bias.value
    dz = dout * (z > 0.0)
    return np.maximum(z, 0.0), {"kernels": (dz.T @ windows).reshape(C, K, d),
                                "bias": dz.sum(axis=0)}


def maxpool(x, dout):
    argmax = np.argmax(x, axis=0)
    columns = np.arange(x.shape[1])
    dx = np.zeros_like(x)
    dx[argmax, columns] = dout
    return x[argmax, columns], dx, {}


def dropout(x, mask, dout):
    return x * mask, dout * mask, {}


def dp_head(head, x_u, x_i, dy):
    """Returns (rating, (dx_u, dx_i), grads)."""
    m = head.latent_dim
    y = float(x_u @ x_i)
    dx_u, dx_i = dy * x_i, dy * x_u
    grads = {}
    if not head.pure_dot:
        z = np.concatenate([x_u, x_i])
        y += float(head.beta0.value) + float(head.w.value @ z)
        grads = {"beta0": np.array(dy), "w": dy * z}
        dx_u = dx_u + dy * head.w.value[:m]
        dx_i = dx_i + dy * head.w.value[m:]
    return y, (dx_u, dx_i), grads


def fm_head(head, z, dy):
    V, w = head.V.value, head.w.value
    s = z @ V
    q = (z * z) @ (V * V)
    y = float(head.beta0.value) + float(w @ z) + 0.5 * float(np.sum(s * s - q))
    grads = {"beta0": np.array(dy), "w": dy * z,
             "V": dy * (np.outer(z, s) - V * (z * z)[:, None])}
    return y, dy * (w + V @ s - (V * V).sum(axis=1) * z), grads


def cell_unroll(cell, x, dfinal, mask):
    """GruCell/LstmCell on one (T, d) document with an (H,) mask or None:
    the gate-stacked cells' per-step body as it was before the hoisting,
    with the input product and every weight gradient taken inside the time
    loop.  Returns (final hidden vector, {role: stacked gradient})."""
    U, W = cell.U.value, cell.W.value
    grads = {"U": np.zeros_like(U), "W": np.zeros_like(W)}
    T, H = len(x), cell.hidden_dim
    if isinstance(cell, GruCell):
        s, cache = np.zeros(H), []
        for t in range(T):
            # The products read the masked state; the carry, the unmasked one.
            s_prev, s_m = s, (s * mask if mask is not None else s)
            xu = x[t] @ U
            z, r = sigmoid(xu[:2] + s_m @ W[:2])
            h = np.tanh(xu[2] + (s_m * r) @ W[2])
            s = (1.0 - z) * s_prev + z * h
            cache.append((s_prev, s_m, z, r, h))
        ds_t = dfinal
        for t in reversed(range(T)):
            s_prev, s_m, z, r, h = cache[t]
            da_h = ds_t * z * (1.0 - h * h)
            dsr = W[2] @ da_h
            da = np.stack([ds_t * (h - s_prev) * z * (1.0 - z),
                           dsr * s_m * r * (1.0 - r),
                           da_h])
            s_in = np.stack([s_m, s_m, s_m * r])
            grads["U"] += x[t][:, None] * da[:, None, :]
            grads["W"] += s_in[:, :, None] * da[:, None, :]
            ds_m = dsr * r + W[1] @ da[1] + W[0] @ da[0]
            ds_t = ds_t * (1.0 - z) + (ds_m * mask if mask is not None else ds_m)
        return s, grads
    b = cell.b.value
    grads["b"] = np.zeros_like(b)
    h, c, cache = np.zeros(H), np.zeros(H), []
    for t in range(T):
        h_prev = h * mask if mask is not None else h
        a = x[t] @ U + h_prev @ W + b
        i, f, o = sigmoid(a[:3])
        g = np.tanh(a[3])
        c_prev, c = c, f * c + i * g
        tc = np.tanh(c)
        h = o * tc
        cache.append((h_prev, c_prev, i, f, o, g, tc))
    dh, dc = dfinal, np.zeros(H)
    for t in reversed(range(T)):
        h_prev, c_prev, i, f, o, g, tc = cache[t]
        dc = dc + dh * o * (1.0 - tc * tc)
        da = np.stack([dc * g * i * (1.0 - i),
                       dc * c_prev * f * (1.0 - f),
                       dh * tc * o * (1.0 - o),
                       dc * i * (1.0 - g * g)])
        grads["U"] += x[t][:, None] * da[:, None, :]
        grads["W"] += h_prev[:, None] * da[:, None, :]
        grads["b"] += da
        dh_prev = (da[:, None, :] @ W.transpose(0, 2, 1))[:, 0].sum(axis=0)
        dh, dc = (dh_prev * mask if mask is not None else dh_prev), dc * f
    return h, grads
