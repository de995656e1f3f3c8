"""The batch-first layers against their per-sample equations.

Every layer, both cells and both heads take a batch; `per_sample` holds
the one-sample oracles.  A batch must give each sample the oracle's
output and input gradient, and the sum over samples of the oracle's
parameter gradients, within BATCH_RTOL of the largest reference entry.
The encoders (the conv and both cells) read token ids through the frozen
embedding table and return no input gradient.  The conv pools over time
itself, so its oracle is `per_sample.conv1d` followed by
`per_sample.maxpool`; with two or more channels its output must match
the oracle's bit for bit (at one channel numpy multiplies the oracle's
strided windows as a matrix-vector product, which rounds differently).
The dense batches of most cases reach the encoders through
`per_sample.table`, and one case feeds them ids as the document store
does: repeated, padded and shared across documents.
Each case first runs an eval-mode forward on another batch, which must
leave nothing that the train forward and backward could pick up.  The
gradient checks run the package's battery, `gradcheck.STANDARD_CASES`,
at B=3, and a few cases the battery leaves out.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import per_sample
from per_sample import table
from deepconn import gradcheck
from deepconn.gradcheck import DEFAULT_THRESHOLD, gradient_check, miniature_model
from deepconn.layers import (CHUNK_ROWS, Conv1d, Dense, Dropout, GruCell, LstmCell,
                             MaxPoolOverTime, chunk_steps)
from deepconn.model import DpHead, FmHead

# Batched sums run in another order than the per-sample ones: max |diff|
# over max |reference| per array.
BATCH_RTOL = 1e-12

seeds = st.integers(0, 2**16)
batch_sizes = st.integers(1, 5)


def _assert_close(actual, reference):
    actual, reference = np.asarray(actual), np.asarray(reference)
    assert actual.shape == reference.shape
    assert np.max(np.abs(actual - reference), initial=0.0) <= \
        BATCH_RTOL * np.max(np.abs(reference), initial=0.0)


def _role(p):
    return p.name.rsplit(".", 1)[1]


def _check(layer, params, batched, oracle, B, exact=False):
    """`batched()` -> (output, input gradients) of the whole batch;
    `oracle(b)` -> (output, input gradients, grads) of sample b.  With
    `exact`, each sample's output must equal the oracle's bit for bit."""
    for p in params:
        p.zero_grad()
    out, dins = batched()
    expected = {_role(p): 0.0 for p in params}
    for b in range(B):
        out_b, dins_b, grads_b = oracle(b)
        if exact:
            np.testing.assert_array_equal(out[b], out_b)
        _assert_close(out[b], out_b)
        for din, din_b in zip(dins, dins_b):
            _assert_close(din[b], din_b)
        for role, grad in grads_b.items():
            expected[role] = expected[role] + grad
    for p in params:
        _assert_close(p.grad, expected[_role(p)])


@given(B=batch_sizes, n_in=st.integers(1, 6), n_out=st.integers(1, 6),
       activation=st.sampled_from(["relu", "tanh", "identity"]), seed=seeds)
@settings(max_examples=30, deadline=None)
def test_dense_matches_per_sample(B, n_in, n_out, activation, seed):
    rng = np.random.default_rng(seed)
    layer = Dense(n_in, n_out, activation, rng)
    x, dout = rng.standard_normal((B, n_in)), rng.standard_normal((B, n_out))
    layer.forward(rng.standard_normal((B + 1, n_in)))  # eval-mode forward

    def batched():
        out = layer.forward(x)
        return out, [layer.backward(dout)]

    def oracle(b):
        out, dx, grads = per_sample.dense(layer, x[b], dout[b])
        return out, [dx], grads

    _check(layer, layer.parameters(), batched, oracle, B)


def conv_pool(layer, x, dpool):
    """`per_sample.conv1d` followed by `per_sample.maxpool` on one (T, d)
    document: its (C,) pooled output and the kernel and bias gradients
    of `dpool`, the gradient of that output."""
    relu, _ = per_sample.conv1d(layer, x, 0.0)
    pooled, drelu, _ = per_sample.maxpool(relu, dpool)
    return pooled, per_sample.conv1d(layer, x, drelu)[1]


def _check_conv_on(layer, ids, matrix, dout, exact):
    """The conv on (B, T) token ids into `matrix` against `conv_pool` on
    each document's rows matrix[ids[b]]."""

    def batched():
        out = layer.forward(ids, matrix)
        assert layer.backward(dout) is None
        return out, []

    def oracle(b):
        out, grads = conv_pool(layer, matrix[ids[b]], dout[b])
        return out, [], grads

    _check(layer, layer.parameters(), batched, oracle, len(ids), exact)


def check_conv(B, K, S, extra, d, C, seed):
    """The conv on a random batch of B documents of K + extra tokens
    against `conv_pool`: each document's pooled output, bit for bit at
    C > 1, and the summed kernel and bias gradients.  An eval-mode forward
    over another batch runs first."""
    rng = np.random.default_rng(seed)
    layer = Conv1d(d, C, kernel=K, stride=S, rng=rng)
    x = rng.standard_normal((B, K + extra, d))
    dout = rng.standard_normal((B, C))
    layer.forward(*table(rng.standard_normal((B + 1, K + extra + 3, d))))
    _check_conv_on(layer, *table(x), dout, exact=C > 1)


@given(B=batch_sizes, K=st.integers(1, 8), S=st.integers(1, 6),
       extra=st.integers(0, 40), d=st.integers(1, 4), C=st.integers(1, 4),
       seed=seeds)
# Batches of several chunks of windows: 4 + 1 documents of L=59, and
# documents longer than a chunk.
@example(B=5, K=2, S=1, extra=58, d=2, C=3, seed=1)
@example(B=3, K=1, S=1, extra=CHUNK_ROWS, d=1, C=2, seed=2)
@settings(max_examples=40, deadline=None)
def test_conv1d_matches_per_sample(B, K, S, extra, d, C, seed):
    check_conv(B, K, S, extra, d, C, seed)


@pytest.mark.parametrize("B,L", [(32, 49), (32, 10), (5, CHUNK_ROWS + 1)])
def test_conv1d_forward_is_one_product_per_document(B, L):
    """However the documents fall into chunks, each document's pooled
    output has the bits of its own (L, K*d) @ (K*d, C) im2col product,
    which the BLAS thread check relies on.  B=32 is a micro-batch of 32
    distinct documents, at the paper's L=49 in 7 chunks of 5 documents or
    fewer, and at the thread check's L=10 in chunks of 25, where one flat
    product per chunk rounds differently."""
    rng = np.random.default_rng(L)
    layer = Conv1d(50, 64, kernel=8, stride=6, rng=rng)
    matrix = _read_only_table(rng, 40, 50)
    ids = _token_ids(rng, B, 8 + 6 * (L - 1), 40)
    out = layer.forward(ids, matrix)
    assert out.shape == (B, 64)
    for b in range(B):
        expected, _ = conv_pool(layer, matrix[ids[b]], np.zeros(64))
        np.testing.assert_array_equal(out[b], expected)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_conv1d_edges_match_the_oracles(seed):
    """Ties, channels that never rise above 0 and a document of pad ids,
    over 10 documents in 3 chunks of windows forward and 3 chunks of
    argmax windows backward.  The table, kernels and bias hold small
    integers, so every sum is exact in any order and equal windows, or
    unequal ones, tie for a channel's maximum; the gradient goes to the
    first.  Channel 0 stays below 0 and channel 1 at 0: neither takes a
    gradient."""
    rng = np.random.default_rng(seed)
    K, S, d, C, L, B = 3, 2, 2, 64, 60, 10
    assert len(range(0, B, chunk_steps(L))) == len(range(0, B, chunk_steps(C))) == 3
    layer = Conv1d(d, C, kernel=K, stride=S, rng=rng)
    layer.kernels.value[:] = rng.integers(-2, 3, (C, K, d))
    layer.bias.value[:] = rng.integers(-3, 4, C)
    layer.bias.value[0], layer.kernels.value[1], layer.bias.value[1] = -100.0, 0.0, 0.0
    matrix = rng.integers(-2, 3, (6, d)).astype(np.float64)
    matrix[0] = 0.0
    matrix.setflags(write=False)
    ids = rng.integers(1, 6, (B, K + S * (L - 1)))
    ids[3] = 0                                           # pad ids only
    dout = rng.standard_normal((B, C))
    _check_conv_on(layer, ids, matrix, dout, exact=True)
    assert not layer.kernels.grad[:2].any() and not layer.bias.grad[:2].any()
    np.testing.assert_array_equal(layer.forward(ids[3:4], matrix)[0],
                                  np.maximum(layer.bias.value, 0.0))
    # The ties are there: some positive maximum is reached by two unequal
    # windows, so taking the last would give another kernel gradient.
    unequal_ties = 0
    for b in range(B):
        x = matrix[ids[b]]
        relu, _ = per_sample.conv1d(layer, x, 0.0)
        for c in np.flatnonzero(relu.max(axis=0) > 0.0):
            tied = np.flatnonzero(relu[:, c] == relu[:, c].max())
            first, last = tied[0], tied[-1]
            unequal_ties += not np.array_equal(x[first * S:first * S + K],
                                               x[last * S:last * S + K])
    assert unequal_ties > 0


@given(B=batch_sizes, L=st.integers(1, 20), C=st.integers(1, 5),
       ties=st.booleans(), seed=seeds)
@settings(max_examples=30, deadline=None)
def test_maxpool_matches_per_sample(B, L, C, ties, seed):
    rng = np.random.default_rng(seed)
    pool = MaxPoolOverTime()
    x = rng.standard_normal((B, L, C))
    if ties:
        x = np.round(x)
    dout = rng.standard_normal((B, C))
    pool.forward(rng.standard_normal((B + 1, L + 2, C)))

    def batched():
        out = pool.forward(x)
        return out, [pool.backward(dout)]

    def oracle(b):
        out, dx, grads = per_sample.maxpool(x[b], dout[b])
        return out, [dx], grads

    _check(pool, [], batched, oracle, B)


@given(B=batch_sizes, n=st.integers(1, 8), rate=st.floats(0.0, 0.9),
       masked=st.booleans(), seed=seeds)
@settings(max_examples=30, deadline=None)
def test_dropout_matches_per_sample(B, n, rate, masked, seed):
    rng = np.random.default_rng(seed)
    drop = Dropout()
    x, dout = rng.standard_normal((B, n)), rng.standard_normal((B, n))
    mask = (rng.random((B, n)) >= rate) / (1.0 - rate)
    drop.forward(rng.standard_normal((B + 1, n)))
    if masked:
        drop.forward(x, mask)  # a train forward whose backward never ran

    def batched():
        out = drop.forward(x, mask if masked else None)
        return out, [drop.backward(dout)]

    def oracle(b):
        if not masked:
            return x[b], [dout[b]], {}
        out, dx, grads = per_sample.dropout(x[b], mask[b], dout[b])
        return out, [dx], grads

    _check(drop, [], batched, oracle, B)


def _check_cell_on(cell, ids, matrix, dh, mask):
    """The cell on (B, T) token ids into `matrix`, under a (B, H) mask or
    None, against `per_sample.cell_unroll` on each document's rows
    matrix[ids[b]]."""

    def batched():
        out = cell.forward(ids, matrix, mask)
        assert cell.backward(dh) is None
        return out, []

    def oracle(b):
        h, grads = per_sample.cell_unroll(
            cell, matrix[ids[b]], dh[b], None if mask is None else mask[b])
        return h, [], grads

    stacked = [cell.U, cell.W] + ([cell.b] if isinstance(cell, LstmCell) else [])
    _check(cell, stacked, batched, oracle, len(ids))


def check_cell(cell_cls, B, T, d, H, masked, eval_T, seed):
    """The cell on a random (B, T, d) batch, masked or not, against
    `per_sample.cell_unroll`: each sample's final hidden vector and the
    summed stacked gradients.  An eval-mode forward over another batch of
    length eval_T runs first."""
    rng = np.random.default_rng(seed)
    cell = cell_cls(d, H, rng=rng)
    x, dh = rng.standard_normal((B, T, d)), rng.standard_normal((B, H))
    mask = (rng.random((B, H)) >= 0.3) / 0.7 if masked else None
    cell.forward(*table(rng.standard_normal((B + 1, eval_T, d))))
    _check_cell_on(cell, *table(x), dh, mask)


@pytest.mark.parametrize("cell_cls", [GruCell, LstmCell])
@given(B=batch_sizes, T=st.integers(1, 120), d=st.integers(1, 6),
       H=st.integers(1, 8), masked=st.booleans(), eval_T=st.integers(1, 60),
       seed=seeds)
@settings(max_examples=40, deadline=None)
def test_cell_matches_per_sample(cell_cls, B, T, d, H, masked, eval_T, seed):
    check_cell(cell_cls, B, T, d, H, masked, eval_T, seed)


def _token_ids(rng, B, T, V, min_real=0):
    """(B, T) ids into a V-row table, as the store hands them to a tower:
    with V small they repeat within a document and are shared across
    documents, and each document ends in pad ids (row 0) after at least
    `min_real` real ones."""
    ids = rng.integers(1, V, (B, T))
    for b in range(B):
        ids[b, rng.integers(min_real, T + 1):] = 0
    return ids


def _read_only_table(rng, V, d):
    """A (V, d) table whose row 0 is the zero pad row, frozen like the
    store's."""
    matrix = rng.standard_normal((V, d))
    matrix[0] = 0.0
    matrix.setflags(write=False)
    return matrix


@pytest.mark.parametrize("kind", ["conv1d", "gru", "lstm"])
@given(B=batch_sizes, T=st.integers(8, 120), V=st.integers(2, 6),
       d=st.integers(1, 4), H=st.integers(1, 5), K=st.integers(1, 8),
       S=st.integers(1, 6), masked=st.booleans(), seed=seeds)
@settings(max_examples=25, deadline=None)
def test_encoders_read_shared_token_ids(kind, B, T, V, d, H, K, S, masked, seed):
    """Each document b of a (B, T) id batch gets the oracle's output on
    its gathered rows matrix[ids[b]], and the weight gradients are the
    oracle's summed over the documents.  `masked` gives the cells a
    recurrent-dropout mask; the conv takes none."""
    rng = np.random.default_rng(seed)
    matrix = _read_only_table(rng, V, d)
    ids = _token_ids(rng, B, T, V)
    if kind == "conv1d":
        layer = Conv1d(d, H, kernel=K, stride=S, rng=rng)
        _check_conv_on(layer, ids, matrix, rng.standard_normal((B, H)), exact=H > 1)
    else:
        cell = (GruCell if kind == "gru" else LstmCell)(d, H, rng=rng)
        dh = rng.standard_normal((B, H))
        mask = (rng.random((B, H)) >= 0.3) / 0.7 if masked else None
        _check_cell_on(cell, ids, matrix, dh, mask)


@given(B=batch_sizes, m=st.integers(1, 5), pure_dot=st.booleans(), seed=seeds)
@settings(max_examples=30, deadline=None)
def test_dp_head_matches_per_sample(B, m, pure_dot, seed):
    rng = np.random.default_rng(seed)
    head = DpHead(m, pure_dot=pure_dot)
    head.beta0.value[...] = rng.standard_normal()
    head.w.value[:] = rng.standard_normal(2 * m)
    x_u, x_i = rng.standard_normal((B, m)), rng.standard_normal((B, m))
    dy = rng.standard_normal(B)
    head.predict(x_u[:1], x_i[:1])

    def batched():
        y = head.predict(x_u, x_i)
        return y, list(head.backward(dy))

    _check(head, head.parameters(), batched,
           lambda b: per_sample.dp_head(head, x_u[b], x_i[b], dy[b]), B)


@given(B=batch_sizes, m=st.integers(1, 5), rank=st.integers(1, 3), seed=seeds)
@settings(max_examples=30, deadline=None)
def test_fm_head_matches_per_sample(B, m, rank, seed):
    rng = np.random.default_rng(seed)
    head = FmHead(m, rank, rng)
    head.beta0.value[...] = rng.standard_normal()
    head.w.value[:] = rng.standard_normal(2 * m)
    x_u, x_i = rng.standard_normal((B, m)), rng.standard_normal((B, m))
    dy = rng.standard_normal(B)
    head.predict(x_u[:1], x_i[:1])

    def batched():
        y = head.predict(x_u, x_i)
        return y, list(head.backward(dy))

    def oracle(b):
        y, dz, grads = per_sample.fm_head(head, np.concatenate([x_u[b], x_i[b]]), dy[b])
        return y, [dz[:m], dz[m:]], grads

    _check(head, head.parameters(), batched, oracle, B)


# Gradient checks at B=3: the package's battery, then the cases the CLI
# leaves out: cells whose unroll spans one and two chunk boundaries, full
# models whose documents share one small table, full models whose pairs
# share documents, and a conv and a full CNN model whose documents span
# two chunks of windows.
B = 3


def _chunked_cell_case(cell_cls, T, rng):
    cell = cell_cls(2, 3, rng=rng)
    ids, matrix = table(rng.standard_normal((B, T, 2)))
    mask = (rng.random((B, 3)) >= 0.3) / 0.7
    return gradcheck._summed(lambda: cell.forward(ids, matrix, mask), cell.backward,
                             rng.standard_normal((B, 3))), cell.parameters()


# Conv positions at which the B documents span two chunks of windows,
# and the document length that gives them at kernel 4 and stride 2.
CHUNKED_L = CHUNK_ROWS // (B - 1)
CHUNKED_T = 4 + 2 * (CHUNKED_L - 1)


def _chunked_conv_case(rng):
    layer = Conv1d(2, 3, kernel=4, stride=2, rng=rng)
    ids, matrix = table(rng.standard_normal((B, CHUNKED_T, 2)))
    return gradcheck._summed(lambda: layer.forward(ids, matrix), layer.backward,
                             rng.standard_normal((B, 3))), layer.parameters()


def _shared_rows_case(kind, rng, T=12):
    """A full model whose user and item documents read one 5-row table:
    every id repeats, rows are shared across documents and towers, and
    the documents end in pad ids.  At most 3 pad ids keep a real row in
    every conv window (kernel 4): a window of pad rows sits on ReLU's
    kink, where a central difference is off."""
    model = miniature_model(kind, "fm", seed=int(rng.integers(1 << 30)))
    matrix = _read_only_table(rng, 5, 8)
    ids = _token_ids(rng, 2 * B, T, 5, min_real=T - 3)
    return gradcheck._summed(lambda: model.forward(ids[:B], ids[B:], matrix),
                             model.backward, rng.standard_normal(B)), model.parameters()


def _repeated_documents_case(kind, rng):
    """A full model whose three pairs read two users' and two items'
    documents, as `fit` hands them over: the gradients of pairs that share
    a document add up in its row before the encoder's backward."""
    model = miniature_model(kind, "fm", seed=int(rng.integers(1 << 30)))
    ids, matrix = gradcheck._documents(rng, 4, 12, 8)
    user_rows, item_rows = np.array([0, 1, 0]), np.array([1, 1, 0])
    return gradcheck._summed(
        lambda: model.forward(ids[:2], ids[2:], matrix, None, user_rows, item_rows),
        model.backward, rng.standard_normal(B)), model.parameters()


EXTRA_CASES = (
    lambda rng: _chunked_cell_case(GruCell, chunk_steps(B) + 3, rng),
    lambda rng: _chunked_cell_case(LstmCell, chunk_steps(B) + 3, rng),
    lambda rng: _chunked_cell_case(LstmCell, 2 * chunk_steps(B) + 3, rng),
    lambda rng: _shared_rows_case("cnn", rng),
    lambda rng: _shared_rows_case("gru", rng),
    lambda rng: _shared_rows_case("lstm", rng),
    lambda rng: _repeated_documents_case("cnn", rng),
    lambda rng: _repeated_documents_case("gru", rng),
    lambda rng: _repeated_documents_case("lstm", rng),
    _chunked_conv_case,
    lambda rng: _shared_rows_case("cnn", rng, CHUNKED_T),
)


# ids: the battery's cases in STANDARD_CASES order, then the extras.
@pytest.mark.parametrize(
    "build", [build for _, build in gradcheck.STANDARD_CASES] + list(EXTRA_CASES),
    ids=["dense", "conv1d", "maxpool", "dropout", "gru_masked_3", "lstm_masked_3",
         "dp_head", "fm_head", "full_cnn_dp", "full_gru_fm", "full_lstm_dp",
         "gru_masked_chunk+3", "lstm_masked_chunk+3", "lstm_masked_2chunks+3",
         "full_cnn_fm_shared_rows", "full_gru_fm_shared_rows",
         "full_lstm_fm_shared_rows", "full_cnn_fm_repeated_documents",
         "full_gru_fm_repeated_documents", "full_lstm_fm_repeated_documents",
         "conv1d_2chunks", "full_cnn_fm_shared_rows_2chunks"])
def test_gradient_check_at_batch_of_three(build, monkeypatch):
    monkeypatch.setattr(gradcheck, "BATCH", B)
    loss_fn, params = build(np.random.default_rng(5))
    assert gradient_check(loss_fn, params) < DEFAULT_THRESHOLD
