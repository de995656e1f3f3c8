"""`evaluate` with the item tower in a forked child: the same bits as one
process, errors that reach the caller, no child left behind and the BLAS
thread count restored."""

import os
import signal
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from deepconn import cli, train
from deepconn.errors import ShapeError
from deepconn.layers import Layer
from deepconn.model import DeepConn, ModelConfig, TowerConfig
from deepconn.synthetic import make_sample_corpus, make_token_vectors
from deepconn.text import EmbeddingTable
from deepconn.train import (DocumentStore, RatedPair, evaluate,
                            pairs_from_records, save_checkpoint)

needs_split = pytest.mark.skipif(
    not hasattr(os, "fork") or train._openblas_threads() is None,
    reason="evaluate splits only with os.fork and a settable OpenBLAS")


@pytest.fixture
def split(monkeypatch):
    """Every evaluate splits, at 2 BLAS threads outside the call; yields the
    list of calls to `_encode_twins`."""
    calls = []
    twins = train._encode_twins

    def counted(*args):
        calls.append(args)
        return twins(*args)
    monkeypatch.setattr(train, "SPLIT_ABOVE", 0)
    monkeypatch.setattr(train, "_encode_twins", counted)
    get, set_ = train._openblas_threads()
    before = get()
    set_(2)
    yield calls
    set_(before)


@contextmanager
def deadline(seconds=60):
    """Fail instead of hanging when the block takes longer than `seconds`."""
    def expire(signum, frame):
        raise TimeoutError(f"no result after {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _setup(kind="cnn", head="dp", seed=5):
    """A text store of 8 users and 6 items at T=12, and a small model."""
    records = make_sample_corpus(n_reviews=60, n_users=8, n_items=6, seed=3)
    table = EmbeddingTable(8, make_token_vectors(dim=8, seed=4))
    store = DocumentStore(records, table, doc_length=12)
    tower = TowerConfig(kind=kind, embedding_dim=8, hidden_units=4, kernel=4,
                        stride=2, dense_units=4, dropout_rate=0.2)
    model = DeepConn(ModelConfig(tower=tower, head=head, fm_rank=2), seed=seed)
    pairs = pairs_from_records(records) + [
        RatedPair("nobody", "item000", 4.0), RatedPair("user001", "nothing", 2.0)]
    return model, store, pairs


def _serial(model, store, pairs, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(train, "SPLIT_ABOVE", 10 ** 9)
        return evaluate(model, store, pairs)


def _assert_no_child_and_two_threads():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert train._openblas_threads()[0]() == 2


@needs_split
class TestSplitMatchesSerial:
    @pytest.mark.parametrize("kind,head", [("cnn", "dp"), ("lstm", "fm"),
                                           ("gru", "dp")])
    def test_bit_identical(self, kind, head, monkeypatch, split):
        model, store, pairs = _setup(kind, head)
        model.head.w.value[:] = 0.1   # the fm head's first-order term
        expected = _serial(model, store, pairs, monkeypatch)
        assert evaluate(model, store, pairs) == expected
        assert expected[1] == {"predicted": 60, "cold_start_user": 1,
                               "cold_start_item": 1}
        assert len(split) == 1

    def test_one_side_over_the_threshold_runs_serial(self, monkeypatch, split):
        model, store, pairs = _setup()
        # 8 distinct users, 6 distinct items: only the user side is over 6.
        monkeypatch.setattr(train, "SPLIT_ABOVE", 6)
        assert evaluate(model, store, pairs) == _serial(model, store, pairs,
                                                        monkeypatch)
        assert split == []

    @pytest.mark.parametrize("missing", ["fork", "blas"])
    def test_without_fork_or_blas_runs_serial(self, monkeypatch, split, missing):
        model, store, pairs = _setup()
        expected = _serial(model, store, pairs, monkeypatch)
        if missing == "fork":
            monkeypatch.delattr(os, "fork")
        else:
            monkeypatch.setattr(train, "_openblas_threads", lambda: None)
        assert evaluate(model, store, pairs) == expected
        assert split == []

    @pytest.mark.parametrize("kind,head", [("cnn", "dp"), ("lstm", "fm"),
                                           ("gru", "dp")])
    def test_drops_every_cache(self, kind, head, split):
        # A train-mode forward fills every cache; the parent's item tower
        # never runs in the split path, so it must drop its own.
        model, store, pairs = _setup(kind, head)
        layers = [model.head] + [layer for t in (model.user_tower, model.item_tower)
                                 for layer in (t.encoder, t.dropout, t.dense)]
        model.forward(store.user_tokens([p.user_id for p in pairs[:4]]),
                      store.item_tokens([p.item_id for p in pairs[:4]]),
                      store.table.matrix, np.random.default_rng(0))
        assert all(isinstance(layer, Layer) and layer._cache is not None
                   for layer in layers)
        evaluate(model, store, pairs)
        assert len(split) == 1
        for layer in layers:
            assert layer._cache is None, layer


def _corrupt(store, side, entity_id, token_id):
    """Point the first token of an entity's document outside the table."""
    documents = store._user_documents if side == "user" else store._item_documents
    ids = documents[entity_id].ids.copy()
    ids[0] = token_id
    documents[entity_id] = replace(documents[entity_id], ids=ids)


@needs_split
class TestSplitFailures:
    @pytest.mark.parametrize("kind", ["cnn", "gru"])
    def test_item_error_reaches_the_caller(self, kind, monkeypatch, split):
        model, store, pairs = _setup(kind)
        _corrupt(store, "item", "item003", 10 ** 6)
        with pytest.raises(Exception) as serial:
            _serial(model, store, pairs, monkeypatch)
        with deadline(), pytest.raises(Exception) as forked:
            evaluate(model, store, pairs)
        assert len(split) == 1
        assert type(forked.value) is type(serial.value) is ShapeError
        assert str(forked.value) == str(serial.value)
        assert str(10 ** 6) in str(forked.value)
        _assert_no_child_and_two_threads()

    def test_user_error_wins(self, monkeypatch, split):
        model, store, pairs = _setup()
        _corrupt(store, "user", "user002", 10 ** 6)
        _corrupt(store, "item", "item003", 2 * 10 ** 6)
        with pytest.raises(ShapeError) as serial:
            _serial(model, store, pairs, monkeypatch)
        with deadline(), pytest.raises(ShapeError) as forked:
            evaluate(model, store, pairs)
        assert str(forked.value) == str(serial.value)
        assert str(10 ** 6) in str(forked.value)
        _assert_no_child_and_two_threads()

    @pytest.mark.parametrize("outcome", ["success", "error", "child killed",
                                         "interrupt"])
    def test_no_child_survives(self, monkeypatch, split, outcome):
        model, store, pairs = _setup()
        parent, encode = os.getpid(), train._encode

        def sabotaged(tower, *args):
            if outcome == "child killed" and os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            if outcome == "interrupt":
                if os.getpid() == parent:
                    raise KeyboardInterrupt
                time.sleep(30)   # the caller must not wait for this child
            return encode(tower, *args)
        monkeypatch.setattr(train, "_encode", sabotaged)
        if outcome == "error":
            _corrupt(store, "item", "item003", 10 ** 6)
        raised = {"success": None, "error": ShapeError,
                  "child killed": ChildProcessError,
                  "interrupt": KeyboardInterrupt}[outcome]
        with deadline(10):
            if raised is None:
                evaluate(model, store, pairs)
            else:
                with pytest.raises(raised) as info:
                    evaluate(model, store, pairs)
        assert len(split) == 1
        if outcome == "child killed":
            assert "SIGKILL" in str(info.value)
        _assert_no_child_and_two_threads()

    def test_failed_fork_closes_its_pipe(self, monkeypatch, split):
        model, store, pairs = _setup()

        def no_fork():
            raise BlockingIOError("fork: resource temporarily unavailable")
        monkeypatch.setattr(os, "fork", no_fork)
        open_fds = len(os.listdir("/proc/self/fd"))
        with pytest.raises(BlockingIOError):
            evaluate(model, store, pairs)
        assert len(os.listdir("/proc/self/fd")) == open_fds
        assert len(split) == 1 and train._openblas_threads()[0]() == 2

    def test_killed_child_is_cli_exit_3(self, sample_reviews_path,
                                        toy_embeddings_path, tmp_path,
                                        monkeypatch, split, capsys):
        config = ModelConfig(tower=TowerConfig(
            kind="cnn", embedding_dim=50, hidden_units=8, kernel=4, stride=2,
            dense_units=8, dropout_rate=0.0))
        checkpoint = tmp_path / "model.ckpt"
        save_checkpoint(DeepConn(config, seed=1), checkpoint)
        parent, encode = os.getpid(), train._encode

        def killed_in_child(*args):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return encode(*args)
        monkeypatch.setattr(train, "_encode", killed_in_child)
        with deadline():
            code = cli.main(["evaluate", "--checkpoint", str(checkpoint),
                             "--data", str(sample_reviews_path),
                             "--embeddings", str(toy_embeddings_path),
                             "--doc-length", "16"])
        assert code == cli.EXIT_IO
        assert "SIGKILL" in capsys.readouterr().err
        assert len(split) == 1
        _assert_no_child_and_two_threads()


# `evaluate` at the paper's CNN shapes (T=300, K=8, S=6: 49-row conv
# products, which OpenBLAS splits across threads).  Prints the fewer of the
# predicted pairs' distinct users and items, then the test MSE.
THREADS_SCRIPT = """
import sys
from deepconn import ingest, model, synthetic, text, train
if sys.argv[1] == "sample":
    records = ingest.parse_reviews_file(sys.argv[2]).records
    table = text.load_embeddings(sys.argv[3], 50)
else:
    records = synthetic.make_sample_corpus(2000, 150, 120, seed=2)
    table = text.EmbeddingTable(50, synthetic.make_token_vectors(dim=50, seed=2))
split = ingest.split_dataset(records, 0.81, 0.09, seed=9)
store = train.DocumentStore(split.train + split.validation, table, 300)
net = model.DeepConn(model.build_config("comparison", kind="cnn",
                                        embedding_dim=50, head="dp"), seed=9)
pairs = [p for p in train.pairs_from_records(split.test)
         if store.has_user(p.user_id) and store.has_item(p.item_id)]
print(min(len({p.user_id for p in pairs}), len({p.item_id for p in pairs})))
print(repr(train.evaluate(net, store, train.pairs_from_records(split.test))[0]))
"""


@needs_split
@pytest.mark.parametrize("corpus", ["sample", "split"])
def test_same_bits_at_one_and_two_blas_threads(corpus, sample_reviews_path,
                                               toy_embeddings_path):
    outputs = []
    for threads in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-c", THREADS_SCRIPT, corpus,
             str(sample_reviews_path), str(toy_embeddings_path)],
            env=dict(os.environ, OPENBLAS_NUM_THREADS=threads),
            capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout.split())
    distinct = int(outputs[0][0])
    if corpus == "sample":
        assert distinct <= train.SPLIT_ABOVE
    else:
        assert distinct > train.SPLIT_ABOVE
    assert outputs[0] == outputs[1]
