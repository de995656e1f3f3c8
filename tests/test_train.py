import json
import re
import struct
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from deepconn import text as text_module
from deepconn.errors import (CheckpointError, ConfigError, NumericFault,
                             ShapeError, UnknownEntityError)
from deepconn.gradcheck import miniature_model
from deepconn.ingest import ReviewRecord, group_reviews, split_dataset
from deepconn.layers import Layer
from deepconn.model import DeepConn, ModelConfig, TowerConfig, build_config, mse
from deepconn.synthetic import make_sample_corpus, make_token_vectors
from deepconn.text import OOV_POLICIES, EmbeddingTable, build_document, embed
from deepconn.train import (CHECKPOINT_MAGIC, MICRO_BATCH, DocumentStore,
                            RatedPair, TrainReport, evaluate, fit, load_checkpoint,
                            mean_predictor_mse, pairs_from_records,
                            restore_parameters, save_checkpoint)

from micro import make_micro_dataset, store_from_documents


def _tiny_setup(seed=0, n_users=6, n_items=4, T=10, dim=8):
    rng = np.random.default_rng(seed)
    users = {f"u{k}": rng.standard_normal((T, dim)) for k in range(n_users)}
    items = {f"m{k}": rng.standard_normal((T, dim)) for k in range(n_items)}
    pairs = [RatedPair(f"u{u}", f"m{i}", float(rng.uniform(1, 5)))
             for u in range(n_users) for i in range(n_items)]
    mean = float(np.mean([p.rating for p in pairs]))
    return (miniature_model(seed=seed),
            store_from_documents(users, items, mean), pairs)


def _text_store(T=12, dim=8):
    records = make_sample_corpus(n_reviews=60, n_users=8, n_items=6, seed=3)
    table = EmbeddingTable(dim, make_token_vectors(dim=dim, seed=4))
    return records, table, DocumentStore(records, table, doc_length=T)


def _per_pair_evaluate(model, store, pairs):
    """evaluate() as one model.predict per pair: the reference for its
    encode-each-entity-once loop."""
    counters = {"predicted": 0, "cold_start_user": 0, "cold_start_item": 0}
    preds = []
    for p in pairs:
        if not store.has_user(p.user_id):
            counters["cold_start_user"] += 1
            preds.append(store.global_mean)
        elif not store.has_item(p.item_id):
            counters["cold_start_item"] += 1
            preds.append(store.global_mean)
        else:
            counters["predicted"] += 1
            preds.append(model.predict(store.user_embedding(p.user_id),
                                       store.item_embedding(p.item_id)))
    return mse(preds, [p.rating for p in pairs]), counters


class TestDocumentStore:
    def test_documents_from_training_corpus(self):
        table = EmbeddingTable(3, {"good": [1.0, 0.0, 0.0],
                                   "bad": [0.0, 1.0, 0.0]})
        records = [ReviewRecord("u1", "m1", 5.0, "good good"),
                   ReviewRecord("u1", "m2", 1.0, "bad"),
                   ReviewRecord("u2", "m1", 4.0, "good")]
        store = DocumentStore(records, table, doc_length=4)
        assert store.has_user("u1") and store.has_item("m2")
        assert not store.has_user("u3")
        assert store.user_embedding("u1").shape == (4, 3)
        # u1's document concatenates both reviews in input order
        npt.assert_array_equal(store.user_embedding("u1")[:3, 0], [1, 1, 0])
        npt.assert_array_equal(store.user_embedding("u1")[2, 1], 1.0)
        assert store.global_mean == pytest.approx(10.0 / 3.0)

    def test_keeps_int32_ids_not_matrices(self):
        records, _, store = _text_store(T=12)
        docs = (list(store._user_documents.values())
                + list(store._item_documents.values()))
        assert len(docs) == 8 + 6
        assert all(doc.ids.dtype == np.int32 for doc in docs)
        assert sum(doc.ids.nbytes for doc in docs) <= len(docs) * 12 * 4

    def test_embedding_is_the_embedded_document(self):
        records, table, store = _text_store(T=12)
        groups = group_reviews(records)
        for by_entity, embedding in ((groups.by_user, store.user_embedding),
                                     (groups.by_item, store.item_embedding)):
            for entity_id, reviews in by_entity.items():
                doc = build_document([text for _, text in reviews], 12, table)
                npt.assert_array_equal(embedding(entity_id), embed(doc, table))
        # every call gathers a fresh matrix, so writing to one is harmless
        store.user_embedding("user000")[...] = 7.0
        assert not np.any(store.user_embedding("user000") == 7.0)

    def test_tokens_are_the_documents_ids(self):
        records, table, store = _text_store(T=12)
        tokens = store.item_tokens(["item003", "item000", "item003"])
        assert tokens.shape == (3, 12) and tokens.dtype == np.int32
        for row, item_id in zip(tokens, ["item003", "item000", "item003"]):
            npt.assert_array_equal(table.matrix[row], store.item_embedding(item_id))

    def test_tokenizes_each_needed_text_once(self, monkeypatch):
        records = make_sample_corpus(n_reviews=60, n_users=8, n_items=6, seed=3)
        # one text in four documents: a copy of the first record's text
        # leads user007's and item005's
        records.insert(0, ReviewRecord("user007", "item005", 2.0, records[0].text))
        tokenize = text_module.tokenize
        needed = set()   # texts up to the one that fills the document
        groups = group_reviews(records)
        for by_entity in (groups.by_user, groups.by_item):
            for reviews in by_entity.values():
                n_tokens = 0
                for _, review in reviews:
                    needed.add(review)
                    n_tokens += len(tokenize(review))
                    if n_tokens >= 12:
                        break
        calls = []
        monkeypatch.setattr(text_module, "tokenize",
                            lambda review: calls.append(review) or tokenize(review))
        DocumentStore(records, EmbeddingTable(8, make_token_vectors(dim=8, seed=4)),
                      doc_length=12)
        assert sorted(calls) == sorted(needed)
        assert len(needed) < len(records)

    @pytest.mark.parametrize("oov_policy", OOV_POLICIES)
    def test_documents_are_the_memo_less_documents(self, oov_policy):
        # half the vocabulary is out of the table, and one text leads five
        # documents, twice in item001's
        vectors = make_token_vectors(dim=8, seed=4)
        table = EmbeddingTable(8, dict(list(vectors.items())[::2]), oov_policy=oov_policy)
        shared = "unheard good film unheard bad"
        records = [ReviewRecord(u, m, 4.0, shared)
                   for u, m in (("user000", "item001"), ("user003", "item001"),
                                ("user005", "item004"))]
        records += make_sample_corpus(n_reviews=60, n_users=8, n_items=6, seed=3)
        store = DocumentStore(records, table, doc_length=150)
        groups = group_reviews(records)
        for by_entity, documents in ((groups.by_user, store._user_documents),
                                     (groups.by_item, store._item_documents)):
            assert documents.keys() == by_entity.keys()
            for entity_id, reviews in by_entity.items():
                expected = build_document([t for _, t in reviews], 150, table,
                                          owner=entity_id)
                doc = documents[entity_id]
                npt.assert_array_equal(doc.ids, expected.ids)
                assert (doc.n_real_tokens, doc.owner) == (expected.n_real_tokens, entity_id)
        # some documents are cut at T, some padded
        assert {doc.n_real_tokens < 150 for doc in store._item_documents.values()} \
            | {doc.n_real_tokens < 150 for doc in store._user_documents.values()} \
            == {True, False}

    def test_from_documents_reads_the_matrices_back(self):
        rng = np.random.default_rng(2)
        users = {"a": rng.standard_normal((3, 2)), "b": rng.standard_normal((3, 2))}
        items = {"a": rng.standard_normal((3, 2))}  # ids are per kind
        store = store_from_documents(users, items, 3.5)
        assert store.table.matrix.shape == (1 + 9, 2)
        for accessor, docs in ((store.user_embedding, users),
                               (store.item_embedding, items)):
            for entity_id, matrix in docs.items():
                npt.assert_array_equal(accessor(entity_id), matrix)
        npt.assert_array_equal(store.user_tokens(["b", "a"]), [[4, 5, 6], [1, 2, 3]])
        assert store.global_mean == 3.5 and not store.has_user("c")


class TestFit:
    def test_one_epoch_one_batch_is_one_step(self):
        model, store, pairs = _tiny_setup()
        report = fit(model, store, pairs[:8], epochs=1, batch_size=8, seed=1)
        assert report.optimizer_steps == 1
        assert len(report.epochs) == 1

    def test_epoch_accounting_and_monotone_seconds(self):
        model, store, pairs = _tiny_setup()
        report = fit(model, store, pairs, epochs=3, batch_size=4, seed=2)
        assert [e.epoch for e in report.epochs] == [1, 2, 3]
        seconds = [e.seconds for e in report.epochs]
        assert all(b >= a for a, b in zip(seconds, seconds[1:]))

    def test_identical_seeds_identical_losses(self):
        losses = []
        for _ in range(2):
            model, store, pairs = _tiny_setup(seed=3)
            report = fit(model, store, pairs, epochs=4, batch_size=4, seed=9)
            losses.append([e.train_loss for e in report.epochs])
        assert losses[0] == losses[1]  # bit-identical

    def test_validation_tracking_and_best_epoch(self):
        model, store, pairs = _tiny_setup(seed=4)
        report = fit(model, store, pairs[:16], validation_pairs=pairs[16:],
                     epochs=5, batch_size=4, seed=5)
        assert all(e.validation_loss is not None for e in report.epochs)
        best = min(report.epochs, key=lambda e: e.validation_loss)
        assert report.best_validation_epoch == best.epoch
        assert report.best_parameters is not None
        restore_parameters(model, report.best_parameters)
        val, _ = evaluate(model, store, pairs[16:])
        assert val == pytest.approx(best.validation_loss)

    def test_no_validation_leaves_fields_none(self):
        model, store, pairs = _tiny_setup(seed=6)
        report = fit(model, store, pairs, epochs=2, batch_size=8, seed=3)
        assert all(e.validation_loss is None for e in report.epochs)
        assert report.best_validation_epoch is None

    def test_zero_epochs_runs_nothing(self):
        model, store, pairs = _tiny_setup(seed=7)
        before = [p.value.copy() for p in model.parameters()]
        report = fit(model, store, pairs, epochs=0, batch_size=8, seed=0)
        assert report.epochs == [] and report.optimizer_steps == 0
        for p, v in zip(model.parameters(), before):
            npt.assert_array_equal(p.value, v)

    def test_record_timing_off_zeroes_seconds(self):
        model, store, pairs = _tiny_setup(seed=8)
        report = fit(model, store, pairs, epochs=2, batch_size=8, seed=0,
                     record_timing=False)
        assert all(e.seconds == 0.0 for e in report.epochs)

    def test_training_reduces_loss_on_planted_rule(self):
        pairs, store = make_micro_dataset(seed=5)
        model = miniature_model(seed=5)
        report = fit(model, store, pairs, epochs=25, batch_size=8, seed=6)
        first, last = report.epochs[0].train_loss, report.epochs[-1].train_loss
        assert last < first * 0.5

    def test_loss_monotone_over_ten_epoch_windows(self):
        pairs, store = make_micro_dataset(seed=42)
        model = miniature_model(seed=7)
        report = fit(model, store, pairs, epochs=80, batch_size=8, seed=1)
        losses = np.array([e.train_loss for e in report.epochs])
        windows = losses.reshape(8, 10).mean(axis=1)
        assert all(b <= a for a, b in zip(windows, windows[1:]))

    def test_embeddings_frozen_through_training(self):
        table = EmbeddingTable(4, {"good": [1.0, 0, 0, 0], "bad": [0, 1.0, 0, 0],
                                   "film": [0, 0, 1.0, 0]})
        records = [ReviewRecord(f"u{k}", f"m{k % 2}", float(1 + k % 5),
                                "good bad film good") for k in range(8)]
        store = DocumentStore(records, table, doc_length=6)
        before = table.matrix.tobytes()
        config = ModelConfig(tower=TowerConfig(
            kind="cnn", embedding_dim=4, hidden_units=4, kernel=2, stride=1,
            dense_units=4, dropout_rate=0.0), head="dp")
        model = DeepConn(config, seed=3)
        fit(model, store, pairs_from_records(records), epochs=3,
            batch_size=4, seed=2)
        assert table.matrix.tobytes() == before

    def test_non_finite_parameter_faults_with_context(self):
        model, store, pairs = _tiny_setup(seed=9)
        model.parameters()[0].value[...] = np.nan
        with pytest.raises(NumericFault, match="epoch 1") as info:
            fit(model, store, pairs, epochs=1, batch_size=8, seed=0)
        found = re.search(r"batch at 0, pair (\d+) \(user '(\w+)', item '(\w+)'\)",
                          str(info.value))
        assert found, str(info.value)
        pair = pairs[int(found.group(1))]
        assert (pair.user_id, pair.item_id) == found.group(2, 3)

    def test_non_finite_prediction_names_its_pair_within_the_micro_batch(self):
        # MICRO_BATCH pairs of as many users and one item: the shuffled
        # order (fit's recipe) puts pair `bad` 21st in the one micro-batch,
        # and only its user's document is not finite.
        model, store, pairs = _tiny_setup(seed=23, n_users=MICRO_BATCH, n_items=1)
        shuffle_seq, _ = np.random.SeedSequence(4).spawn(2)
        bad = int(np.random.default_rng(shuffle_seq).permutation(len(pairs))[20])
        matrix = store.table.matrix.copy()
        matrix[store.user_tokens([pairs[bad].user_id])] = np.inf
        store.table.matrix = matrix
        with pytest.raises(NumericFault,
                           match=rf"epoch 1, batch at 0, pair {bad} \(user "
                                 rf"'{pairs[bad].user_id}', item 'm0'\)"), \
                np.errstate(invalid="ignore"):
            fit(model, store, pairs, epochs=1, batch_size=MICRO_BATCH, seed=4)

    def test_pair_without_a_document_rejected_before_any_step(self):
        model, store, pairs = _tiny_setup(seed=24)
        before = [p.value.copy() for p in model.parameters()]
        for stranger, missing in ((RatedPair("stranger", "m0", 4.0), "user"),
                                  (RatedPair("u0", "nothing", 2.0), "item")):
            with pytest.raises(UnknownEntityError,
                               match=rf"pair {len(pairs)} \(user '{stranger.user_id}', "
                                     rf"item '{stranger.item_id}'\).*its {missing}"):
                fit(model, store, pairs + [stranger], epochs=1, batch_size=8, seed=0)
        for p, v in zip(model.parameters(), before):
            npt.assert_array_equal(p.value, v)

    @pytest.mark.parametrize("kind", ["lstm", "gru"])
    def test_recurrent_fit_at_paper_shapes_keeps_a_small_peak(self, kind):
        # Shaped like the train-lstm benchmark: 32 pairs of 10 users and 8
        # items at T=300, d=50, H=64, FM head, RMSprop, with validation, run
        # as one micro-batch of 32.  The cells gather one chunk of rows at a
        # time from the token ids, forward keeps one state per chunk, and
        # backward re-runs one chunk at a time.
        _assert_small_fit_peak(kind, _shared_corpus())

    @pytest.mark.parametrize("kind", ["lstm", "gru"])
    def test_recurrent_fit_over_32_distinct_documents_keeps_a_small_peak(self, kind):
        # The worst case of the same run: no two of the 32 pairs share a
        # user or an item, so each cell unrolls 32 documents at once.
        _assert_small_fit_peak(kind, _distinct_corpus(), distinct=32)

    @pytest.mark.parametrize("distinct", [None, 32])
    def test_cnn_fit_at_paper_shapes_keeps_a_small_peak(self, distinct):
        # Shaped like the train-cnn benchmark (DP head, Adam), on both
        # corpora above, as one micro-batch of 32.  The conv gathers one
        # chunk of windows at a time and keeps only its (B, C) argmax and
        # pooled output.
        records = _shared_corpus() if distinct is None else _distinct_corpus()
        _assert_small_fit_peak("cnn", records, distinct, head="dp", optimizer="adam")

    def test_empty_training_set_rejected(self):
        model, store, _ = _tiny_setup()
        with pytest.raises(ConfigError):
            fit(model, store, [], epochs=1, batch_size=8, seed=0)


def _shared_corpus():
    """40 records of 10 users and 8 items."""
    return make_sample_corpus(n_reviews=40, n_users=10, n_items=8, seed=11)


def _distinct_corpus():
    """40 records, no two of which share a user or an item."""
    return [ReviewRecord(r.user_id, f"item{k:03d}", r.rating, r.text)
            for k, r in enumerate(make_sample_corpus(
                n_reviews=40, n_users=40, n_items=40, seed=11))]


def _assert_small_fit_peak(kind, records, distinct=None, head="fm",
                           optimizer="rmsprop"):
    """`fit` over the 32 training pairs of a 0.81/0.09 split of 40 records,
    at the paper's shapes, peaks under 5.5 MB of traced allocations."""
    split = split_dataset(records, 0.81, 0.09, seed=11)
    table = EmbeddingTable(50, make_token_vectors(dim=50, seed=11))
    store = DocumentStore(split.train + split.validation, table, doc_length=300)
    config = build_config("comparison", kind=kind, embedding_dim=50, head=head)
    model = DeepConn(config, seed=11)
    train_pairs = pairs_from_records(split.train)
    assert len(train_pairs) == 32 and config.tower.hidden_units == 64
    if distinct is not None:
        assert len({p.user_id for p in train_pairs}) == distinct
        assert len({p.item_id for p in train_pairs}) == distinct
    tracemalloc.start()
    try:
        fit(model, store, train_pairs,
            validation_pairs=pairs_from_records(split.validation),
            optimizer=optimizer, epochs=1, batch_size=32, seed=11)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5.5 * 2**20, f"peak {peak / 2**20:.2f} MB"


class TestEvaluate:
    def test_perfect_oracle_gives_zero(self):
        model, store, pairs = _tiny_setup(seed=10)
        sized = [RatedPair(p.user_id, p.item_id,
                           model.predict(store.user_embedding(p.user_id),
                                         store.item_embedding(p.item_id)))
                 for p in pairs]
        value, counters = evaluate(model, store, sized)
        assert value == pytest.approx(0.0, abs=1e-24)
        assert counters["predicted"] == len(pairs)

    def test_constant_mean_model_matches_variance_identity(self):
        model, store, pairs = _tiny_setup(seed=11)
        targets = np.array([p.rating for p in pairs])
        reference = mean_predictor_mse(pairs, targets.mean())
        assert reference == pytest.approx(float(np.var(targets)))

    def test_cold_start_falls_back_to_global_mean(self):
        model, store, pairs = _tiny_setup(seed=12)
        strange = [RatedPair("nobody", "m0", 4.0), RatedPair("u0", "nothing", 2.0)]
        value, counters = evaluate(model, store, pairs[:2] + strange)
        assert counters["cold_start_user"] == 1
        assert counters["cold_start_item"] == 1
        assert counters["predicted"] == 2
        assert np.isfinite(value)

    def test_side_effect_free(self):
        model, store, pairs = _tiny_setup(seed=13)
        before = [p.value.copy() for p in model.parameters()]
        evaluate(model, store, pairs)
        for p, v in zip(model.parameters(), before):
            npt.assert_array_equal(p.value, v)

    @staticmethod
    def _assert_evaluate_drops_caches(kind, head, pure_dot):
        # A train forward with no backward fills every layer's cache, the
        # head's included; evaluate leaves none of them behind.
        records, _, store = _text_store(T=12)
        tower = TowerConfig(kind=kind, embedding_dim=8, hidden_units=4, kernel=4,
                            stride=2, dense_units=4, dropout_rate=0.3)
        model = DeepConn(ModelConfig(tower=tower, head=head, fm_rank=2,
                                     pure_dot=pure_dot), seed=6)
        layers = [model.head] + [layer for t in (model.user_tower, model.item_tower)
                                 for layer in (t.encoder, t.dropout, t.dense)]
        pairs = pairs_from_records(records)
        model.forward(store.user_tokens([p.user_id for p in pairs[:4]]),
                      store.item_tokens([p.item_id for p in pairs[:4]]),
                      store.table.matrix, np.random.default_rng(0))
        assert all(isinstance(layer, Layer) and layer._cache is not None
                   for layer in layers)
        evaluate(model, store, pairs)
        for layer in layers:
            assert layer._cache is None, layer

    @pytest.mark.parametrize("kind,head,pure_dot", [
        pytest.param(kind, head, pure_dot, id=kind + suffix)
        for kind in ("cnn", "gru", "lstm")
        for head, pure_dot, suffix in (("fm", False, ""), ("dp", False, "-dp"),
                                       ("dp", True, "-dp-pure"))
        if kind != "cnn" or head == "fm"])
    def test_towers_keep_no_layer_cache(self, kind, head, pure_dot):
        # The cnn tower's dp cases are test_head_keeps_no_cache's.
        self._assert_evaluate_drops_caches(kind, head, pure_dot)

    @pytest.mark.parametrize("head,pure_dot", [("dp", False), ("dp", True),
                                               ("fm", False)])
    def test_head_keeps_no_cache(self, head, pure_dot):
        self._assert_evaluate_drops_caches("cnn", head, pure_dot)

    def test_clamp_restricts_range(self):
        model, store, pairs = _tiny_setup(seed=14)
        for p in model.head.parameters():
            p.value[...] = 0.0
        model.head.beta0.value[...] = 99.0
        value, _ = evaluate(model, store, pairs[:4], clamp=True)
        worst = max((5.0 - p.rating) ** 2 for p in pairs[:4])
        assert value <= worst + 1e-12

    def test_empty_pairs_rejected(self):
        model, store, _ = _tiny_setup()
        with pytest.raises(ConfigError):
            evaluate(model, store, [])

    @pytest.mark.parametrize("kind, head", [("cnn", "dp"), ("gru", "fm"),
                                            ("lstm", "dp")])
    def test_bit_identical_to_per_pair_predict(self, kind, head):
        records, _, store = _text_store(T=12)
        config = ModelConfig(tower=TowerConfig(
            kind=kind, embedding_dim=8, hidden_units=4, kernel=4, stride=2,
            dense_units=4, dropout_rate=0.2), head=head, fm_rank=2)
        model = DeepConn(config, seed=5)
        model.head.w.value[:] = 0.1  # exercise the first-order term too
        pairs = pairs_from_records(records) + [
            RatedPair("nobody", "item000", 4.0), RatedPair("user001", "nothing", 2.0),
            RatedPair("nobody", "nothing", 1.0)]
        assert len({p.user_id for p in pairs}) < len(pairs) // 2  # users repeat
        value, counters = evaluate(model, store, pairs)
        assert (value, counters) == _per_pair_evaluate(model, store, pairs)
        assert counters == {"predicted": 60, "cold_start_user": 2,
                            "cold_start_item": 1}


def _config_only(config):
    """A version-1 manifest of no parameters whose model config is `config`."""
    return {"format": "deepconn-checkpoint", "version": 1, "config": config,
            "params": []}


class TestCheckpoint:
    def test_round_trip_bit_identical(self, tmp_path):
        model, store, pairs = _tiny_setup(seed=15)
        fit(model, store, pairs, epochs=1, batch_size=8, seed=1)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        assert loaded.config == model.config
        for a, b in zip(model.parameters(), loaded.parameters()):
            assert a.name == b.name
            npt.assert_array_equal(a.value, b.value)

    def test_round_trip_preserves_evaluate_exactly(self, tmp_path):
        model, store, pairs = _tiny_setup(seed=16)
        fit(model, store, pairs, epochs=2, batch_size=8, seed=2)
        before, _ = evaluate(model, store, pairs)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        after, _ = evaluate(load_checkpoint(path), store, pairs)
        assert before == after

    def test_truncated_file_is_corrupt(self, tmp_path):
        model, _, _ = _tiny_setup(seed=17)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        data = path.read_bytes()
        for cut in (4, 12, len(data) - 5):
            path.write_bytes(data[:cut])
            with pytest.raises(CheckpointError):
                load_checkpoint(path)
        # A manifest length past the end of the file, however large, is a
        # truncated manifest too, not a MemoryError or an OverflowError.
        start = len(CHECKPOINT_MAGIC) + 8
        for length in (2**40, 2**64 - 1):
            path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<Q", length) + data[start:])
            with pytest.raises(CheckpointError, match="truncated manifest$"):
                load_checkpoint(path)

    def test_trailing_garbage_is_corrupt(self, tmp_path):
        model, _, _ = _tiny_setup(seed=18)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        path.write_bytes(path.read_bytes() + b"x")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_failed_write_keeps_previous_checkpoint(self, tmp_path):
        model = miniature_model("gru", seed=3)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        before = path.read_bytes()
        params = model.parameters()
        params[0].value += 1.0
        # Not convertible to float64: the write fails after the manifest and
        # the first few parameters have gone out.
        params[3].value = np.full(params[3].shape, "x", dtype=object)
        with pytest.raises(ValueError):
            save_checkpoint(model, path)
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]

    def test_not_a_checkpoint(self, tmp_path):
        path = tmp_path / "nope.ckpt"
        path.write_bytes(b"hello world, definitely not a checkpoint")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    @pytest.mark.parametrize("manifest, match", [
        (["deepconn-checkpoint", 1], "unknown manifest format"),
        ({"format": "deepconn-checkpoint", "version": 99, "config": {},
          "params": []}, "version 99"),
        ({"format": "deepconn-checkpoint", "version": "1", "config": {},
          "params": []}, "version '1'"),
        ({"format": "deepconn-checkpoint", "config": {}, "params": []},
         "version None"),
        ({"format": "deepconn-checkpoint", "version": 1, "params": []},
         "lacks the key 'config'"),
        ({"format": "deepconn-checkpoint", "version": 1,
          "config": {"tower": {}}}, "lacks the key 'params'"),
        ({"format": "deepconn-checkpoint", "version": 1, "config": {"tower": {}},
          "params": [{"shape": [2]}]}, "lacks the key 'name'"),
        ({"format": "deepconn-checkpoint", "version": 1, "config": {"tower": {}},
          "params": [{"name": "head.w"}]}, "lacks the key 'shape'"),
        ({"format": "deepconn-checkpoint", "version": 1, "config": {},
          "params": []}, "lacks the key 'tower'"),
        ({"format": "deepconn-checkpoint", "version": 1,
          "config": {"tower": {"depth": 3}}, "params": []}, "malformed manifest"),
        ({"format": "deepconn-checkpoint", "version": 1, "config": {},
          "params": [], "crc32": "0"}, "malformed manifest"),
        (_config_only({"tower": {"hidden_units": "4"}}),
         "does not fit: hidden_units must be an integer"),
        (_config_only({"tower": {"hidden_units": 4.0}}),
         "does not fit: hidden_units must be an integer"),
        (_config_only({"tower": {}, "fm_rank": 2.5}),
         "does not fit: fm_rank must be an integer"),
        (_config_only({"tower": {"kind": "rnn"}}), "does not fit: tower kind must be"),
        (_config_only({"tower": {"dropout_rate": True}}),
         "does not fit: dropout_rate must be a number"),
        (_config_only({"tower": {"recurrent_dropout_rate": "0"}}),
         "does not fit: recurrent_dropout_rate must be a number"),
        (_config_only({"tower": {}, "pure_dot": "false"}),
         "does not fit: pure_dot must be true or false"),
    ], ids=["not-object", "version-99", "version-string", "no-version",
            "no-config", "no-params", "no-name", "no-shape", "no-tower",
            "unknown-tower-field", "crc32-not-int", "size-string", "size-float",
            "fm-rank-float", "unknown-kind", "rate-bool", "rate-string",
            "pure-dot-string"])
    def test_malformed_manifest_is_checkpoint_error(self, tmp_path, manifest, match):
        blob = json.dumps(manifest).encode("utf-8")
        path = tmp_path / "model.ckpt"
        path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<Q", len(blob)) + blob)
        with pytest.raises(CheckpointError, match=match):
            load_checkpoint(path)

    def test_mismatched_config_names_parameter(self, tmp_path):
        # The manifest's config says dense_units 6; its parameter list and
        # payload are those of the saved dense_units 4 model.
        model, _, _ = _tiny_setup(seed=19)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        manifest = _split_checkpoint(path)[0]
        manifest["config"]["tower"]["dense_units"] = 6
        _rewrite_manifest(path, manifest)
        with pytest.raises(ShapeError, match="dense"):
            load_checkpoint(path)

    def test_flipped_payload_byte_fails_checksum(self, tmp_path):
        model, _, _ = _tiny_setup(seed=21)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        assert isinstance(_split_checkpoint(path)[0]["crc32"], int)
        data = bytearray(path.read_bytes())
        for offset in (len(data) - 1, len(data) - 8 * 40):  # inside the payload
            flipped = bytearray(data)
            flipped[offset] ^= 0x01
            path.write_bytes(bytes(flipped))
            with pytest.raises(CheckpointError, match="checksum"):
                load_checkpoint(path)

    def test_manifest_without_checksum_loads_bit_exact(self, tmp_path):
        model, _, _ = _tiny_setup(seed=22)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        manifest = _split_checkpoint(path)[0]
        del manifest["crc32"]
        _rewrite_manifest(path, manifest)
        loaded = load_checkpoint(path)
        for a, b in zip(model.parameters(), loaded.parameters()):
            assert a.value.tobytes() == b.value.tobytes()


def _split_checkpoint(path):
    """(manifest dict, parameter payload bytes) of a checkpoint file."""
    raw = path.read_bytes()
    start = len(CHECKPOINT_MAGIC) + 8
    (length,) = struct.unpack("<Q", raw[len(CHECKPOINT_MAGIC):start])
    return json.loads(raw[start:start + length]), raw[start + length:]


def _rewrite_manifest(path, manifest):
    """Replace a checkpoint's manifest, keeping its parameter payload."""
    payload = _split_checkpoint(path)[1]
    blob = json.dumps(manifest).encode("utf-8")
    path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<Q", len(blob)) + blob + payload)


class TestReport:
    def test_curves_csv_shape(self):
        model, store, pairs = _tiny_setup(seed=20)
        report = fit(model, store, pairs[:16], validation_pairs=pairs[16:],
                     epochs=2, batch_size=8, seed=1, record_timing=False)
        csv = report.curves_csv()
        lines = csv.strip().split("\n")
        assert lines[0] == "epoch,train_loss,val_loss,seconds"
        assert len(lines) == 3
        assert lines[1].startswith("1,") and lines[1].endswith(",0.000")

    def test_json_round_trip(self):
        model, store, pairs = _tiny_setup(seed=21)
        report = fit(model, store, pairs, epochs=2, batch_size=8, seed=1)
        report.test_mse = 1.25
        again = TrainReport.from_json(report.to_json())
        assert again.test_mse == 1.25
        assert [e.train_loss for e in again.epochs] == \
            [e.train_loss for e in report.epochs]
        assert again.config == report.config
