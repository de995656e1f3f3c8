"""Acceptance suite: one test per exit criterion, each printing a
PASS/FAIL line (run with -s to watch them stream).

Everything here uses the bundled fixtures under data/ and runs offline.
"""

import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from deepconn.baseline import RatingMatrix, item_similarity, predict_cf_with_source
from deepconn.cli import EXIT_OK, main
from deepconn.gradcheck import standard_checks
from deepconn.ingest import ReviewRecord, parse_reviews_file, split_dataset
from deepconn.model import DeepConn, ModelConfig, TowerConfig
from deepconn.text import load_embeddings
from deepconn.train import (DocumentStore, TrainReport, evaluate, fit,
                            load_checkpoint, mean_predictor_mse,
                            pairs_from_records)

from fm_oracle import check_random_fm_head
from micro import make_micro_dataset
from test_baseline import check_cf_matches_brute_force
from test_model import (check_baseline_replica_stack, check_comparison_cnn_stack,
                        check_comparison_recurrent_stack)


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({name}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({name}): PASS")


def test_criterion_1_gradient_verification():
    with criterion(1, "gradient verification"):
        started = time.monotonic()
        results = standard_checks(eps=1e-5, seed=0)
        elapsed = time.monotonic() - started
        names = [name for name, _ in results]
        for required in ("dense", "conv1d", "maxpool_over_time",
                         "dropout_fixed_mask", "gru_3step", "lstm_3step",
                         "dp_head", "fm_head", "full_model_cnn_dp"):
            assert required in names
        for name, err in results:
            assert err < 1e-4, f"{name}: {err}"
        assert elapsed < 60.0


def test_criterion_2_fm_oracle_equivalence():
    with criterion(2, "fm low-rank vs double loop"):
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            half = int(rng.integers(1, 6))       # |z| = 2*half <= 10
            check_random_fm_head(rng, half, int(rng.integers(1, 5)))


def test_criterion_3_overfit_capacity():
    with criterion(3, "overfit capacity on planted bilinear rule"):
        started = time.monotonic()
        pairs, store = make_micro_dataset(n_users=20, n_items=10, noise=0.1,
                                          doc_length=16, dim=8, seed=42)
        tower = TowerConfig(kind="cnn", embedding_dim=8, hidden_units=8,
                            kernel=4, stride=2, dense_units=8, dropout_rate=0.0)
        model = DeepConn(ModelConfig(tower=tower, head="dp"), seed=7)
        # The loss first falls below 0.05 at epoch 23.
        report = fit(model, store, pairs, epochs=100, batch_size=8, seed=1)
        elapsed = time.monotonic() - started
        assert min(e.train_loss for e in report.epochs) < 0.05
        assert elapsed < 300.0


def test_criterion_4_beats_the_mean(sample_reviews_path, toy_embeddings_path):
    with criterion(4, "trained model beats the global-mean predictor"):
        started = time.monotonic()
        records = parse_reviews_file(sample_reviews_path).records
        split = split_dataset(records, 0.81, 0.09, seed=7)  # 90/10 train/test
        table = load_embeddings(toy_embeddings_path, 50)
        store = DocumentStore(split.train + split.validation, table,
                              doc_length=128)
        tower = TowerConfig(kind="cnn", embedding_dim=50, hidden_units=32,
                            kernel=8, stride=6, dense_units=32, dropout_rate=0.0)
        model = DeepConn(ModelConfig(tower=tower, head="dp"), seed=11)
        fit(model, store, pairs_from_records(split.train),
            validation_pairs=pairs_from_records(split.validation),
            epochs=8, batch_size=32, seed=3)
        test_pairs = pairs_from_records(split.test)
        test_mse, _ = evaluate(model, store, test_pairs)
        reference = mean_predictor_mse(test_pairs, store.global_mean)
        elapsed = time.monotonic() - started
        assert test_mse < reference
        assert elapsed < 600.0


def test_criterion_5_cf_baseline_exactness():
    with criterion(5, "cf baseline matches hand values and brute force"):
        # hand fixture: co-raters of (m1, m2) hold vectors [3,4] and [4,3]
        fixture = [ReviewRecord(u, m, float(r), "") for u, m, r in [
            ("u1", "m1", 3), ("u1", "m2", 4), ("u2", "m1", 4),
            ("u2", "m2", 3), ("u3", "m1", 4), ("u3", "m3", 2)]]
        matrix = RatingMatrix(fixture)
        sims = item_similarity(matrix)
        i, j = matrix.item_index["m1"], matrix.item_index["m2"]
        assert abs(sims[i, j] - 0.96) < 1e-12

        # worked weighted average: ratings 4 and 2 at similarities 0.8, 0.2
        worked = [ReviewRecord("u", "m1", 4.0, ""), ReviewRecord("u", "m3", 2.0, ""),
                  ReviewRecord("x", "t", 3.0, "")]
        wm = RatingMatrix(worked)
        ws = np.eye(3)
        t = wm.item_index["t"]
        ws[t, wm.item_index["m1"]] = ws[wm.item_index["m1"], t] = 0.8
        ws[t, wm.item_index["m3"]] = ws[wm.item_index["m3"], t] = 0.2
        assert abs(predict_cf_with_source(wm, ws, "u", "t")[0] - 3.6) < 1e-12

        # brute-force agreement on 100 random 5x5 rating matrices
        check_cf_matches_brute_force(77)


def test_criterion_6_ingestion_fidelity(sample_reviews_path, capsys):
    with criterion(6, "ingestion counts"):
        # frozen counts of the bundled fixture
        result = parse_reviews_file(sample_reviews_path)
        users = {r.user_id for r in result.records}
        items = {r.item_id for r in result.records}
        assert (len(result.records), len(users), len(items)) == (1000, 50, 40)
        assert result.skips == []

        assert main(["stats", "--data", str(sample_reviews_path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "reviews: 1000" in out and "users:   50" in out \
            and "items:   40" in out


def test_criterion_6b_full_dataset_counts_when_supplied():
    path = Path(__file__).resolve().parent.parent / "data" / \
        "reviews_Amazon_Instant_Video_5.json"
    if not path.exists():
        pytest.skip("full Amazon Instant Video 5-core file not bundled "
                    "(place it at data/reviews_Amazon_Instant_Video_5.json)")
    with criterion(6, "full-dataset ingestion counts"):
        result = parse_reviews_file(path)
        users = {r.user_id for r in result.records}
        items = {r.item_id for r in result.records}
        assert (len(result.records), len(users), len(items)) == (39517, 5047, 1782)


def test_criterion_7_determinism(sample_reviews_path, toy_embeddings_path,
                                 tmp_path):
    with criterion(7, "seeded determinism and checkpoint round trip"):
        argv_common = ["--data", str(sample_reviews_path),
                       "--embeddings", str(toy_embeddings_path),
                       "--doc-length", "32", "--hidden-units", "8",
                       "--dense-units", "8", "--dropout", "0.1",
                       "--epochs", "2", "--seed", "9", "--no-timing"]
        outs = [tmp_path / "a", tmp_path / "b"]
        for out in outs:
            assert main(["train", *argv_common, "--out", str(out)]) == EXIT_OK
        assert (outs[0] / "curves.csv").read_bytes() == \
            (outs[1] / "curves.csv").read_bytes()

        report = TrainReport.from_json((outs[0] / "report.json").read_text())
        model = load_checkpoint(outs[0] / "model.ckpt")
        records = parse_reviews_file(sample_reviews_path).records
        split = split_dataset(records, 0.81, 0.09, seed=9)
        table = load_embeddings(toy_embeddings_path, 50)
        store = DocumentStore(split.train + split.validation, table, 32)
        test_mse, _ = evaluate(model, store, pairs_from_records(split.test))
        assert test_mse == report.test_mse  # exact, not approximate


def test_criterion_8_structure_conformance():
    with criterion(8, "preset layer stacks"):
        rng = np.random.default_rng(0)
        check_baseline_replica_stack(rng)
        check_comparison_cnn_stack(rng)
        for kind in ("gru", "lstm"):
            check_comparison_recurrent_stack(kind, rng)


def test_criterion_9_directional_architecture_cost():
    with criterion(9, "wall-clock direction lstm > gru > cnn"):
        pairs, store = make_micro_dataset(n_users=20, n_items=10,
                                          doc_length=24, dim=8, seed=42)
        # The ordering is judged on the median over three rounds of each
        # round's own ratios: the fits a ratio compares ran back to back, so
        # a busy spell on the machine that spans rounds slows both alike.
        # A first, unjudged round warms up: a process's first round ordered
        # lstm below gru about twice as often as its later ones.
        clocks = []
        for _ in range(4):
            clocks.append({})
            for kind in ("cnn", "gru", "lstm"):
                tower = TowerConfig(kind=kind, embedding_dim=8, hidden_units=64,
                                    kernel=4, stride=2, dense_units=8,
                                    dropout_rate=0.0)
                model = DeepConn(ModelConfig(tower=tower, head="dp"), seed=7)
                started = time.monotonic()
                fit(model, store, pairs, epochs=3, batch_size=8, seed=1,
                    record_timing=False)
                clocks[-1][kind] = time.monotonic() - started
        for slow, fast in (("lstm", "gru"), ("gru", "cnn")):
            ratio = np.median([c[slow] / c[fast] for c in clocks[1:]])
            assert ratio > 1.0, (slow, fast, clocks)
