import json
import os
import struct
import subprocess
import sys

import pytest

from deepconn.cli import (EXIT_CONFIG, EXIT_IO, EXIT_OK, EXIT_VERIFY, main)
from deepconn.gradcheck import miniature_model
from deepconn.train import CHECKPOINT_MAGIC, TrainReport, save_checkpoint

FAST_MODEL = ["--doc-length", "32", "--hidden-units", "8", "--dense-units", "8",
              "--dropout", "0", "--batch-size", "64"]


def _train_argv(data, emb, out, epochs=1, seed=7, extra=()):
    return (["train", "--data", str(data), "--embeddings", str(emb),
             "--out", str(out), "--epochs", str(epochs), "--seed", str(seed)]
            + FAST_MODEL + list(extra))


class TestStats:
    def test_bundled_fixture_counts(self, sample_reviews_path, capsys):
        assert main(["stats", "--data", str(sample_reviews_path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "reviews: 1000" in out
        assert "users:   50" in out
        assert "items:   40" in out

    def test_empty_file_reports_zeros(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["stats", "--data", str(empty)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "reviews: 0" in out

    def test_unreadable_file_is_io_error(self, tmp_path):
        assert main(["stats", "--data", str(tmp_path / "nope.jsonl")]) == EXIT_IO

    def test_skip_report_goes_to_stderr(self, tmp_path, capsys):
        path = tmp_path / "dirty.jsonl"
        path.write_text('{"reviewerID":"u","asin":"m","reviewText":"x","overall":5}\n'
                        "not json at all\n")
        assert main(["stats", "--data", str(path)]) == EXIT_OK
        captured = capsys.readouterr()
        assert "skipped 1" in captured.err
        assert "reviews: 1" in captured.out


@pytest.mark.parametrize("command", ["train", "evaluate", "baseline", "compare"])
def test_corpus_without_records_is_one_config_error(command, tmp_path,
                                                    toy_embeddings_path, capsys):
    data = tmp_path / "dirty.jsonl"
    data.write_text("not json at all\n")
    checkpoint = tmp_path / "mini.ckpt"
    save_checkpoint(miniature_model("cnn"), checkpoint)
    extra = {"train": ["--embeddings", str(toy_embeddings_path),
                       "--out", str(tmp_path / "run")],
             "evaluate": ["--checkpoint", str(checkpoint), "--dim", "8",
                          "--embeddings", str(toy_embeddings_path)],
             "baseline": [],
             "compare": ["--embeddings", str(toy_embeddings_path)]}[command]
    assert main([command, "--data", str(data)] + extra) == EXIT_CONFIG
    assert f"{data}: no valid records to split" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == sorted([data, checkpoint])   # no run dir


class TestTrain:
    def test_writes_report_curves_checkpoint(self, sample_reviews_path,
                                             toy_embeddings_path, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(_train_argv(sample_reviews_path, toy_embeddings_path, out))
        assert code == EXIT_OK
        assert (out / "report.json").exists()
        assert (out / "curves.csv").exists()
        assert (out / "model.ckpt").exists()
        report = TrainReport.from_json((out / "report.json").read_text())
        assert len(report.epochs) == 1
        assert report.test_mse is not None
        assert report.config["run"]["seed"] == 7

    def test_identical_flags_identical_csvs(self, sample_reviews_path,
                                            toy_embeddings_path, tmp_path, capsys):
        outs = [tmp_path / "a", tmp_path / "b"]
        for out in outs:
            code = main(_train_argv(sample_reviews_path, toy_embeddings_path,
                                    out, epochs=2, extra=["--no-timing"]))
            assert code == EXIT_OK
        assert (outs[0] / "curves.csv").read_bytes() == \
            (outs[1] / "curves.csv").read_bytes()
        assert (outs[0] / "report.json").read_bytes() == \
            (outs[1] / "report.json").read_bytes()

    def test_zero_epochs_is_validation_only(self, sample_reviews_path,
                                            toy_embeddings_path, tmp_path, capsys):
        out = tmp_path / "run0"
        code = main(_train_argv(sample_reviews_path, toy_embeddings_path,
                                out, epochs=0))
        assert code == EXIT_OK
        report = TrainReport.from_json((out / "report.json").read_text())
        assert report.epochs == []
        assert report.optimizer_steps == 0
        assert report.test_mse is not None  # untrained-model evaluation

    def test_invalid_config_lists_every_field(self, sample_reviews_path,
                                              toy_embeddings_path, tmp_path, capsys):
        code = main(["train", "--data", str(sample_reviews_path),
                     "--embeddings", str(toy_embeddings_path),
                     "--out", str(tmp_path / "x"),
                     "--train-fraction", "1.5", "--lr", "-2",
                     "--batch-size", "0", "--doc-length", "0", "--dropout", "2"])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        for field in ("--train-fraction", "--lr", "--batch-size", "--doc-length",
                      "dropout_rate"):
            assert field in err

    @pytest.mark.parametrize("lr", ["nan", "inf"])
    def test_lr_must_be_finite_and_positive(self, tmp_path, capsys, lr):
        # Missing input files: exit 2 means the check ran before any read.
        argv = ["train", "--data", str(tmp_path / "missing.jsonl"),
                "--embeddings", str(tmp_path / "missing.txt"),
                "--out", str(tmp_path / "x"), "--lr", lr]
        assert main(argv) == EXIT_CONFIG
        assert "--lr must be a finite number > 0" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("extra, code", [
        ([], EXIT_CONFIG),                       # the presets' kernel is 8
        (["--kernel", "5"], EXIT_CONFIG),
        (["--kernel", "4"], EXIT_IO),            # valid; then the missing data
        (["--tower", "gru"], EXIT_IO),           # no kernel to fit
    ])
    def test_doc_length_below_kernel_rejected_first(self, tmp_path, capsys,
                                                    extra, code):
        # The input files do not exist, so exit 2 here means the check ran
        # before anything was read.
        argv = ["train", "--data", str(tmp_path / "missing.jsonl"),
                "--embeddings", str(tmp_path / "missing.txt"),
                "--out", str(tmp_path / "x"), "--doc-length", "4"] + extra
        assert main(argv) == code
        if code == EXIT_CONFIG:
            assert "--doc-length 4" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "compare"])
    def test_pure_dot_with_fm_head_rejected_first(self, tmp_path, capsys, command):
        # Knobs that cannot act: --pure-dot with the fm head, recurrent
        # dropout on a cnn tower, conv geometry on a recurrent tower, a rank
        # for the dp head, and a width given twice.  Missing input files
        # again: exit 2 means nothing was read.
        for knob, field in ((["--head", "fm", "--pure-dot"], "pure_dot"),
                            (["--tower", "cnn", "--recurrent-dropout", "0.2"],
                             "recurrent_dropout_rate"),
                            (["--tower", "gru", "--kernel", "4"], "--kernel"),
                            (["--tower", "lstm", "--stride", "2"], "--stride"),
                            (["--fm-rank", "4"], "--fm-rank"),
                            (["--filters", "8", "--hidden-units", "8"], "--filters")):
            argv = [command, "--data", str(tmp_path / "missing.jsonl"),
                    "--embeddings", str(tmp_path / "missing.txt")] + knob
            assert main(argv) == EXIT_CONFIG
            assert field in capsys.readouterr().err

    def test_non_utf8_embedding_file_is_io_error(self, sample_reviews_path,
                                                 tmp_path, capsys):
        emb = tmp_path / "latin1.txt"
        emb.write_bytes("caf\xe9 0.5 0.5\n".encode("latin-1"))
        code = main(_train_argv(sample_reviews_path, emb, tmp_path / "x",
                                extra=["--dim", "2"]))
        assert code == EXIT_IO
        assert f"{emb}: not UTF-8" in capsys.readouterr().err

    def test_grid_tags_echoed(self, sample_reviews_path, toy_embeddings_path,
                              tmp_path, capsys):
        out = tmp_path / "gru_run"
        code = main(_train_argv(sample_reviews_path, toy_embeddings_path, out,
                                extra=["--tower", "gru", "--dropout", "0.1"]))
        assert code == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert report["config"]["run"]["tower"] == "gru"
        assert report["config"]["model"]["tower"]["dropout_rate"] == 0.1
        assert "gru | 50d |" in capsys.readouterr().out


class TestEvaluate:
    def test_round_trip_reproduces_test_mse(self, sample_reviews_path,
                                            toy_embeddings_path, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(_train_argv(sample_reviews_path, toy_embeddings_path,
                                out)) == EXIT_OK
        report = TrainReport.from_json((out / "report.json").read_text())
        capsys.readouterr()
        code = main(["evaluate", "--checkpoint", str(out / "model.ckpt"),
                     "--data", str(sample_reviews_path),
                     "--embeddings", str(toy_embeddings_path),
                     "--doc-length", "32", "--seed", "7"])
        assert code == EXIT_OK
        printed = capsys.readouterr().out
        assert f"test MSE: {report.test_mse:.6f}" in printed
        assert "global-mean reference" in printed

    def test_corrupted_checkpoint_is_io_error(self, sample_reviews_path,
                                              toy_embeddings_path, tmp_path, capsys):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"garbage")
        code = main(["evaluate", "--checkpoint", str(bad),
                     "--data", str(sample_reviews_path),
                     "--embeddings", str(toy_embeddings_path)])
        assert code == EXIT_IO

    def test_dim_mismatch_is_config_error(self, sample_reviews_path,
                                          toy_embeddings_path, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(_train_argv(sample_reviews_path, toy_embeddings_path,
                                out)) == EXIT_OK
        code = main(["evaluate", "--checkpoint", str(out / "model.ckpt"),
                     "--data", str(sample_reviews_path),
                     "--embeddings", str(toy_embeddings_path),
                     "--dim", "100"])
        assert code == EXIT_CONFIG

    def test_doc_length_below_checkpoint_kernel_rejected_first(self, tmp_path,
                                                               capsys):
        checkpoint = tmp_path / "mini.ckpt"
        save_checkpoint(miniature_model("cnn"), checkpoint)  # kernel 4, d=8
        code = main(["evaluate", "--checkpoint", str(checkpoint),
                     "--data", str(tmp_path / "missing.jsonl"),
                     "--embeddings", str(tmp_path / "missing.txt"),
                     "--dim", "8", "--doc-length", "3"])
        assert code == EXIT_CONFIG
        assert "conv kernel (4)" in capsys.readouterr().err

    def test_checkpoint_config_that_does_not_fit_is_io_error(self, tmp_path, capsys):
        model = miniature_model("cnn")
        model.config.tower.hidden_units = "4"  # written to the manifest as is
        checkpoint = tmp_path / "mini.ckpt"
        save_checkpoint(model, checkpoint)
        code = main(["evaluate", "--checkpoint", str(checkpoint),
                     "--data", str(tmp_path / "missing.jsonl"),
                     "--embeddings", str(tmp_path / "missing.txt"), "--dim", "8"])
        assert code == EXIT_IO
        assert f"{checkpoint}: manifest config does not fit: hidden_units" \
            in capsys.readouterr().err

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="needs RLIMIT_AS as Linux applies it")
    def test_checkpoint_config_larger_than_its_file_is_io_error(self, tmp_path):
        # A valid config whose conv kernel alone would take 2.98 GiB, in a
        # 125-byte file that holds no parameter.
        manifest = {"format": "deepconn-checkpoint", "version": 1,
                    "config": {"tower": {"hidden_units": 1000000}}, "params": []}
        blob = json.dumps(manifest).encode("utf-8")
        checkpoint = tmp_path / "huge.ckpt"
        checkpoint.write_bytes(CHECKPOINT_MAGIC + struct.pack("<Q", len(blob)) + blob)
        limited = ("import resource, sys\n"
                   "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
                   "from deepconn.cli import main\n"
                   "sys.exit(main(sys.argv[1:]))\n")
        proc = subprocess.run(
            [sys.executable, "-c", limited, "evaluate", "--checkpoint", str(checkpoint),
             "--data", str(tmp_path / "missing.jsonl"),
             "--embeddings", str(tmp_path / "missing.txt")],
            # One BLAS thread, so that the limit bounds the model, not thread buffers.
            env=dict(os.environ, OPENBLAS_NUM_THREADS="1"),
            capture_output=True, text=True)
        assert proc.returncode == EXIT_IO, proc.stderr
        assert "checkpoint has 0 parameters, its config implies 10" in proc.stderr


class TestBaseline:
    def test_runs_and_is_deterministic(self, sample_reviews_path, capsys):
        outputs = []
        for _ in range(2):
            assert main(["baseline", "--data", str(sample_reviews_path),
                         "--seed", "3"]) == EXIT_OK
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert "item-cf test MSE:" in outputs[0]

    def test_k_must_be_positive(self, sample_reviews_path, capsys):
        assert main(["baseline", "--data", str(sample_reviews_path),
                     "--k", "0"]) == EXIT_CONFIG

    def test_export_sims_writes_text_table(self, sample_reviews_path,
                                           tmp_path, capsys):
        dest = tmp_path / "sims.txt"
        assert main(["baseline", "--data", str(sample_reviews_path),
                     "--export-sims", str(dest)]) == EXIT_OK
        table = dest.read_text()
        assert "item000" in table
        assert "1.0000" in table  # diagonal

    def test_export_sims_failure_leaves_previous_file(self, sample_reviews_path,
                                                     tmp_path, capsys):
        # A lone surrogate is valid in a JSON string but has no UTF-8 form.
        data = tmp_path / "reviews.jsonl"
        data.write_text(sample_reviews_path.read_text().replace(
            '"item000"', '"\\ud800x"'))
        dest = tmp_path / "sims.txt"
        dest.write_bytes(b"previous table\n")
        assert main(["baseline", "--data", str(data),
                     "--export-sims", str(dest)]) == EXIT_IO
        assert "sims.txt" in capsys.readouterr().err
        assert dest.read_bytes() == b"previous table\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["reviews.jsonl",
                                                              "sims.txt"]


class TestCompare:
    def test_prints_all_three_rows(self, sample_reviews_path,
                                   toy_embeddings_path, capsys):
        code = main(["compare", "--data", str(sample_reviews_path),
                     "--embeddings", str(toy_embeddings_path), "--epochs", "1",
                     "--seed", "5"] + FAST_MODEL)
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "deepconn-dp" in out
        assert "item-cf" in out
        assert "global-mean" in out

    def test_split_without_test_records_rejected_before_training(
            self, sample_reviews_path, toy_embeddings_path, capsys, monkeypatch):
        def no_training(*args, **kwargs):
            raise AssertionError("training started")

        monkeypatch.setattr("deepconn.cli.fit", no_training)
        code = main(["compare", "--data", str(sample_reviews_path),
                     "--embeddings", str(toy_embeddings_path),
                     "--train-fraction", "0.9995", "--val-fraction", "0.0004"])
        assert code == EXIT_CONFIG
        assert "sizes 1000/0/0" in capsys.readouterr().err

    def test_takes_no_output_path(self, tmp_path, capsys):
        # compare prints its table and writes no file.
        with pytest.raises(SystemExit) as info:
            main(["compare", "--data", str(tmp_path / "missing.jsonl"),
                  "--embeddings", str(tmp_path / "missing.txt"),
                  "--out", str(tmp_path / "x")])
        assert info.value.code == EXIT_CONFIG
        assert "unrecognized arguments: --out" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()


class TestGradcheckCommand:
    def test_pristine_build_passes(self, capsys):
        assert main(["gradcheck"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.count("PASS") == 11 and "FAIL" not in out

    def test_corrupted_hook_fails_at_five_percent(self, capsys):
        assert main(["gradcheck", "--corrupt-gradients"]) == EXIT_VERIFY
        out = capsys.readouterr().out
        assert out.count("FAIL") == 11
        assert "4.76" in out  # 0.1 / 2.1 relative error

    def test_seed_with_tiny_gradients_passes(self, capsys):
        # full_model_gru_fm holds an entry of 1.5e-7 (user_tower.gru.W_r)
        # beside a loss of 16.0, below what the central difference
        # resolves: without the rounding allowance it reads 6.9e-4.
        assert main(["gradcheck", "--seed", "1346559176"]) == EXIT_OK
        assert capsys.readouterr().out.count("PASS") == 11

    def test_corrupted_hook_fails_every_case_at_other_seed(self, capsys):
        assert main(["gradcheck", "--corrupt-gradients",
                     "--seed", "1346559176"]) == EXIT_VERIFY
        assert capsys.readouterr().out.count("FAIL") == 11

    @pytest.mark.parametrize("flag, value", [
        ("--eps", "0"), ("--eps", "nan"), ("--eps", "inf"),
        ("--threshold", "0"), ("--threshold", "-1"), ("--threshold", "nan")])
    def test_bad_float_flag_rejected_before_probing(self, capsys, monkeypatch,
                                                    flag, value):
        monkeypatch.setattr("deepconn.gradcheck.standard_checks",
                            lambda *args, **kwargs: pytest.fail("probing started"))
        assert main(["gradcheck", flag, value]) == EXIT_CONFIG
        assert f"{flag} must be a finite number > 0" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["gradcheck", "baseline", "stats"])
    def test_negative_seed_rejected_before_any_work(self, sample_reviews_path,
                                                    capsys, monkeypatch, command):
        monkeypatch.setattr("deepconn.gradcheck.standard_checks",
                            lambda *args, **kwargs: pytest.fail("probing started"))
        data = [] if command == "gradcheck" else ["--data", str(sample_reviews_path)]
        assert main([command, *data, "--seed", "-1"]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert "--seed must be >= 0, got -1" in captured.err
        assert captured.out == ""

    def test_threshold_flag(self, capsys):
        # absurdly loose threshold lets even corrupted gradients pass
        assert main(["gradcheck", "--corrupt-gradients",
                     "--threshold", "0.5"]) == EXIT_OK


class TestExportCurves:
    @pytest.mark.parametrize("content", [
        b"not json", b"[1, 2]", b'{"config": {}, "seed": 0}',
        b'{"config": {}, "seed": 0, "epochs": [{"epoch": 1}]}',
        b'{"config": {}, "seed": 0, "epochs": 3}', b"\xff\xfe{}",
        b'{"config": {}, "seed": 0, "epochs": [{"epoch": 1, "train_loss": 1.0, '
        b'"validation_loss": null, "seconds": null}]}',
        b'{"config": {}, "seed": 0, "epochs": [{"epoch": 1e400, "train_loss": 1.0, '
        b'"validation_loss": null, "seconds": 0.0}]}',
    ], ids=["not-json", "not-object", "no-epochs", "epoch-lacks-keys",
            "epochs-not-list", "not-utf8", "seconds-null", "epoch-inf"])
    def test_malformed_report_is_io_error(self, tmp_path, capsys, content):
        report = tmp_path / "report.json"
        report.write_bytes(content)
        code = main(["export-curves", "--report", str(report),
                     "--out", str(tmp_path / "curves.csv")])
        assert code == EXIT_IO
        assert str(report) in capsys.readouterr().err
        assert not (tmp_path / "curves.csv").exists()

    def test_round_trip_equals_original(self, sample_reviews_path,
                                        toy_embeddings_path, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(_train_argv(sample_reviews_path, toy_embeddings_path, out,
                                epochs=2, extra=["--no-timing"])) == EXIT_OK
        dest = tmp_path / "again.csv"
        assert main(["export-curves", "--report", str(out / "report.json"),
                     "--out", str(dest)]) == EXIT_OK
        assert dest.read_bytes() == (out / "curves.csv").read_bytes()


class TestConfigFile:
    def test_config_supplies_defaults_flags_override(self, sample_reviews_path,
                                                     toy_embeddings_path,
                                                     tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epochs": 1, "seed": 11, "doc_length": 32,
                                   "hidden_units": 8, "dense_units": 8,
                                   "dropout": 0.0, "no_timing": True}))
        config = ["--config", str(cfg)]
        # --config goes before or after the command.
        for name, order in (("before", lambda cmd: config + cmd),
                            ("after", lambda cmd: cmd + config)):
            out = tmp_path / name
            command = ["train", "--data", str(sample_reviews_path),
                       "--embeddings", str(toy_embeddings_path),
                       "--out", str(out), "--seed", "3"]  # flag beats config
            assert main(order(command)) == EXIT_OK
            report = TrainReport.from_json((out / "report.json").read_text())
            assert report.seed == 3
            assert report.config["run"]["doc_length"] == 32
            assert len(report.epochs) == 1

    @pytest.mark.parametrize("content", [b'{"epochs": 1', b'{"epochs": "\xe9"}'],
                             ids=["not-json", "not-utf8"])
    def test_unreadable_config_file_rejected(self, tmp_path, capsys, content):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(content)
        assert main(["--config", str(cfg), "gradcheck"]) == EXIT_CONFIG
        assert f"{cfg}: not valid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("command, key, value", [
        ("train", "lr", [1]), ("gradcheck", "eps", [1]), ("gradcheck", "seed", None),
        ("gradcheck", "seed", True), ("gradcheck", "corrupt_gradients", "yes")])
    def test_value_of_wrong_json_type_rejected(self, sample_reviews_path,
                                               toy_embeddings_path, tmp_path,
                                               capsys, command, key, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        out = tmp_path / "run"
        argv = (_train_argv(sample_reviews_path, toy_embeddings_path, out)
                if command == "train" else [command])
        assert main(["--config", str(cfg), *argv]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert f"config key {key!r} cannot take {json.dumps(value)}" in captured.err
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("command, key, value", [
        ("train", "optimizer", "sgd"), ("stats", "split_mode", "weird"),
        ("train", "oov_policy", "nope"), ("train", "tower", "rnn"),
        ("train", "head", "sum"), ("train", "preset", "original")])
    def test_value_outside_the_flag_choices_rejected_first(self, tmp_path, capsys,
                                                           command, key, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        argv = [command, "--data", str(tmp_path / "missing.jsonl")]
        if command == "train":
            argv += ["--embeddings", str(tmp_path / "missing.txt")]
        assert main(["--config", str(cfg), *argv]) == EXIT_CONFIG
        assert f"config key {key!r} cannot take {json.dumps(value)}" \
            in capsys.readouterr().err

    def test_string_value_converted_as_a_flag(self, tmp_path, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr("deepconn.gradcheck.standard_checks",
                            lambda **kwargs: calls.append(kwargs) or [])
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": "3", "eps": "1e-6",
                                   "corrupt_gradients": True}))
        assert main(["--config", str(cfg), "gradcheck"]) == EXIT_OK
        assert calls == [{"eps": 1e-6, "seed": 3, "corrupt": True}]

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"warp_speed": 9}))
        assert main(["--config", str(cfg), "gradcheck"]) == EXIT_CONFIG
        assert "warp_speed" in capsys.readouterr().err


def test_console_entry_point_runs(sample_reviews_path):
    proc = subprocess.run([sys.executable, "-m", "deepconn.cli", "stats",
                           "--data", str(sample_reviews_path)],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "reviews: 1000" in proc.stdout


@pytest.mark.parametrize("model", [
    ["--tower", "cnn", "--doc-length", "64", "--epochs", "2"],
    ["--tower", "lstm", "--doc-length", "16", "--train-fraction", "0.3",
     "--recurrent-dropout", "0.2", "--epochs", "1"],
    # train-lstm's shapes: T=300 and whole mini-batches of 32 pairs.
    ["--tower", "lstm", "--head", "fm", "--optimizer", "rmsprop",
     "--doc-length", "300", "--train-fraction", "0.05", "--val-fraction", "0.01",
     "--epochs", "1"],
    ["--tower", "gru", "--doc-length", "16", "--train-fraction", "0.3",
     "--recurrent-dropout", "0.3", "--epochs", "1"],
])
def test_outputs_identical_across_blas_thread_counts(sample_reviews_path,
                                                     toy_embeddings_path,
                                                     tmp_path, model):
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        proc = subprocess.run(
            [sys.executable, "-m", "deepconn.cli", "train",
             "--data", str(sample_reviews_path),
             "--embeddings", str(toy_embeddings_path), "--out", str(out),
             "--seed", "9", "--no-timing"] + model,
            env=dict(os.environ, OPENBLAS_NUM_THREADS=threads),
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outputs.append([(out / name).read_bytes()
                        for name in ("report.json", "curves.csv", "model.ckpt")])
    assert outputs[0] == outputs[1]


def test_baseline_identical_across_blas_thread_counts(sample_reviews_path, tmp_path):
    outputs = []
    for threads in ("1", "2"):
        sims = tmp_path / f"threads{threads}" / "sims.txt"
        sims.parent.mkdir()
        proc = subprocess.run(
            [sys.executable, "-m", "deepconn.cli", "baseline",
             "--data", str(sample_reviews_path), "--seed", "7",
             "--export-sims", str(sims)],
            env=dict(os.environ, OPENBLAS_NUM_THREADS=threads),
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outputs.append((proc.stdout.replace(str(sims), "SIMS"), sims.read_bytes()))
    assert outputs[0] == outputs[1]
