"""Command-line entry point.

Subcommands: stats, train, evaluate, baseline, compare, gradcheck,
export-curves.  Every module knob is a long-form flag; a JSON config file
(--config) may supply defaults, with explicit flags overriding.

Exit codes: 0 success, 2 invalid configuration, 3 I/O or file-format
problems, 4 numeric fault, 5 verification failure.
"""

import argparse
import json
import math
import sys
from pathlib import Path

from . import gradcheck as gc
from .baseline import (RatingMatrix, evaluate_cf, item_similarity,
                       similarity_table_text)
from .errors import (CheckpointError, ConfigError, DataFormatError,
                     InfeasibleSplitError, NumericFault, ShapeError,
                     UnknownEntityError)
from .ingest import (SPLIT_MODES, dataset_stats, parse_reviews_file, split_dataset,
                     split_problems)
from .model import (HEAD_KINDS, PRESETS, TOWER_KINDS, DeepConn, TowerConfig,
                    build_config)
from .text import OOV_POLICIES, load_embeddings
from .train import (DocumentStore, TrainReport, atomic_open, evaluate, fit,
                    load_checkpoint, mean_predictor_mse, restore_parameters,
                    save_checkpoint)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERIC = 4
EXIT_VERIFY = 5


def _split_arguments(parser):
    group = parser.add_argument_group("split")
    group.add_argument("--train-fraction", type=float, default=0.81,
                       help="fraction of records for training (default 0.81)")
    group.add_argument("--val-fraction", type=float, default=0.09,
                       help="fraction for validation; the rest is test (default 0.09)")
    group.add_argument("--split-mode", choices=SPLIT_MODES, default="by_review")
    group.add_argument("--seed", type=int, default=0)


def _model_arguments(parser):
    group = parser.add_argument_group("model")
    group.add_argument("--preset", choices=PRESETS, default="comparison")
    group.add_argument("--tower", choices=TOWER_KINDS, default="cnn")
    group.add_argument("--head", choices=HEAD_KINDS, default="dp")
    group.add_argument("--hidden-units", type=int, default=None,
                       help="conv channels (cnn) or recurrent units (preset default)")
    group.add_argument("--filters", type=int, default=None,
                       help="alias for --hidden-units on the conv layer")
    group.add_argument("--dense-units", type=int, default=None)
    group.add_argument("--kernel", type=int, default=None)
    group.add_argument("--stride", type=int, default=None)
    group.add_argument("--dropout", type=float, default=None)
    group.add_argument("--recurrent-dropout", type=float, default=None)
    group.add_argument("--fm-rank", type=int, default=None)
    group.add_argument("--pure-dot", action="store_true",
                       help="dp head without the trainable first-order term")


def _document_arguments(parser):
    group = parser.add_argument_group("documents")
    group.add_argument("--dim", type=int, default=50,
                       help="embedding dimension, must match the embedding file")
    group.add_argument("--doc-length", type=int, default=300,
                       help="tokens per user/item document (default 300)")
    group.add_argument("--oov-policy", choices=OOV_POLICIES, default="zero")
    group.add_argument("--leak-test-reviews", action="store_true",
                       help="include test reviews in the documents (leaky variant)")
    group.add_argument("--clamp", action="store_true",
                       help="clamp predictions to [1, 5] at evaluation")


def _training_arguments(parser):
    group = parser.add_argument_group("training")
    group.add_argument("--optimizer", choices=("adam", "rmsprop"), default="adam")
    group.add_argument("--lr", type=float, default=0.001)
    group.add_argument("--batch-size", type=int, default=32)
    group.add_argument("--epochs", type=int, default=10)
    group.add_argument("--no-timing", action="store_true",
                       help="write 0.0 for all seconds fields (byte-stable reports)")


def _build_parser():
    """The deepconn parser and its subcommands' parsers by name."""
    parser = argparse.ArgumentParser(
        prog="deepconn",
        description="Review-based rating prediction: twin-tower text encoders "
                    "with a dot-product or factorization-machine head, plus an "
                    "item-item cosine CF baseline.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_stats = sub.add_parser("stats", help="dataset counts and skip report")
    p_stats.add_argument("--data", required=True)
    _split_arguments(p_stats)

    p_train = sub.add_parser("train", help="train a model, write report + checkpoint")
    p_train.add_argument("--data", required=True)
    p_train.add_argument("--embeddings", required=True)
    p_train.add_argument("--out", default="deepconn-run",
                         help="output directory (report.json, curves.csv, model.ckpt)")
    _split_arguments(p_train)
    _model_arguments(p_train)
    _document_arguments(p_train)
    _training_arguments(p_train)

    p_eval = sub.add_parser("evaluate", help="test MSE of a saved checkpoint")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--data", required=True)
    p_eval.add_argument("--embeddings", required=True)
    _split_arguments(p_eval)
    _document_arguments(p_eval)

    p_base = sub.add_parser("baseline", help="item-item cosine CF test MSE")
    p_base.add_argument("--data", required=True)
    p_base.add_argument("--k", type=int, default=None,
                        help="neighborhood size (default: all rated items)")
    p_base.add_argument("--export-sims", type=str, default=None,
                        help="also write the similarity matrix as a text table")
    _split_arguments(p_base)

    p_cmp = sub.add_parser("compare", help="train the model and run the CF "
                                           "baseline on the same split")
    p_cmp.add_argument("--data", required=True)
    p_cmp.add_argument("--embeddings", required=True)
    p_cmp.add_argument("--k", type=int, default=None)
    _split_arguments(p_cmp)
    _model_arguments(p_cmp)
    _document_arguments(p_cmp)
    _training_arguments(p_cmp)

    p_grad = sub.add_parser("gradcheck", help="finite-difference checks for "
                                              "every layer and the full model")
    p_grad.add_argument("--threshold", type=float, default=gc.DEFAULT_THRESHOLD)
    p_grad.add_argument("--eps", type=float, default=gc.DEFAULT_EPS)
    p_grad.add_argument("--seed", type=int, default=0)
    p_grad.add_argument("--corrupt-gradients", action="store_true",
                        help="debug hook: inflate analytic gradients by 10%% "
                             "to demonstrate detection")

    p_exp = sub.add_parser("export-curves", help="loss-curve CSV from a report")
    p_exp.add_argument("--report", required=True)
    p_exp.add_argument("--out", required=True)

    # --config may come before or after the command.  SUPPRESS keeps the
    # command's parser from resetting a path given before the command.
    for p in (parser, *sub.choices.values()):
        p.add_argument("--config", default=argparse.SUPPRESS,
                       help="JSON file of flag defaults (flags still win)")
    return parser, sub.choices


def _validate_run(args):
    """Collect every invalid field before any computation.

    Returns the model config for the commands that take model flags
    (train, compare) and None for the others.
    """
    problems = []
    if hasattr(args, "train_fraction"):
        problems += [f"--train-fraction/--val-fraction: {problem}" for problem
                     in split_problems(args.train_fraction, args.val_fraction)]
    if args.seed < 0:
        problems.append(f"--seed must be >= 0, got {args.seed}")
    for flag in ("lr", "eps", "threshold"):
        value = getattr(args, flag, None)
        if value is not None and not (math.isfinite(value) and value > 0):
            problems.append(f"--{flag} must be a finite number > 0, got {value}")
    if hasattr(args, "batch_size") and args.batch_size < 1:
        problems.append(f"--batch-size must be >= 1, got {args.batch_size}")
    if hasattr(args, "epochs") and args.epochs < 0:
        problems.append(f"--epochs must be >= 0, got {args.epochs}")
    if hasattr(args, "doc_length") and args.doc_length < 1:
        problems.append(f"--doc-length must be >= 1, got {args.doc_length}")
    if hasattr(args, "tower"):
        kernel = args.kernel if args.kernel is not None else TowerConfig.kernel
        problem = _doc_length_problem(args.doc_length, args.tower, kernel)
        if problem:
            problems.append(problem)
    if hasattr(args, "dim") and args.dim < 1:
        problems.append(f"--dim must be >= 1, got {args.dim}")
    if getattr(args, "k", None) is not None and args.k < 1:
        problems.append(f"--k must be >= 1, got {args.k}")
    config = None
    if hasattr(args, "tower"):
        problems.extend(_idle_knob_problems(args))
        try:
            config = _model_config(args)
        except ConfigError as exc:
            problems.append(str(exc))
    if problems:
        raise ConfigError("invalid configuration:\n  " + "\n  ".join(problems))
    return config


def _idle_knob_problems(args):
    """Model flags given explicitly that the chosen tower or head would ignore."""
    problems = []
    if args.tower != "cnn":
        problems += [f"--{flag} has no effect on a {args.tower} tower"
                     for flag in ("kernel", "stride")
                     if getattr(args, flag) is not None]
    if args.head == "dp" and args.fm_rank is not None:
        problems.append("--fm-rank has no effect on the dp head")
    if args.filters is not None and args.hidden_units is not None:
        problems.append("--filters and --hidden-units set the same width; give one")
    return problems


def _doc_length_problem(doc_length, kind, kernel):
    """Why a tower cannot read documents of this length, or None."""
    if kind == "cnn" and 1 <= doc_length < kernel:
        return f"--doc-length {doc_length} is shorter than the conv kernel ({kernel})"
    return None


def _model_config(args):
    overrides = {}
    hidden = args.hidden_units if args.hidden_units is not None else args.filters
    if hidden is not None:
        overrides["hidden_units"] = hidden
    for flag, key in (("dense_units", "dense_units"), ("kernel", "kernel"),
                      ("stride", "stride"), ("dropout", "dropout_rate"),
                      ("recurrent_dropout", "recurrent_dropout_rate"),
                      ("fm_rank", "fm_rank")):
        value = getattr(args, flag)
        if value is not None:
            overrides[key] = value
    if args.pure_dot:
        overrides["pure_dot"] = True
    return build_config(preset=args.preset, kind=args.tower,
                        embedding_dim=args.dim, head=args.head, **overrides)


def _read_reviews(args):
    result = parse_reviews_file(args.data)
    if result.skips:
        print(result.skip_report(), file=sys.stderr)
    return result


def _split(args, records):
    """The run's split of `records`; a ConfigError when there are none."""
    if not records:
        raise ConfigError(f"{args.data}: no valid records to split")
    return split_dataset(records, args.train_fraction, args.val_fraction,
                         seed=args.seed, mode=args.split_mode)


def _document_store(args, split):
    """The run's store: the split's train and validation reviews' documents."""
    corpus = split.train + split.validation
    if args.leak_test_reviews:
        corpus = corpus + split.test
    table = load_embeddings(args.embeddings, args.dim, oov_policy=args.oov_policy)
    return DocumentStore(corpus, table, args.doc_length)


def _hms(seconds):
    seconds = int(round(seconds))
    return f"{seconds // 3600} hr {seconds % 3600 // 60} min {seconds % 60} s"


def _run_echo(args, keys):
    return {key: getattr(args, key) for key in keys if hasattr(args, key)}


def cmd_stats(args):
    _validate_run(args)
    result = _read_reviews(args)
    split = None
    try:
        if result.records:
            split = _split(args, result.records)
    except InfeasibleSplitError as exc:
        # The counts of a corpus too small for this split still print.
        print(f"no split: {exc}", file=sys.stderr)
    stats = dataset_stats(result.records, split)
    print(f"reviews: {stats.n_reviews}")
    print(f"users:   {stats.n_users}")
    print(f"items:   {stats.n_items}")
    print(f"train fraction: {stats.train_fraction:.2f}")
    print(f"test fraction:  {stats.test_fraction:.2f}")
    print(f"skipped lines: {len(result.skips)}")
    return EXIT_OK


def _train_once(args):
    """Shared by train and compare: returns (model, store, report, split)."""
    config = _validate_run(args)
    split = _split(args, _read_reviews(args).records)
    store = _document_store(args, split)
    model = DeepConn(config, seed=args.seed)
    report = fit(model, store, split.train, validation_pairs=split.validation,
                 optimizer=args.optimizer, learning_rate=args.lr,
                 epochs=args.epochs, batch_size=args.batch_size,
                 seed=args.seed, record_timing=not args.no_timing)
    report.test_mse, report.cold_start_counts = evaluate(
        model, store, split.test, clamp=args.clamp)
    report.config["run"] = _run_echo(args, (
        "data", "embeddings", "train_fraction", "val_fraction", "split_mode",
        "seed", "preset", "tower", "head", "dim", "doc_length", "oov_policy",
        "optimizer", "lr", "batch_size", "epochs", "leak_test_reviews",
        "clamp", "no_timing", "pure_dot"))
    return model, store, report, split


def _print_test_summary(test_mse, counters, test_records, store):
    print(f"test MSE: {test_mse:.6f}")
    print(f"global-mean reference MSE: "
          f"{mean_predictor_mse(test_records, store.global_mean):.6f}")
    print(f"cold-start fallbacks: {counters}")


def _item_cf(args, split):
    """Item-item CF fitted on train + validation and scored on test:
    (matrix, similarities, test MSE, prediction sources)."""
    matrix = RatingMatrix(split.train + split.validation)
    sims = item_similarity(matrix)
    return (matrix, sims) + evaluate_cf(matrix, sims, split.test, k=args.k)


def cmd_train(args):
    model, store, report, split = _train_once(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with atomic_open(out / "report.json") as fh:
        fh.write(report.to_json().encode("utf-8"))
    with atomic_open(out / "curves.csv") as fh:
        fh.write(report.curves_csv().encode("utf-8"))
    save_checkpoint(model, out / "model.ckpt")
    if report.best_parameters is not None:
        final = [p.value.copy() for p in model.parameters()]
        restore_parameters(model, report.best_parameters)
        save_checkpoint(model, out / "model.best.ckpt")
        restore_parameters(model, final)

    total = report.epochs[-1].seconds if report.epochs else 0.0
    print(f"{args.tower} | {args.dim}d | {_hms(total)} | {report.test_mse}")
    for e in report.epochs:
        val = f"{e.validation_loss:.6f}" if e.validation_loss is not None else "-"
        print(f"  epoch {e.epoch}: train {e.train_loss:.6f}  val {val}  "
              f"{e.seconds:.1f}s")
    _print_test_summary(report.test_mse, report.cold_start_counts,
                        split.test, store)
    print(f"wrote {out / 'report.json'}, {out / 'curves.csv'}, {out / 'model.ckpt'}")
    return EXIT_OK


def cmd_evaluate(args):
    _validate_run(args)
    model = load_checkpoint(args.checkpoint)
    if model.config.tower.embedding_dim != args.dim:
        raise ConfigError(
            f"--dim {args.dim} does not match the checkpoint's embedding "
            f"dimension {model.config.tower.embedding_dim}")
    tower = model.config.tower
    problem = _doc_length_problem(args.doc_length, tower.kind, tower.kernel)
    if problem:
        raise ConfigError(f"{args.checkpoint}: {problem}")
    split = _split(args, _read_reviews(args).records)
    store = _document_store(args, split)
    test_mse, counters = evaluate(model, store, split.test, clamp=args.clamp)
    _print_test_summary(test_mse, counters, split.test, store)
    return EXIT_OK


def cmd_baseline(args):
    _validate_run(args)
    split = _split(args, _read_reviews(args).records)
    matrix, sims, cf_mse, counters = _item_cf(args, split)
    print(f"item-cf test MSE: {cf_mse:.6f}")
    print(f"prediction sources: {counters}")
    if args.export_sims:
        try:
            text = similarity_table_text(matrix, sims).encode("utf-8")
        except UnicodeEncodeError as exc:
            raise DataFormatError(f"{args.export_sims}: an item id cannot be "
                                  f"written as UTF-8 ({exc})") from exc
        with atomic_open(args.export_sims) as fh:
            fh.write(text)
        print(f"wrote {args.export_sims}")
    return EXIT_OK


def cmd_compare(args):
    model, store, report, split = _train_once(args)
    _, _, cf_mse, cf_counters = _item_cf(args, split)
    mean_mse = mean_predictor_mse(split.test, store.global_mean)
    print("model                 test MSE")
    print(f"deepconn-{args.head:<12} {report.test_mse:.6f}")
    print(f"item-cf               {cf_mse:.6f}")
    print(f"global-mean           {mean_mse:.6f}")
    print(f"cf prediction sources: {cf_counters}")
    return EXIT_OK


def cmd_gradcheck(args):
    _validate_run(args)
    results = gc.standard_checks(eps=args.eps, seed=args.seed,
                                 corrupt=args.corrupt_gradients)
    failed = 0
    for name, err in results:
        status = "PASS" if err < args.threshold else "FAIL"
        failed += status == "FAIL"
        print(f"{status}  {name:<22} max relative error {err:.3e}")
    if failed:
        print(f"{failed} of {len(results)} checks above threshold "
              f"{args.threshold:g}", file=sys.stderr)
        return EXIT_VERIFY
    print(f"all {len(results)} checks passed at threshold {args.threshold:g}")
    return EXIT_OK


def cmd_export_curves(args):
    try:
        report = TrainReport.from_json(Path(args.report).read_bytes())
    except DataFormatError as exc:
        raise DataFormatError(f"{args.report}: {exc}") from exc
    with atomic_open(args.out) as fh:
        fh.write(report.curves_csv().encode("utf-8"))
    print(f"wrote {args.out} ({len(report.epochs)} epochs)")
    return EXIT_OK


COMMANDS = {
    "stats": cmd_stats,
    "train": cmd_train,
    "evaluate": cmd_evaluate,
    "baseline": cmd_baseline,
    "compare": cmd_compare,
    "gradcheck": cmd_gradcheck,
    "export-curves": cmd_export_curves,
}


def _apply_config_file(path, commands, command):
    """Install the JSON file's values as defaults of `command`'s parser.

    A key must name a flag of some command; the chosen command takes the
    keys that name its own flags.
    """
    try:
        defaults = json.loads(Path(path).read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(defaults, dict):
        raise ConfigError(f"{path}: config file must hold a JSON object")
    flags = {name: {a.dest: a for a in p._actions} for name, p in commands.items()}
    unknown = set(defaults) - set().union(*flags.values())
    if unknown:
        raise ConfigError(f"{path}: unknown config keys {sorted(unknown)}")
    ours = {k: v for k, v in defaults.items() if k in flags[command]}
    for key, value in ours.items():
        if not _config_value_fits(flags[command][key], value):
            raise ConfigError(f"{path}: config key {key!r} cannot take "
                              f"{json.dumps(value)}")
    commands[command].set_defaults(**ours)


def _config_value_fits(action, value):
    """Whether a flag can take a JSON value as its default.  argparse
    converts a string default as it would the flag's argument, but never
    checks it against the flag's choices; any other value reaches the
    program as it is."""
    if isinstance(action, argparse._StoreTrueAction):
        return isinstance(value, bool)
    if isinstance(value, str):
        return action.choices is None or value in action.choices
    if value is None:
        return action.default is None
    if action.type is float:
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if action.type is int:
        return isinstance(value, int) and not isinstance(value, bool)
    return False


def main(argv=None):
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser, commands = _build_parser()
    try:
        args = parser.parse_args(argv)
        if hasattr(args, "config"):
            _apply_config_file(args.config, commands, args.command)
            args = parser.parse_args(argv)
        return COMMANDS[args.command](args)
    except (ConfigError, InfeasibleSplitError, UnknownEntityError, ShapeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (OSError, DataFormatError, CheckpointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except NumericFault as exc:
        print(f"numeric fault: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
