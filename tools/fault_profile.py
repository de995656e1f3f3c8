#!/usr/bin/env python3
"""Where a `deepconn train` run takes its minor page faults, per encoder.

    PYTHONPATH=src python3 tools/fault_profile.py

Wraps `Conv1d` and the recurrent cells' `forward` and `backward` from the
outside, then runs two workloads shaped like `deepconn train` at the
paper's shapes (T=300, d=50, 64 units, batches of 32, the CLI's 0.81 / 0.09
split): fit with validation, then the test evaluation.

    cnn   DP head, Adam, 2 epochs; 1,000 reviews, 50 users, 40 items
    lstm  FM head, RMSprop, 1 epoch; 40 reviews, 10 users, 8 items

Each workload runs once unmeasured, so that first-touch faults stay out,
and once measured.  For each wrapped call site the table gives the calls,
the minor faults (`ru_minflt`, every thread of the process) and the
seconds spent inside, and a last row gives the whole run.

A last workload, shaped like the benchmark's `evaluate-large` (20,000
reviews, 1,000 users, 800 items, a CNN tower and DP head), counts the
faults of the set-up that follows an `evaluate`: parse, split, embedding
table, store build and checkpoint load.  Its rows compare the set-up after
an evaluate that forks its item tower (`train.SPLIT_ABOVE`) with the set-up
after one that stays in this process; the difference is what the fork's
copy-on-write costs the parent afterwards.  The counts need Linux.
"""

import resource
import tempfile
import time
from collections import defaultdict
from pathlib import Path

from deepconn import layers, train
from deepconn.ingest import parse_reviews_file, serialize_reviews, split_dataset
from deepconn.model import DeepConn, build_config
from deepconn.synthetic import make_sample_corpus, make_token_vectors
from deepconn.text import EmbeddingTable
from deepconn.train import (DocumentStore, evaluate, fit, load_checkpoint,
                            save_checkpoint)

WORKLOADS = {
    "cnn": dict(head="dp", optimizer="adam", epochs=2,
                corpus=dict(n_reviews=1000, n_users=50, n_items=40)),
    "lstm": dict(head="fm", optimizer="rmsprop", epochs=1,
                 corpus=dict(n_reviews=40, n_users=10, n_items=8)),
}
WRAPPED = ((layers.Conv1d, "Conv1d"), (layers._RecurrentCell, "cell"))


def minor_faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def wrap(tally):
    """Count every wrapped call into `tally[(site, pass)]` as [calls,
    faults, seconds]; returns a function that restores the originals."""
    originals = []
    for cls, site in WRAPPED:
        for name in ("forward", "backward"):
            method = getattr(cls, name)
            originals.append((cls, name, method))

            def counted(self, *args, _method=method, _key=(site, name), **kwargs):
                faults, started = minor_faults(), time.perf_counter()
                try:
                    return _method(self, *args, **kwargs)
                finally:
                    entry = tally[_key]
                    entry[0] += 1
                    entry[1] += minor_faults() - faults
                    entry[2] += time.perf_counter() - started
            setattr(cls, name, counted)

    def restore():
        for cls, name, method in originals:
            setattr(cls, name, method)
    return restore


def run(kind, seed):
    """One `deepconn train`-shaped run: fit with validation, test evaluation."""
    spec = WORKLOADS[kind]
    records = make_sample_corpus(seed=seed, **spec["corpus"])
    split = split_dataset(records, 0.81, 0.09, seed=seed)
    table = EmbeddingTable(50, make_token_vectors(dim=50, seed=seed))
    store = DocumentStore(split.train + split.validation, table, 300)
    config = build_config("comparison", kind=kind, embedding_dim=50, head=spec["head"])
    model = DeepConn(config, seed=seed)
    fit(model, store, split.train, validation_pairs=split.validation,
        optimizer=spec["optimizer"], learning_rate=0.001, epochs=spec["epochs"],
        batch_size=32, seed=seed)
    evaluate(model, store, split.test)


def evaluate_large_setup(workdir):
    """The set-up of an `evaluate-large` iteration; returns the model, the
    store and the test records."""
    split = split_dataset(parse_reviews_file(workdir / "reviews.jsonl").records,
                          0.81, 0.09, seed=3)
    table = EmbeddingTable(50, make_token_vectors(dim=50, seed=3))
    store = DocumentStore(split.train + split.validation, table, 300)
    return load_checkpoint(workdir / "model.ckpt"), store, split.test


def profile_evaluate_large(rounds=5):
    """Rows of faults in the set-up after a split and after a serial evaluate."""
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        records = make_sample_corpus(20000, 1000, 800, seed=3)
        (workdir / "reviews.jsonl").write_text(serialize_reviews(records),
                                               encoding="utf-8")
        config = build_config("comparison", kind="cnn", embedding_dim=50, head="dp")
        save_checkpoint(DeepConn(config, seed=3), workdir / "model.ckpt")
        split_above = train.SPLIT_ABOVE
        try:
            for label, threshold in (("split", split_above), ("serial", 10 ** 9)):
                train.SPLIT_ABOVE = threshold
                faults, seconds = [], []
                for _ in range(rounds + 1):
                    evaluate(*evaluate_large_setup(workdir))
                    before, started = minor_faults(), time.perf_counter()
                    evaluate_large_setup(workdir)
                    faults.append(minor_faults() - before)
                    seconds.append(time.perf_counter() - started)
                # The first round warms up and is left out.
                yield (f"set-up after {label}", rounds, sum(faults[1:]),
                       sum(seconds[1:]))
        finally:
            train.SPLIT_ABOVE = split_above


def main():
    print(f"{'workload':<15}{'site':<25}{'calls':>7}{'faults':>9}"
          f"{'per call':>10}{'seconds':>9}")
    for kind in WORKLOADS:
        run(kind, 0)
        tally = defaultdict(lambda: [0, 0, 0.0])
        restore = wrap(tally)
        try:
            faults, started = minor_faults(), time.perf_counter()
            run(kind, 0)
            total = (minor_faults() - faults, time.perf_counter() - started)
        finally:
            restore()
        for (site, name), (calls, n, seconds) in sorted(tally.items()):
            print(f"{kind:<15}{site + '.' + name:<25}{calls:>7}{n:>9}"
                  f"{n / calls:>10.1f}{seconds:>9.3f}")
        print(f"{kind:<15}{'whole run':<25}{'':>7}{total[0]:>9}{'':>10}"
              f"{total[1]:>9.3f}")
    for site, calls, n, seconds in profile_evaluate_large():
        print(f"{'evaluate-large':<15}{site:<25}{calls:>7}{n:>9}"
              f"{n / calls:>10.1f}{seconds:>9.3f}")


if __name__ == "__main__":
    main()
