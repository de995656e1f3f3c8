#!/usr/bin/env python3
"""How long the set-up of a `deepconn evaluate` run takes, phase by phase.

    PYTHONPATH=src python3 tools/setup_profile.py [--seed 3]

Writes a generated corpus the size of the benchmark's `evaluate-large`
(20,000 reviews, 1,000 users, 800 items), its embedding file and an
untrained CNN/DP checkpoint at the paper's shapes (T=300, d=50, 64 units)
to a temporary directory.  Each round then runs the set-up path in one
process, as `deepconn evaluate` does: parse the reviews, split them (the
CLI's 0.81 / 0.09), load the embeddings, build the document store from the
training portion, and load the checkpoint.  One unmeasured round goes first; the table gives each
phase's median and quartiles over 15 measured rounds, in milliseconds.
"""

import argparse
import tempfile
import time
from pathlib import Path

import numpy as np

from deepconn import ingest, synthetic, text, train
from deepconn.model import DeepConn, build_config

DOC_LENGTH = 300
DIM = 50
CORPUS = dict(n_reviews=20000, n_users=1000, n_items=800)
ROUNDS = 15
PHASES = ("parse", "split", "embedding load", "store build", "checkpoint load")


def write_inputs(workdir, seed):
    records = synthetic.make_sample_corpus(seed=seed, **CORPUS)
    paths = (workdir / "reviews.jsonl", workdir / "embeddings.txt", workdir / "model.ckpt")
    paths[0].write_text(ingest.serialize_reviews(records), encoding="utf-8")
    paths[1].write_text(synthetic.embedding_file_text(dim=DIM, seed=seed),
                        encoding="utf-8")
    config = build_config("comparison", kind="cnn", embedding_dim=DIM, head="dp")
    train.save_checkpoint(DeepConn(config, seed=seed), paths[2])
    return paths


def one_round(data, embeddings, checkpoint, seed):
    """Seconds per phase of one set-up."""
    times = []
    clock = time.perf_counter
    started = clock()
    parsed = ingest.parse_reviews_file(data)
    times.append(clock() - started)
    started = clock()
    split = ingest.split_dataset(parsed.records, 0.81, 0.09, seed=seed)
    times.append(clock() - started)
    started = clock()
    table = text.load_embeddings(embeddings, DIM)
    times.append(clock() - started)
    started = clock()
    train.DocumentStore(split.train + split.validation, table, DOC_LENGTH)
    times.append(clock() - started)
    started = clock()
    train.load_checkpoint(checkpoint)
    times.append(clock() - started)
    return times


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=3)
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        paths = write_inputs(Path(tmp), args.seed)
        one_round(*paths, args.seed)
        times = np.array([one_round(*paths, args.seed) for _ in range(ROUNDS)])
    times = np.column_stack([times, times.sum(axis=1)]) * 1e3
    print(f"{CORPUS['n_reviews']} reviews, {CORPUS['n_users']} users, "
          f"{CORPUS['n_items']} items, seed {args.seed}, {ROUNDS} rounds (ms)")
    print(f"{'phase':<17}{'median':>8}{'q1':>8}{'q3':>8}")
    for name, column in zip((*PHASES, "total"), times.T):
        q1, median, q3 = np.percentile(column, [25, 50, 75])
        print(f"{name:<17}{median:>8.1f}{q1:>8.1f}{q3:>8.1f}")


if __name__ == "__main__":
    main()
