#!/usr/bin/env python3
"""Desk-scale version of the architecture comparison grid.

Trains the CNN, GRU, and LSTM towers (dot-product head, shared split and
seed) and prints one row per configuration: tower | embedding | training
time | test MSE.  Expect the recurrent towers to cost roughly an order of
magnitude more wall-clock than the CNN while none of them dominates on
quality at this scale.
"""

from pathlib import Path

from deepconn import (DeepConn, DocumentStore, ModelConfig, TowerConfig,
                      evaluate, fit, load_embeddings, parse_reviews_file,
                      split_dataset)

ROOT = Path(__file__).resolve().parent.parent


def hms(seconds):
    seconds = int(round(seconds))
    return f"{seconds // 3600} hr {seconds % 3600 // 60} min {seconds % 60} s"


def main():
    records = parse_reviews_file(ROOT / "data" / "sample_reviews.jsonl").records
    split = split_dataset(records, 0.81, 0.09, seed=7)
    table = load_embeddings(ROOT / "data" / "toy_embeddings_50d.txt", 50)
    store = DocumentStore(split.train + split.validation, table, doc_length=48)

    print("tower | embedding | training time | test MSE")
    for kind in ("cnn", "gru", "lstm"):
        tower = TowerConfig(kind=kind, embedding_dim=50, hidden_units=16,
                            kernel=8, stride=6, dense_units=16,
                            dropout_rate=0.10)
        model = DeepConn(ModelConfig(tower=tower, head="dp"), seed=11)
        report = fit(model, store, split.train, epochs=2, batch_size=32, seed=3)
        test_mse, _ = evaluate(model, store, split.test)
        seconds = report.epochs[-1].seconds
        print(f"{kind.upper():<5} | 50d       | {hms(seconds):<13} | {test_mse:.4f}")


if __name__ == "__main__":
    main()
