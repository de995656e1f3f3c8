#!/usr/bin/env python3
"""Train the twin-tower model end to end on the bundled sample corpus.

A CNN tower reads each user's and each item's aggregated reviews; the
dot-product head couples the two latent vectors into a rating.  After a
few epochs the model should comfortably beat the constant global-mean
predictor on the held-out test reviews.
"""

from pathlib import Path

from deepconn import (DeepConn, DocumentStore, ModelConfig, TowerConfig,
                      evaluate, fit, load_embeddings, mean_predictor_mse,
                      parse_reviews_file, split_dataset)

ROOT = Path(__file__).resolve().parent.parent


def main():
    records = parse_reviews_file(ROOT / "data" / "sample_reviews.jsonl").records
    split = split_dataset(records, 0.81, 0.09, seed=7)
    table = load_embeddings(ROOT / "data" / "toy_embeddings_50d.txt", 50)
    # documents come from the non-test portion only: test reviews must not
    # leak into what the towers read
    store = DocumentStore(split.train + split.validation, table, doc_length=128)

    tower = TowerConfig(kind="cnn", embedding_dim=50, hidden_units=32,
                        kernel=8, stride=6, dense_units=32, dropout_rate=0.0)
    model = DeepConn(ModelConfig(tower=tower, head="dp"), seed=11)

    report = fit(model, store, split.train, validation_pairs=split.validation,
                 optimizer="adam", epochs=6, batch_size=32, seed=3)
    print("epoch  train_loss  val_loss  seconds")
    for e in report.epochs:
        print(f"{e.epoch:>5}  {e.train_loss:>10.4f}  {e.validation_loss:>8.4f}"
              f"  {e.seconds:>7.1f}")

    test_mse, counters = evaluate(model, store, split.test)
    reference = mean_predictor_mse(split.test, store.global_mean)
    print(f"\ntest MSE:        {test_mse:.4f}   ({counters})")
    print(f"global-mean MSE: {reference:.4f}")
    print(f"beats the mean: {test_mse < reference}")


if __name__ == "__main__":
    main()
