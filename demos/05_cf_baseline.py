#!/usr/bin/env python3
"""The classic item-item collaborative-filtering baseline.

Cosine similarity over co-rater-restricted rating vectors, then a
similarity-weighted average of the user's other ratings.  Works fine when
the rating matrix is dense; the review-text model exists because real
matrices are anything but.
"""

from pathlib import Path

import numpy as np

from deepconn import (RatingMatrix, ReviewRecord, evaluate_cf,
                      item_similarity, parse_reviews_file,
                      predict_cf_with_source, split_dataset)

ROOT = Path(__file__).resolve().parent.parent


def main():
    # a worked miniature first: two items share raters u1 and u2
    mini = [ReviewRecord(u, m, float(r), "") for u, m, r in [
        ("u1", "m1", 3), ("u1", "m2", 4),
        ("u2", "m1", 4), ("u2", "m2", 3),
        ("u3", "m1", 4), ("u3", "m3", 2)]]
    matrix = RatingMatrix(mini)
    sims = item_similarity(matrix)
    i, j = matrix.item_index["m1"], matrix.item_index["m2"]
    print("miniature similarity matrix:")
    print(np.round(sims, 3))
    print(f"cos(m1, m2) over co-raters [3,4] vs [4,3] = {sims[i, j]:.4f}")
    value, _ = predict_cf_with_source(matrix, sims, "u3", "m2")
    print(f"prediction for (u3, m2): {value:.4f}")

    # now the bundled corpus
    records = parse_reviews_file(ROOT / "data" / "sample_reviews.jsonl").records
    split = split_dataset(records, 0.81, 0.09, seed=7)
    train_matrix = RatingMatrix(split.train + split.validation)
    train_sims = item_similarity(train_matrix)
    density = (train_matrix.values > 0).mean()
    print(f"\nsample corpus: {train_matrix.n_users} x {train_matrix.n_items} "
          f"matrix, {density:.0%} filled")
    mse, counters = evaluate_cf(train_matrix, train_sims, split.test)
    print(f"item-cf test MSE: {mse:.4f}")
    print(f"prediction sources: {counters}")


if __name__ == "__main__":
    main()
