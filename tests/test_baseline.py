import math
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from deepconn import baseline
from deepconn.baseline import (RatingMatrix, evaluate_cf, item_similarity,
                               predict_cf_with_source)
from deepconn.errors import UnknownEntityError
from deepconn.ingest import ReviewRecord


def _records(triples):
    return [ReviewRecord(u, m, float(r), "") for u, m, r in triples]


# Fixture used by the worked examples: three users, three items.
# Co-raters of (m1, m2) are u1 and u2 with vectors [3, 4] and [4, 3].
THREE_USER_FIXTURE = _records([
    ("u1", "m1", 3), ("u1", "m2", 4),
    ("u2", "m1", 4), ("u2", "m2", 3),
    ("u3", "m1", 4), ("u3", "m3", 2),
])


def brute_force_similarity(ratings, item_i, item_j):
    """Independent direct implementation over a {(user, item): rating} dict."""
    users = {u for (u, m) in ratings if m == item_i} & \
            {u for (u, m) in ratings if m == item_j}
    if not users:
        return 0.0
    vi = [ratings[(u, item_i)] for u in sorted(users)]
    vj = [ratings[(u, item_j)] for u in sorted(users)]
    num = sum(a * b for a, b in zip(vi, vj))
    # one square root of the product, as the library takes it, so that on
    # exactly summed ratings equal cosines tie here as they tie there
    return num / math.sqrt(sum(a * a for a in vi) * sum(b * b for b in vj))


def brute_force_predict(ratings, items, user, item, k=None):
    """(value, source): the weighted average over the user's other rated
    items with positive similarity, the k most similar when k is given
    (ties broken by position in `items`, the matrix's column order);
    user-mean then global-mean fallbacks."""
    weighted = [(brute_force_similarity(ratings, item, m), col, ratings[(user, m)])
                for col, m in enumerate(items) if (user, m) in ratings and m != item]
    weighted = sorted(((s, col, r) for s, col, r in weighted if s > 0),
                      key=lambda scr: (-scr[0], scr[1]))[:k]
    if weighted:
        return (sum(s * r for s, _, r in weighted) / sum(s for s, _, _ in weighted),
                "cf")
    mine = [ratings[(user, m)] for m in items if (user, m) in ratings]
    if mine:
        return sum(mine) / len(mine), "user_mean"
    all_ratings = list(ratings.values())
    return sum(all_ratings) / len(all_ratings), "global_mean"


def _random_triples(rng, kind):
    """A shuffled 5x5 draw at half density plus a user whose one rating is
    m0, then a few records that re-rate earlier pairs.  Ratings are
    integers, halves, or any float in [1, 5]."""
    def draw():
        if kind == "integer":
            return int(rng.integers(1, 6))
        if kind == "half":
            return int(rng.integers(2, 11)) / 2
        return float(rng.uniform(1.0, 5.0))
    triples = [(f"u{u}", f"m{m}", draw()) for u in range(5) for m in range(5)
               if rng.random() < 0.5] + [("solo", "m0", draw())]
    triples = [triples[n] for n in rng.permutation(len(triples))]
    repeats = rng.choice(len(triples), size=min(3, len(triples)), replace=False)
    return triples + [(triples[n][0], triples[n][1], draw()) for n in repeats]


def check_cf_matches_brute_force(seed):
    """item_similarity against brute_force_similarity, and
    predict_cf_with_source and evaluate_cf against brute_force_predict for
    every (user, item), an unknown user and an unknown item included, at
    k = None, 1, 2, 3, on 100 random rating matrices drawn from `seed`:
    similarities, predictions and the MSE within 1e-12, counters exactly,
    over more than 10,000 predictions."""
    rng = np.random.default_rng(seed)
    compared = 0
    for trial in range(100):
        triples = _random_triples(rng, ("integer", "half", "float")[trial % 3])
        matrix = RatingMatrix(_records(triples))
        sims = item_similarity(matrix)
        ratings = {(u, m): float(r) for u, m, r in triples}   # the last one wins
        users = list(dict.fromkeys(u for u, _, _ in triples))
        items = list(dict.fromkeys(m for _, m, _ in triples))  # column order
        for i, mi in enumerate(items):
            for j, mj in enumerate(items):
                expected = 1.0 if i == j else brute_force_similarity(ratings, mi, mj)
                assert abs(sims[i, j] - expected) < 1e-12
        with pytest.raises(UnknownEntityError):
            predict_cf_with_source(matrix, sims, "nobody", items[0])
        pairs = [ReviewRecord(user, item, float(rng.uniform(1.0, 5.0)), "")
                 for user in users + ["nobody"] for item in items + ["never-seen"]]
        for k in (None, 1, 2, 3):
            counters = {"cf": 0, "user_mean": 0, "global_mean": 0, "unknown_user": 0}
            squared = []
            for pair in pairs:
                if pair.user_id == "nobody":
                    expected, source = sum(ratings.values()) / len(ratings), "unknown_user"
                else:
                    expected, source = brute_force_predict(ratings, items, pair.user_id,
                                                           pair.item_id, k)
                    actual = predict_cf_with_source(matrix, sims, pair.user_id,
                                                    pair.item_id, k)
                    assert abs(actual[0] - expected) < 1e-12 and actual[1] == source
                    compared += 1
                counters[source] += 1
                squared.append((pair.rating - expected) ** 2)
            mse_value, actual_counters = evaluate_cf(matrix, sims, pairs, k)
            assert abs(mse_value - sum(squared) / len(squared)) < 1e-12
            assert actual_counters == counters
    assert compared > 10_000


class TestItemSimilarity:
    def test_identical_corating_vectors(self):
        records = _records([("u1", "a", 4), ("u1", "b", 4),
                            ("u2", "a", 5), ("u2", "b", 5)])
        matrix = RatingMatrix(records)
        sims = item_similarity(matrix)
        a, b = matrix.item_index["a"], matrix.item_index["b"]
        assert sims[a, b] == pytest.approx(1.0, abs=1e-12)

    def test_hand_cosine_096(self):
        matrix = RatingMatrix(THREE_USER_FIXTURE)
        sims = item_similarity(matrix)
        i, j = matrix.item_index["m1"], matrix.item_index["m2"]
        assert sims[i, j] == pytest.approx(24.0 / 25.0, abs=1e-12)

    def test_no_common_raters_is_zero(self):
        matrix = RatingMatrix(THREE_USER_FIXTURE)
        sims = item_similarity(matrix)
        j, l = matrix.item_index["m2"], matrix.item_index["m3"]
        assert sims[j, l] == 0.0

    def test_symmetry_and_unit_diagonal(self):
        rng = np.random.default_rng(5)
        records = _records([(f"u{u}", f"m{m}", rng.integers(1, 6))
                            for u in range(6) for m in range(5)
                            if rng.random() < 0.6])
        matrix = RatingMatrix(records)
        sims = item_similarity(matrix)
        npt.assert_array_equal(sims, sims.T)
        npt.assert_array_equal(np.diag(sims), np.ones(matrix.n_items))
        assert np.all((sims >= 0.0) & (sims <= 1.0 + 1e-15))

    def test_matches_brute_force_on_random_matrices(self):
        rng = np.random.default_rng(11)
        for trial in range(100):
            triples = [(f"u{u}", f"m{m}", int(rng.integers(1, 6)))
                       for u in range(5) for m in range(5)
                       if rng.random() < 0.5]
            if not triples:
                continue
            records = _records(triples)
            matrix = RatingMatrix(records)
            sims = item_similarity(matrix)
            ratings = {(u, m): float(r) for u, m, r in triples}
            for mi, i in matrix.item_index.items():
                for mj, j in matrix.item_index.items():
                    if i < j:
                        expected = brute_force_similarity(ratings, mi, mj)
                        assert sims[i, j] == pytest.approx(expected, abs=1e-12)


    def test_blocks_of_users_give_the_one_block_result(self, monkeypatch):
        # User "all" rated every item: 21 pairs, more than a block of 3.
        rng = np.random.default_rng(3)
        triples = [("all", f"m{m}", int(rng.integers(1, 6))) for m in range(7)]
        triples += [(f"u{u}", f"m{m}", int(rng.integers(2, 11)) / 2)
                    for u in range(8) for m in range(7) if rng.random() < 0.5]
        matrix = RatingMatrix(_records(triples))
        whole = item_similarity(matrix)
        [(first, second)] = baseline._co_rated_pairs(matrix.indptr)
        monkeypatch.setattr(baseline, "PAIR_BLOCK", 3)
        blocks = list(baseline._co_rated_pairs(matrix.indptr))
        assert len(blocks) > 3 and len(blocks[0][0]) == 21
        for block_first, _ in blocks:
            rows = np.searchsorted(matrix.indptr, block_first, side="right") - 1
            assert len(block_first) <= 3 or len(set(rows)) == 1
        npt.assert_array_equal(np.concatenate([b[0] for b in blocks]), first)
        npt.assert_array_equal(np.concatenate([b[1] for b in blocks]), second)
        npt.assert_array_equal(item_similarity(matrix), whole)

    def test_keeps_at_most_three_m_by_m_arrays(self):
        # 1,200 items and 1,200 co-rated pairs: the M x M arrays dominate.
        M = 1200
        matrix = RatingMatrix(_records([(f"u{u}", f"m{m}", 1 + (u + m) % 5)
                                        for u in range(M) for m in (u, (u + 1) % M)]))
        tracemalloc.start()
        try:
            item_similarity(matrix)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.5 * M * M * 8, f"peak {peak / (M * M * 8):.2f} M x M arrays"


class TestPredictCf:
    def test_hand_weighted_average_36(self):
        # user rated m1=4 (sim 0.8 to target) and m3=2 (sim 0.2):
        # (0.8*4 + 0.2*2) / 1.0 = 3.6
        records = _records([("u", "m1", 4), ("u", "m3", 2), ("x", "t", 3)])
        matrix = RatingMatrix(records)
        sims = np.zeros((3, 3))
        t = matrix.item_index["t"]
        sims[t, matrix.item_index["m1"]] = sims[matrix.item_index["m1"], t] = 0.8
        sims[t, matrix.item_index["m3"]] = sims[matrix.item_index["m3"], t] = 0.2
        np.fill_diagonal(sims, 1.0)
        value, _ = predict_cf_with_source(matrix, sims, "u", "t")
        assert value == pytest.approx(3.6, abs=1e-12)

    def test_perfect_twin(self):
        records = _records([("u", "twin", 5), ("x", "t", 3), ("x", "twin", 3)])
        matrix = RatingMatrix(records)
        sims = np.zeros((2, 2))
        np.fill_diagonal(sims, 1.0)
        t, tw = matrix.item_index["t"], matrix.item_index["twin"]
        sims[t, tw] = sims[tw, t] = 1.0
        assert predict_cf_with_source(matrix, sims, "u", "t")[0] == 5.0

    def test_zero_similarities_fall_back_to_user_mean(self):
        records = _records([("u", "m1", 4), ("u", "m2", 2), ("x", "t", 3)])
        matrix = RatingMatrix(records)
        sims = np.eye(3)
        value, source = predict_cf_with_source(matrix, sims, "u", "t")
        assert value == pytest.approx(3.0)
        assert source == "user_mean"

    def test_unknown_user_raises(self):
        matrix = RatingMatrix(THREE_USER_FIXTURE)
        sims = item_similarity(matrix)
        with pytest.raises(UnknownEntityError):
            predict_cf_with_source(matrix, sims, "nobody", "m1")

    def test_unknown_item_falls_back(self):
        matrix = RatingMatrix(THREE_USER_FIXTURE)
        sims = item_similarity(matrix)
        value, source = predict_cf_with_source(matrix, sims, "u3", "never-seen")
        assert source == "user_mean"
        assert value == pytest.approx(3.0)  # (4 + 2) / 2

    def test_top_k_limits_neighborhood(self):
        records = _records([("u", "a", 5), ("u", "b", 1), ("x", "t", 3),
                            ("x", "a", 3), ("x", "b", 3)])
        matrix = RatingMatrix(records)
        sims = np.eye(3)
        t = matrix.item_index["t"]
        a, b = matrix.item_index["a"], matrix.item_index["b"]
        sims[t, a] = sims[a, t] = 0.9
        sims[t, b] = sims[b, t] = 0.5
        assert predict_cf_with_source(matrix, sims, "u", "t", k=1)[0] == 5.0
        blended = predict_cf_with_source(matrix, sims, "u", "t", k=2)[0]
        assert blended == pytest.approx((0.9 * 5 + 0.5 * 1) / 1.4)

    def test_prediction_is_convex_combination(self):
        rng = np.random.default_rng(7)
        for trial in range(50):
            triples = [(f"u{u}", f"m{m}", int(rng.integers(1, 6)))
                       for u in range(5) for m in range(5)
                       if rng.random() < 0.6]
            if not triples:
                continue
            matrix = RatingMatrix(_records(triples))
            sims = item_similarity(matrix)
            user = triples[0][0]
            row = matrix.values[matrix.user_index[user]]
            rated = row[row > 0]
            for item in matrix.item_index:
                value, source = predict_cf_with_source(matrix, sims, user, item)
                if source == "cf":
                    assert rated.min() - 1e-12 <= value <= rated.max() + 1e-12

    def test_matches_brute_force_on_random_matrices(self):
        check_cf_matches_brute_force(13)


class TestRatingMatrix:
    def test_duplicates_last_write_wins_and_counted(self):
        records = _records([("u", "m", 2), ("u", "m", 5)])
        matrix = RatingMatrix(records)
        assert matrix.values[0, 0] == 5.0
        assert matrix.n_overwritten == 1

    def test_nonzeros_are_row_major_with_the_last_rating(self):
        matrix = RatingMatrix(_records([("b", "y", 1), ("a", "y", 2), ("b", "x", 3),
                                        ("a", "y", 4), ("b", "y", 5), ("a", "y", 4.5)]))
        npt.assert_array_equal(matrix.indptr, [0, 2, 3])
        npt.assert_array_equal(matrix.columns, [0, 1, 0])
        npt.assert_array_equal(matrix.ratings, [5.0, 3.0, 4.5])
        npt.assert_array_equal(matrix.values, [[5.0, 3.0], [4.5, 0.0]])
        assert matrix.n_overwritten == 3
        assert matrix.global_mean == (5.0 + 3.0 + 4.5) / 3

    def test_global_and_user_means(self):
        matrix = RatingMatrix(THREE_USER_FIXTURE)
        assert matrix.global_mean == pytest.approx(20.0 / 6.0)
        assert matrix.user_mean("u3") == pytest.approx(3.0)


class TestEvaluateCf:
    def test_counters_and_mse(self):
        matrix = RatingMatrix(THREE_USER_FIXTURE)
        sims = item_similarity(matrix)
        pairs = _records([("u3", "m2", 4), ("stranger", "m1", 2)])
        mse_value, counters = evaluate_cf(matrix, sims, pairs)
        assert counters["unknown_user"] == 1
        assert sum(counters.values()) == 2
        assert mse_value >= 0.0
