import numpy as np
import numpy.testing as npt
import pytest

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
    den = (sum(a * a for a in vi) ** 0.5) * (sum(b * b for b in vj) ** 0.5)
    return num / den


def brute_force_predict(ratings, users, items, user, item):
    """Weighted average over all of the user's other rated items with
    positive similarity; user-mean then global-mean fallbacks."""
    rated = [m for m in items if (user, m) in ratings and m != item]
    weighted = [(brute_force_similarity(ratings, item, m), ratings[(user, m)])
                for m in rated]
    weighted = [(s, r) for s, r in weighted if s > 0]
    if weighted:
        return sum(s * r for s, r in weighted) / sum(s for s, _ in weighted)
    mine = [ratings[(user, m)] for m in items if (user, m) in ratings]
    if mine:
        return sum(mine) / len(mine)
    all_ratings = list(ratings.values())
    return sum(all_ratings) / len(all_ratings)


def check_cf_matches_brute_force(seed):
    """predict_cf_with_source against brute_force_predict for every user
    and item of 100 random 5x5 rating matrices drawn from `seed`: within
    1e-12, over more than 500 (user, item) pairs."""
    rng = np.random.default_rng(seed)
    compared = 0
    for _ in range(100):
        triples = [(f"u{u}", f"m{m}", int(rng.integers(1, 6)))
                   for u in range(5) for m in range(5)
                   if rng.random() < 0.5]
        if not triples:
            continue
        matrix = RatingMatrix(_records(triples))
        sims = item_similarity(matrix)
        ratings = {(u, m): float(r) for u, m, r in triples}
        users = sorted({u for u, _, _ in triples})
        items = sorted(matrix.item_index)
        for user in users:
            for item in items:
                expected = brute_force_predict(ratings, users, items, user, item)
                actual, _ = predict_cf_with_source(matrix, sims, user, item)
                assert abs(actual - expected) < 1e-12
                compared += 1
    assert compared > 500


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
