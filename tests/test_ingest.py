import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deepconn.errors import ConfigError, InfeasibleSplitError
from deepconn.ingest import (SPLIT_MODES, DatasetStats, ReviewRecord,
                             dataset_stats, group_reviews, parse_reviews,
                             serialize_reviews, split_dataset)
from deepconn.synthetic import make_sample_corpus


def _jsonl(*objs):
    return io.StringIO("\n".join(json.dumps(o) for o in objs) + "\n")


def _record(user="u1", item="m1", rating=5.0, text="Great"):
    return {"reviewerID": user, "asin": item, "reviewText": text, "overall": rating}


def _make_records(pairs, rating=3.0):
    return [ReviewRecord(u, m, rating, f"text {u} {m}") for u, m in pairs]


class TestParse:
    def test_field_projection_ignores_extras(self):
        line = {"reviewerID": "u1", "asin": "m1", "reviewText": "Great",
                "overall": 5.0, "helpful": [0, 0]}
        result = parse_reviews(_jsonl(line))
        assert result.records == [ReviewRecord("u1", "m1", 5.0, "Great")]
        assert result.skips == []

    def test_empty_stream(self):
        result = parse_reviews(io.StringIO(""))
        assert result.records == [] and result.skips == []

    def test_malformed_json_is_skipped_with_line_number(self):
        stream = io.StringIO(json.dumps(_record()) + "\n{oops\n" +
                             json.dumps(_record(user="u2")) + "\n")
        result = parse_reviews(stream)
        assert len(result.records) == 2
        assert len(result.skips) == 1
        assert result.skips[0][0] == 2
        assert "2" in result.skip_report()

    def test_missing_key_skipped_and_counted(self):
        broken = {"reviewerID": "u1", "asin": "m1", "overall": 5.0}
        result = parse_reviews(_jsonl(broken))
        assert result.records == []
        assert "reviewText" in result.skips[0][1]

    @pytest.mark.parametrize("rating", [0.5, 5.5, -1, float("nan"), float("inf"),
                                        float("-inf"), "five", True])
    def test_bad_rating_skipped(self, rating):
        result = parse_reviews(_jsonl(_record(rating=rating)))
        assert result.records == []
        assert len(result.skips) == 1

    def test_oversize_integer_ratings_skipped_with_a_reason(self):
        # 401 digits overflow float(); 5,001 pass int()'s digit limit,
        # where json.loads raises a plain ValueError.
        good = json.dumps(_record())
        lines = [good,
                 good.replace('"overall": 5.0', '"overall": 1' + "0" * 400),
                 good.replace('"overall": 5.0', '"overall": ' + "9" * 5001),
                 json.dumps(_record(user="u2"))]
        result = parse_reviews(io.StringIO("\n".join(lines) + "\n"))
        assert [r.user_id for r in result.records] == ["u1", "u2"]
        assert [n for n, _ in result.skips] == [2, 3]
        assert "too large for a float" in result.skips[0][1]
        assert "unreadable number" in result.skips[1][1]

    def test_empty_ids_rejected(self):
        result = parse_reviews(_jsonl(_record(user="")))
        assert result.records == []

    def test_bytes_input_accepted(self):
        raw = io.BytesIO(json.dumps(_record()).encode() + b"\n")
        assert len(parse_reviews(raw).records) == 1

    def test_serialize_parse_round_trip(self):
        records = [ReviewRecord("u1", "m1", 4.0, "nice & tidy"),
                   ReviewRecord("u2", "m2", 1.0, "unicode café ok")]
        again = parse_reviews(io.StringIO(serialize_reviews(records)))
        assert again.records == records and again.skips == []


class TestRecord:
    """`ReviewRecord` is the one record type from parse to prediction."""

    def test_fields_cannot_be_assigned(self):
        record = ReviewRecord("u1", "m1", 4.0, "fine")
        for name in ("user_id", "item_id", "rating", "text"):
            with pytest.raises(AttributeError):
                setattr(record, name, "changed")
        assert record == ReviewRecord("u1", "m1", 4.0, "fine")

    def test_equal_records_hash_equal_and_dedupe(self):
        a = ReviewRecord("u1", "m1", 4.0, "fine")
        b = ReviewRecord("u1", "m1", 4.0, "fine")
        assert a == b and a is not b and hash(a) == hash(b)
        assert {a, b, ReviewRecord("u1", "m1", 4.0, "other")} == {
            a, ReviewRecord("u1", "m1", 4.0, "other")}
        assert a != ReviewRecord("u1", "m1", 5.0, "fine")
        assert a == ("u1", "m1", 4.0, "fine")   # a record is a plain 4-tuple too

    def test_positional_order_is_user_item_rating_text(self):
        # make_sample_corpus and the parser build records by position;
        # serialize_reviews reads them by name.
        assert ReviewRecord._fields == ("user_id", "item_id", "rating", "text")
        record = ReviewRecord("u1", "m1", 4.0, "fine")
        assert (record.user_id, record.item_id, record.rating, record.text) == \
            ("u1", "m1", 4.0, "fine")
        assert json.loads(serialize_reviews([record])) == _record(
            user="u1", item="m1", rating=4.0, text="fine")
        assert parse_reviews(_jsonl(_record(user="u2", item="m2", rating=2, text="t"))
                             ).records == [ReviewRecord("u2", "m2", 2.0, "t")]
        for r in make_sample_corpus(n_reviews=20, n_users=4, n_items=3, seed=1):
            assert r.user_id.startswith("user") and r.item_id.startswith("item")
            assert isinstance(r.rating, float) and 1.0 <= r.rating <= 5.0
            assert isinstance(r.text, str) and r.text


class TestGroup:
    def test_counting_example(self):
        records = _make_records([("u1", "m1"), ("u1", "m2"), ("u2", "m1")])
        groups = group_reviews(records)
        assert {u: len(v) for u, v in groups.by_user.items()} == {"u1": 2, "u2": 1}
        assert {m: len(v) for m, v in groups.by_item.items()} == {"m1": 2, "m2": 1}

    def test_empty_input(self):
        groups = group_reviews([])
        assert groups.by_user == {} and groups.by_item == {}

    def test_count_conservation_and_mirroring(self):
        import random
        rnd = random.Random(3)
        pairs = [(f"u{rnd.randrange(8)}", f"m{rnd.randrange(5)}") for _ in range(60)]
        records = _make_records(pairs)
        groups = group_reviews(records)
        assert sum(len(v) for v in groups.by_user.values()) == 60
        assert sum(len(v) for v in groups.by_item.values()) == 60
        user_pairs = {(u, m) for u, lst in groups.by_user.items() for m, _ in lst}
        item_pairs = {(u, m) for m, lst in groups.by_item.items() for u, _ in lst}
        assert user_pairs == item_pairs

    def test_input_order_preserved_within_groups(self):
        records = _make_records([("u1", "m1"), ("u1", "m2"), ("u1", "m3")])
        assert [m for m, _ in group_reviews(records).by_user["u1"]] == \
            ["m1", "m2", "m3"]


class TestStats:
    def test_counts(self):
        records = _make_records(
            [("u1", "m1"), ("u1", "m2"), ("u2", "m3")] +
            [("u1", "m1")] * 7)
        stats = dataset_stats(records)
        assert (stats.n_reviews, stats.n_users, stats.n_items) == (10, 2, 3)

    def test_single_record(self):
        stats = dataset_stats(_make_records([("u", "m")]))
        assert (stats.n_reviews, stats.n_users, stats.n_items) == (1, 1, 1)

    def test_fractions_from_split(self):
        records = _make_records([(f"u{i}", f"m{i}") for i in range(10)])
        split = split_dataset(records, 0.9, 0.0, seed=1)
        stats = dataset_stats(records, split)
        assert stats.train_fraction == pytest.approx(0.9)
        assert stats.test_fraction == pytest.approx(0.1)
        assert stats.train_fraction + stats.test_fraction == 1.0


class TestSplit:
    def test_rounding_example(self):
        records = _make_records([(f"u{i}", f"m{i}") for i in range(10)])
        split = split_dataset(records, 0.9, 0.0, seed=7)
        assert (len(split.train), len(split.validation), len(split.test)) == (9, 0, 1)

    def test_partition_is_exact_and_disjoint(self):
        records = _make_records([(f"u{i % 6}", f"m{i % 4}") for i in range(37)])
        split = split_dataset(records, 0.7, 0.1, seed=11)
        assert len(split) == 37
        ids = lambda part: {id(r) for r in part}
        assert not ids(split.train) & ids(split.test)
        assert not ids(split.train) & ids(split.validation)
        assert not ids(split.validation) & ids(split.test)
        assert sorted((r.user_id, r.item_id) for r in
                      split.train + split.validation + split.test) == \
            sorted((r.user_id, r.item_id) for r in records)

    def test_same_seed_same_split(self):
        records = _make_records([(f"u{i}", f"m{i}") for i in range(25)])
        a = split_dataset(records, 0.8, 0.1, seed=42)
        b = split_dataset(records, 0.8, 0.1, seed=42)
        assert a == b

    def test_different_seed_differs(self):
        records = _make_records([(f"u{i}", f"m{i}") for i in range(50)])
        a = split_dataset(records, 0.8, 0.0, seed=1)
        b = split_dataset(records, 0.8, 0.0, seed=2)
        assert a.train != b.train  # astronomically unlikely to collide

    def test_user_holdout_takes_whole_users(self):
        pairs = [(f"u{u}", f"m{i}") for u in range(4) for i in range(5)]
        records = _make_records(pairs)
        split = split_dataset(records, 0.75, 0.0, seed=3, mode="by_user_holdout")
        assert len(split.test) == 5
        test_users = {r.user_id for r in split.test}
        assert len(test_users) == 1
        train_val_users = {r.user_id for r in split.train + split.validation}
        assert not test_users & train_val_users

    def test_user_holdout_disjointness_random_case(self):
        import random
        rnd = random.Random(9)
        pairs = [(f"u{rnd.randrange(20)}", f"m{rnd.randrange(30)}")
                 for _ in range(300)]
        records = _make_records(pairs)
        split = split_dataset(records, 0.7, 0.1, seed=5, mode="by_user_holdout")
        test_users = {r.user_id for r in split.test}
        other_users = {r.user_id for r in split.train + split.validation}
        assert not test_users & other_users
        assert len(split) == 300

    @pytest.mark.parametrize("mode", SPLIT_MODES)
    @pytest.mark.parametrize("n,train,val,sizes", [
        (4, 0.7, 0.29, "3/1/0"),     # rounding up train and validation
        (20, 0.9, 0.09, "18/2/0"),   # leaves no test record
        (4, 0.1, 0.0, "0/0/4"),      # rounding down leaves no train record
    ])
    def test_empty_train_or_test_is_infeasible(self, mode, n, train, val, sizes):
        records = _make_records([(f"u{i}", f"m{i}") for i in range(n)])
        with pytest.raises(InfeasibleSplitError, match=f"sizes {sizes};"):
            split_dataset(records, train, val, seed=0, mode=mode)

    def test_user_holdout_needs_three_users(self):
        records = _make_records([("u1", "m1"), ("u2", "m2")])
        with pytest.raises(InfeasibleSplitError):
            split_dataset(records, 0.5, 0.0, seed=0, mode="by_user_holdout")

    @pytest.mark.parametrize("train,val", [(0.0, 0.1), (1.0, 0.0), (-0.2, 0.0),
                                           (0.5, 0.6), (0.5, -0.1), (0.5, 0.5)])
    def test_invalid_fractions(self, train, val):
        records = _make_records([("u1", "m1")] * 4)
        with pytest.raises(ConfigError):
            split_dataset(records, train, val, seed=0)

    def test_empty_records_rejected(self):
        with pytest.raises(ConfigError):
            split_dataset([], 0.9, 0.0, seed=0)

    @given(n=st.integers(4, 60), seed=st.integers(0, 1000),
           train=st.floats(0.05, 0.9), val_share=st.floats(0.0, 0.95),
           mode=st.sampled_from(SPLIT_MODES))
    @settings(max_examples=60, deadline=None)
    def test_partition_property(self, n, seed, train, val_share, mode):
        val = (1.0 - train) * val_share  # always leaves room for a test set
        records = _make_records([(f"u{i % 7}", f"m{i % 5}") for i in range(n)])
        try:
            split = split_dataset(records, train, val, seed=seed, mode=mode)
        except InfeasibleSplitError:
            return
        assert split.train and split.test
        parts = [{id(r) for r in part}
                 for part in (split.train, split.validation, split.test)]
        # Complete and disjoint: every record lands in exactly one part.
        assert sum(map(len, parts)) == len(split) == n
        assert set().union(*parts) == {id(r) for r in records}
        if mode == "by_user_holdout":
            test_users = {r.user_id for r in split.test}
            assert not test_users & {r.user_id
                                     for r in split.train + split.validation}
