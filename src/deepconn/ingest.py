"""Parse the raw review dump, group reviews per user and item, and split.

The input is newline-delimited JSON with one review object per line; only
four keys matter: reviewerID, asin, reviewText, overall.  Parsing is
lenient — bad lines become skip records, not exceptions — because real
dumps contain irregular rows.
"""

import json
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, InfeasibleSplitError

REQUIRED_KEYS = ("reviewerID", "asin", "reviewText", "overall")
SPLIT_MODES = ("by_review", "by_user_holdout")


class ReviewRecord(NamedTuple):
    user_id: str
    item_id: str
    rating: float
    text: str


@dataclass
class ParseResult:
    records: list
    skips: list = field(default_factory=list)  # (line_number, reason) pairs

    def skip_report(self):
        lines = [f"parsed {len(self.records)} records, skipped {len(self.skips)} lines"]
        for line_number, reason in self.skips:
            lines.append(f"  line {line_number}: {reason}")
        return "\n".join(lines)


def _validate_line(obj):
    """Return (record, None) or (None, reason)."""
    for key in REQUIRED_KEYS:
        if key not in obj:
            return None, f"missing required key {key!r}"
    user_id, item_id = obj["reviewerID"], obj["asin"]
    text, rating = obj["reviewText"], obj["overall"]
    if not isinstance(user_id, str) or not user_id:
        return None, "reviewerID must be a non-empty string"
    if not isinstance(item_id, str) or not item_id:
        return None, "asin must be a non-empty string"
    if not isinstance(text, str):
        return None, "reviewText must be a string"
    if isinstance(rating, bool) or not isinstance(rating, (int, float)):
        return None, "overall must be a number"
    try:
        rating = float(rating)
    except OverflowError:
        return None, "overall out of range [1, 5]: too large for a float"
    if not math.isfinite(rating) or not 1.0 <= rating <= 5.0:
        return None, f"overall out of range [1, 5]: {rating}"
    return ReviewRecord(user_id, item_id, rating, text), None


def parse_reviews(stream):
    """Read JSON-lines reviews from a file-like object or iterable of lines.

    Returns a ParseResult; every bad line is recorded as a skip.
    """
    records = []
    skips = []
    for line_number, line in enumerate(stream, start=1):
        if isinstance(line, bytes):
            line = line.decode("utf-8", errors="replace")
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            skips.append((line_number, f"invalid JSON ({exc.msg})"))
            continue
        except ValueError as exc:   # an integer past int()'s digit limit
            skips.append((line_number, f"unreadable number ({exc})"))
            continue
        if not isinstance(obj, dict):
            obj = {}
        record, reason = _validate_line(obj)
        if record is None:
            skips.append((line_number, reason))
            continue
        records.append(record)
    return ParseResult(records, skips)


def parse_reviews_file(path):
    with open(path, "rb") as fh:
        return parse_reviews(fh)


def serialize_reviews(records):
    """Inverse of parse_reviews over the four relevant keys (JSON lines)."""
    lines = []
    for r in records:
        lines.append(json.dumps({"reviewerID": r.user_id, "asin": r.item_id,
                                 "reviewText": r.text, "overall": r.rating}))
    return "\n".join(lines) + ("\n" if lines else "")


@dataclass
class ReviewGroups:
    by_user: dict  # user_id -> [(item_id, text), ...] in input order
    by_item: dict  # item_id -> [(user_id, text), ...] in input order


def group_reviews(records):
    by_user = {}
    by_item = {}
    for r in records:
        by_user.setdefault(r.user_id, []).append((r.item_id, r.text))
        by_item.setdefault(r.item_id, []).append((r.user_id, r.text))
    return ReviewGroups(by_user, by_item)


@dataclass
class Split:
    """A train/validation/test partition; train and test are never empty."""

    train: list
    validation: list
    test: list
    mode: str
    seed: int

    def __post_init__(self):
        if not self.train or not self.test:
            raise InfeasibleSplitError(
                f"{self.mode} split gives train/validation/test sizes "
                f"{len(self.train)}/{len(self.validation)}/{len(self.test)}; "
                f"train and test each need at least one record")

    def __len__(self):
        return len(self.train) + len(self.validation) + len(self.test)


@dataclass
class DatasetStats:
    n_reviews: int
    n_users: int
    n_items: int
    train_fraction: float
    test_fraction: float


def dataset_stats(records, split=None):
    """Distinct-entity counts plus the realized split fractions.

    The train fraction covers train+validation (validation is carved out
    of the training portion); with no split everything counts as train.
    """
    users = {r.user_id for r in records}
    items = {r.item_id for r in records}
    if split is None or len(records) == 0:
        test_fraction = 0.0
    else:
        test_fraction = len(split.test) / len(records)
    return DatasetStats(len(records), len(users), len(items),
                        1.0 - test_fraction, test_fraction)


def _round_half_up(x):
    return int(np.floor(x + 0.5))


def split_problems(train_fraction, validation_fraction):
    """What is wrong with a pair of split fractions, as a list of messages."""
    problems = []
    if not 0.0 < train_fraction < 1.0:
        problems.append(f"train_fraction must lie in (0, 1), got {train_fraction}")
    if not 0.0 <= validation_fraction < 1.0:
        problems.append(
            f"validation_fraction must lie in [0, 1), got {validation_fraction}")
    if train_fraction + validation_fraction >= 1.0:
        problems.append(
            "train_fraction + validation_fraction must leave room for a test set")
    return problems


def split_dataset(records, train_fraction, validation_fraction=0.0, seed=0,
                  mode="by_review"):
    """Deterministic train/validation/test partition.

    by_review: uniform shuffle under the seed, contiguous partition with
    sizes round(f * N); the test set is the remainder.

    by_user_holdout: whole users go to test (shuffled under the seed)
    until the test size target is met, so no test user is ever seen in
    training; the remaining records are split by_review between train and
    validation.

    Rounding can leave train or test without a record; that split raises
    InfeasibleSplitError.
    """
    if mode not in SPLIT_MODES:
        raise ConfigError(f"unknown split mode {mode!r}, expected one of {SPLIT_MODES}")
    if not records:
        raise ConfigError("cannot split an empty record list")
    problems = split_problems(train_fraction, validation_fraction)
    if problems:
        raise ConfigError("; ".join(problems))

    n = len(records)
    rng = np.random.default_rng(seed)
    n_train = _round_half_up(train_fraction * n)
    n_val = min(_round_half_up(validation_fraction * n), n - n_train)

    if mode == "by_review":
        order = rng.permutation(n)
        train = [records[i] for i in order[:n_train]]
        validation = [records[i] for i in order[n_train:n_train + n_val]]
        test = [records[i] for i in order[n_train + n_val:]]
        return Split(train, validation, test, mode, seed)

    # by_user_holdout
    users = list(dict.fromkeys(r.user_id for r in records))
    if len(users) < 3:
        raise InfeasibleSplitError(
            f"by_user_holdout needs at least 3 distinct users, got {len(users)}")
    per_user = {}
    for r in records:
        per_user.setdefault(r.user_id, []).append(r)
    test_target = n - n_train - n_val
    shuffled_users = [users[i] for i in rng.permutation(len(users))]
    test = []
    held_out = set()
    for user in shuffled_users:
        if len(test) >= test_target:
            break
        held_out.add(user)
        test.extend(per_user[user])
    remaining = [r for r in records if r.user_id not in held_out]
    m = len(remaining)
    # preserve the requested train:validation proportion on the remainder
    denom = train_fraction + validation_fraction
    n_val_rem = _round_half_up(validation_fraction / denom * m) if denom > 0 else 0
    order = rng.permutation(m)
    validation = [remaining[i] for i in order[:n_val_rem]]
    train = [remaining[i] for i in order[n_val_rem:]]
    return Split(train, validation, test, mode, seed)
