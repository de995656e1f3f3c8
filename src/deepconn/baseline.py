"""Item-item collaborative filtering baseline.

Similarity between two items is the cosine of their rating vectors
restricted to users who rated BOTH items (not zero-filled full columns —
the two conventions disagree whenever co-raters are a strict subset).
Prediction is a similarity-weighted average over the user's rated items,
with mean-rating fallbacks when no positive-similarity neighbor exists.

Everything works from the matrix's nonzeros, so the cost follows the
ratings that exist rather than the matrix's size: the similarities walk
each user's pairs of co-rated items (Linden, Smith & York 2003), and the
evaluator scores every test pair in one batched pass.
"""

from functools import cached_property

import numpy as np

from .errors import ConfigError, UnknownEntityError

# At most this many co-rated pairs are generated at once (three int64 and
# three float64 arrays of this length); a user with more pairs of their
# own forms a block alone.
PAIR_BLOCK = 1 << 18

SOURCES = ("cf", "user_mean", "global_mean")


class RatingMatrix:
    """User x item ratings from review records, kept as their nonzeros.

    Row u's rated items are `columns[indptr[u]:indptr[u + 1]]`, ascending,
    with their `ratings` alongside (row-major order).  Duplicate (user,
    item) pairs keep the last rating and are counted in `n_overwritten`.
    Ratings are positive (ingest keeps [1, 5]); a rating <= 0 leaves the
    pair unrated.
    """

    def __init__(self, records):
        self.user_index = {}
        self.item_index = {}
        users, items, ratings = [], [], []
        for r in records:
            users.append(self.user_index.setdefault(r.user_id, len(self.user_index)))
            items.append(self.item_index.setdefault(r.item_id, len(self.item_index)))
            ratings.append(r.rating)
        keys = np.array(users, dtype=np.int64) * self.n_items \
            + np.array(items, dtype=np.int64)
        ratings = np.array(ratings, dtype=np.float64)
        order = np.argsort(keys, kind="stable")   # equal keys keep record order
        keys, ratings = keys[order], ratings[order]
        repeated = keys[1:] == keys[:-1]
        self.n_overwritten = int(np.count_nonzero(repeated & (ratings[:-1] != 0.0)))
        last = np.append(~repeated, True)
        rated = last & (ratings > 0)
        keys = keys[rated]
        self.ratings = ratings[rated]
        self.columns = keys % self.n_items
        self.indptr = np.searchsorted(keys // self.n_items, np.arange(self.n_users + 1))
        self.global_mean = float(self.ratings.mean()) if len(self.ratings) else 0.0

    @property
    def n_users(self):
        return len(self.user_index)

    @property
    def n_items(self):
        return len(self.item_index)

    @cached_property
    def values(self):
        """The dense (n_users, n_items) matrix; 0 marks "unrated"."""
        values = np.zeros((self.n_users, self.n_items))
        rows = np.repeat(np.arange(self.n_users), np.diff(self.indptr))
        values[rows, self.columns] = self.ratings
        return values

    def user_mean(self, user_id):
        return self._row_mean(self.user_index[user_id])

    def _row_mean(self, u):
        row = self.ratings[self.indptr[u]:self.indptr[u + 1]]
        return float(row.mean()) if len(row) else self.global_mean


def _ranges(starts, lengths):
    """The concatenation of arange(s, s + n) for each (s, n)."""
    offsets = np.cumsum(lengths) - lengths
    return np.repeat(starts - offsets, lengths) + np.arange(lengths.sum())


def _co_rated_pairs(indptr):
    """(first, second) positions into the nonzeros of every pair of items
    one user rated, first < second, a block of users at a time: a block
    holds at most PAIR_BLOCK pairs, or one user who has more."""
    n = np.diff(indptr)
    through = np.cumsum(n * (n - 1) // 2)   # pairs of users 0..u
    lo = 0
    while lo < len(n):
        before = through[lo - 1] if lo else 0
        hi = max(lo + 1, int(np.searchsorted(through, before + PAIR_BLOCK, "right")))
        first = np.arange(indptr[lo], indptr[hi])
        partners = np.repeat(indptr[lo + 1:hi + 1], n[lo:hi]) - first - 1
        yield np.repeat(first, partners), _ranges(first + 1, partners)
        lo = hi


def item_similarity(matrix):
    """Dense M x M cosine similarity over co-rater-restricted vectors.

    sim(i, j) = (m_i . m_j) / (||m_i|| ||m_j||) with both vectors indexed
    by users who rated both items; no co-raters gives 0 by convention.
    Returned matrix is exactly symmetric with ones on the diagonal for
    rated items.

    For each user and each pair i < j of their rated items, r_i r_j, r_i^2
    and r_j^2 are summed into the pair's three totals, so the work grows
    with sum_u n_u^2, the number of co-rated pairs.  At most three M x M
    float64 arrays are alive at once: the totals (a fourth, one block's
    sums, while a later block is added), then the cosines and the result.
    """
    M = matrix.n_items
    columns, ratings = matrix.columns, matrix.ratings
    totals = [None, None, None]   # dots, sum r_i^2 and sum r_j^2 per pair i < j
    for first, second in _co_rated_pairs(matrix.indptr):
        keys = columns[first] * M + columns[second]   # row-major: i < j
        r_i, r_j = ratings[first], ratings[second]
        for k, w in enumerate((r_i * r_j, r_i * r_i, r_j * r_j)):
            if totals[k] is None:   # float64 even for a block without pairs
                totals[k] = np.bincount(keys, w, minlength=M * M).astype(float, copy=False)
            else:
                totals[k] += np.bincount(keys, w, minlength=M * M)
    if totals[0] is None:
        totals = [np.zeros(M * M) for _ in totals]
    dots, denom, sq_j = totals
    del totals
    denom *= sq_j
    del sq_j
    np.sqrt(denom, out=denom)
    # cosines only where the pair has co-raters; elsewhere, the lower
    # triangle included, dots is already 0
    np.divide(dots, denom, out=dots, where=denom > 0.0)
    del denom
    upper = dots.reshape(M, M)
    sims = upper + upper.T
    rated_items = np.bincount(columns, minlength=M) > 0
    np.fill_diagonal(sims, np.where(rated_items, 1.0, 0.0))
    return sims


def _check_k(k):
    if k is not None and k < 1:
        raise ConfigError(f"neighborhood size k must be >= 1, got {k}")


def _score(matrix, sims, users, targets, k):
    """(values, sources) for known user rows `users` and item columns
    `targets` (-1 for an item the matrix lacks); sources index SOURCES.

    Each pair's neighbors are its user's rated items other than the target
    with positive similarity to it, ordered by similarity descending and
    then column, and cut to the first k when k is given.
    """
    P = len(users)
    lengths = np.where(targets >= 0, matrix.indptr[users + 1] - matrix.indptr[users], 0)
    pair = np.repeat(np.arange(P), lengths)
    positions = _ranges(matrix.indptr[users], lengths)
    columns = matrix.columns[positions]
    weights = sims[targets[pair], columns]
    keep = (columns != targets[pair]) & (weights > 0.0)
    pair, columns, weights = pair[keep], columns[keep], weights[keep]
    ratings = matrix.ratings[positions[keep]]
    order = np.lexsort((columns, -weights, pair))
    pair, weights, ratings = pair[order], weights[order], ratings[order]
    if k is not None:
        first = np.searchsorted(pair, pair)   # each pair's first neighbor
        top = np.arange(len(pair)) - first < k
        pair, weights, ratings = pair[top], weights[top], ratings[top]
    has_neighbors = np.bincount(pair, minlength=P) > 0
    values = np.empty(P)
    sources = np.zeros(P, dtype=np.intp)
    numerators = np.bincount(pair, weights * ratings, minlength=P)
    denominators = np.bincount(pair, weights, minlength=P)
    values[has_neighbors] = numerators[has_neighbors] / denominators[has_neighbors]
    for n in np.flatnonzero(~has_neighbors):
        values[n] = matrix._row_mean(users[n])
        sources[n] = 1 if matrix.indptr[users[n] + 1] > matrix.indptr[users[n]] else 2
    return values, sources


def predict_cf_with_source(matrix, sims, user_id, item_id, k=None):
    """Similarity-weighted rating estimate for (user, item), and which rule
    produced it: "cf", "user_mean", or "global_mean".

    Neighbors are the user's rated items (the target itself excluded)
    with positive similarity to the target, trimmed to the top-k most
    similar when k is given.  Empty neighborhood falls back to the user's
    mean rating, then to the global mean.
    """
    _check_k(k)
    if user_id not in matrix.user_index:
        raise UnknownEntityError(f"unknown user {user_id!r}")
    values, sources = _score(matrix, sims,
                             np.array([matrix.user_index[user_id]]),
                             np.array([matrix.item_index.get(item_id, -1)]), k)
    return float(values[0]), SOURCES[sources[0]]


def similarity_table_text(matrix, sims):
    """The similarity matrix as a readable text table (item ids as labels)."""
    items = [item for item, _ in sorted(matrix.item_index.items(),
                                        key=lambda kv: kv[1])]
    width = max((len(i) for i in items), default=4)
    width = max(width, 6)
    lines = [" " * width + " " + " ".join(f"{item:>{width}}" for item in items)]
    for item, row in zip(items, sims):
        cells = " ".join(f"{value:>{width}.4f}" for value in row)
        lines.append(f"{item:>{width}} {cells}")
    return "\n".join(lines) + "\n"


def evaluate_cf(matrix, sims, pairs, k=None):
    """MSE of the CF predictor over (user, item, rating) test records.

    Users absent from the training matrix fall back to the global mean.
    Returns (mse, counters) where counters tallies the prediction source.
    Every pair is scored in one batched pass, as `predict_cf_with_source`
    scores one.
    """
    if not pairs:
        raise ConfigError("cannot evaluate on an empty pair list")
    _check_k(k)
    users = np.array([matrix.user_index.get(p.user_id, -1) for p in pairs])
    targets = np.array([matrix.item_index.get(p.item_id, -1) for p in pairs])
    known = users >= 0
    values = np.full(len(pairs), matrix.global_mean)
    values[known], sources = _score(matrix, sims, users[known], targets[known], k)
    tally = np.bincount(sources, minlength=len(SOURCES))
    counters = {name: int(n) for name, n in zip(SOURCES, tally)}
    counters["unknown_user"] = int(np.count_nonzero(~known))
    errors = np.array([p.rating for p in pairs]) - values
    return float(np.mean(errors ** 2)), counters
