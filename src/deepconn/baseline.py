"""Item-item collaborative filtering baseline.

Similarity between two items is the cosine of their rating vectors
restricted to users who rated BOTH items (not zero-filled full columns —
the two conventions disagree whenever co-raters are a strict subset).
Prediction is a similarity-weighted average over the user's rated items,
with mean-rating fallbacks when no positive-similarity neighbor exists.
"""

import numpy as np

from .errors import ConfigError, UnknownEntityError


class RatingMatrix:
    """User x item ratings from review records; 0 marks "unrated".

    Duplicate (user, item) pairs keep the last rating and are counted in
    `n_overwritten`.
    """

    def __init__(self, records):
        self.user_index = {}
        self.item_index = {}
        for r in records:
            self.user_index.setdefault(r.user_id, len(self.user_index))
            self.item_index.setdefault(r.item_id, len(self.item_index))
        self.values = np.zeros((len(self.user_index), len(self.item_index)))
        self.n_overwritten = 0
        for r in records:
            u = self.user_index[r.user_id]
            i = self.item_index[r.item_id]
            if self.values[u, i] != 0.0:
                self.n_overwritten += 1
            self.values[u, i] = r.rating
        rated = self.values > 0
        self.global_mean = float(self.values[rated].mean()) if rated.any() else 0.0

    @property
    def n_users(self):
        return len(self.user_index)

    @property
    def n_items(self):
        return len(self.item_index)

    def user_mean(self, user_id):
        u = self.user_index[user_id]
        row = self.values[u]
        rated = row > 0
        return float(row[rated].mean()) if rated.any() else self.global_mean


def item_similarity(matrix):
    """Dense M x M cosine similarity over co-rater-restricted vectors.

    sim(i, j) = (m_i . m_j) / (||m_i|| ||m_j||) with both vectors indexed
    by users who rated both items; no co-raters gives 0 by convention.
    Returned matrix is exactly symmetric with ones on the diagonal for
    rated items.
    """
    R = matrix.values
    mask = (R > 0).astype(np.float64)
    # Unrated entries are 0, so the plain product already restricts the
    # numerator to co-raters; only the norms need explicit restriction.
    dots = R.T @ R
    sq = R * R
    restricted_sqnorm = sq.T @ mask  # [i, j] = sum_u R_ui^2 over raters of j
    denom = np.sqrt(restricted_sqnorm * restricted_sqnorm.T)
    with np.errstate(invalid="ignore", divide="ignore"):
        sims = np.where(denom > 0.0, dots / np.where(denom > 0, denom, 1.0), 0.0)
    # one value per unordered pair: mirror the upper triangle
    upper = np.triu(sims, 1)
    sims = upper + upper.T
    rated_items = mask.any(axis=0)
    np.fill_diagonal(sims, np.where(rated_items, 1.0, 0.0))
    return sims


def predict_cf_with_source(matrix, sims, user_id, item_id, k=None):
    """Similarity-weighted rating estimate for (user, item), and which rule
    produced it: "cf", "user_mean", or "global_mean".

    Neighbors are the user's rated items (the target itself excluded)
    with positive similarity to the target, trimmed to the top-k most
    similar when k is given.  Empty neighborhood falls back to the user's
    mean rating, then to the global mean.
    """
    if k is not None and k < 1:
        raise ConfigError(f"neighborhood size k must be >= 1, got {k}")
    if user_id not in matrix.user_index:
        raise UnknownEntityError(f"unknown user {user_id!r}")
    u = matrix.user_index[user_id]
    target = matrix.item_index.get(item_id)

    if target is not None:
        row = matrix.values[u]
        rated = np.nonzero(row > 0)[0]
        neighbors = [(float(sims[target, j]), j) for j in rated
                     if j != target and sims[target, j] > 0.0]
        if neighbors:
            # deterministic top-k: similarity descending, column index tie-break
            neighbors.sort(key=lambda sj: (-sj[0], sj[1]))
            if k is not None:
                neighbors = neighbors[:k]
            weights = np.array([s for s, _ in neighbors])
            ratings = np.array([row[j] for _, j in neighbors])
            return float(weights @ ratings / weights.sum()), "cf"

    row = matrix.values[u]
    if (row > 0).any():
        return matrix.user_mean(user_id), "user_mean"
    return matrix.global_mean, "global_mean"


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
    """
    if not pairs:
        raise ConfigError("cannot evaluate on an empty pair list")
    counters = {"cf": 0, "user_mean": 0, "global_mean": 0, "unknown_user": 0}
    errors = np.empty(len(pairs))
    for n, record in enumerate(pairs):
        if record.user_id in matrix.user_index:
            value, source = predict_cf_with_source(
                matrix, sims, record.user_id, record.item_id, k)
            counters[source] += 1
        else:
            value = matrix.global_mean
            counters["unknown_user"] += 1
        errors[n] = record.rating - value
    return float(np.mean(errors ** 2)), counters
