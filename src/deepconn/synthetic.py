"""Synthetic corpora with planted, learnable structure.

A review-text corpus with a 50-token vocabulary whose embedding file and
JSON-lines dump exercise the full ingest/tokenize/embed pipeline offline.
"""

import numpy as np

from .ingest import ReviewRecord

POSITIVE_TOKENS = ["great", "excellent", "loved", "perfect", "wonderful",
                   "amazing", "fantastic", "brilliant", "superb", "enjoyable"]
NEGATIVE_TOKENS = ["terrible", "awful", "boring", "waste", "poor",
                   "disappointing", "bad", "worst", "dull", "mediocre"]
ACTION_TOKENS = ["action", "thriller", "explosive", "chase", "fight",
                 "intense", "adrenaline", "gritty", "suspense", "stunts"]
DRAMA_TOKENS = ["romance", "heartfelt", "drama", "emotional", "tender",
                "family", "touching", "warm", "love", "relationship"]
FILLER_TOKENS = ["movie", "film", "watch", "story", "plot",
                 "scene", "acting", "series", "episode", "show"]

VOCABULARY = (POSITIVE_TOKENS + NEGATIVE_TOKENS + ACTION_TOKENS
              + DRAMA_TOKENS + FILLER_TOKENS)


def make_token_vectors(dim=50, seed=7):
    """One vector per vocabulary token.

    Coordinate 0 encodes sentiment polarity, coordinates 1-2 encode the
    two genre axes; the rest is uniform clutter, GloVe-ish in scale.
    """
    rng = np.random.default_rng(seed)
    vectors = {}
    for token in VOCABULARY:
        vec = rng.uniform(-0.4, 0.4, dim)
        if token in POSITIVE_TOKENS:
            vec[0] = 1.0 + 0.1 * rng.standard_normal()
        elif token in NEGATIVE_TOKENS:
            vec[0] = -1.0 + 0.1 * rng.standard_normal()
        if token in ACTION_TOKENS:
            vec[1] = 1.0 + 0.1 * rng.standard_normal()
        elif token in DRAMA_TOKENS:
            vec[2] = 1.0 + 0.1 * rng.standard_normal()
        vectors[token] = vec
    return vectors


def make_sample_corpus(n_reviews=1000, n_users=50, n_items=40, seed=13):
    """Review records whose text predicts the rating.

    Items have a quality offset and a genre mix, users have a genre
    taste; ratings are the usual integral 1-5 stars.  Sentiment tokens
    track the awarded rating and genre tokens track the item's mix, so
    both user and item documents carry signal.
    """
    rng = np.random.default_rng(seed)
    quality = 0.9 * rng.standard_normal(n_items)
    genre_mix = rng.dirichlet([1.0, 1.0], size=n_items)       # per-item (action, drama)
    taste = rng.uniform(-0.8, 0.8, (n_users, 2))

    # Deterministic pairing that covers every user and item before the
    # random remainder: user k reviews items in a per-user shuffled cycle.
    item_cycles = [rng.permutation(n_items) for _ in range(n_users)]
    positions = [0] * n_users
    records = []
    for k in range(n_reviews):
        u = k % n_users
        i = int(item_cycles[u][positions[u] % n_items])
        positions[u] += 1
        raw = (3.2 + quality[i] + 1.0 * float(taste[u] @ genre_mix[i])
               + 0.4 * rng.standard_normal())
        rating = float(np.clip(np.round(raw), 1.0, 5.0))
        records.append(ReviewRecord(f"user{u:03d}", f"item{i:03d}", rating,
                                    _review_text(rng, rating, genre_mix[i])))
    return records


def _review_text(rng, rating, mix):
    n_tokens = int(rng.integers(12, 26))
    p_positive = (rating - 1.0) / 4.0
    words = []
    for _ in range(n_tokens):
        roll = rng.random()
        if roll < 0.35:
            pool = POSITIVE_TOKENS if rng.random() < p_positive else NEGATIVE_TOKENS
        elif roll < 0.60:
            pool = ACTION_TOKENS if rng.random() < mix[0] else DRAMA_TOKENS
        else:
            pool = FILLER_TOKENS
        words.append(pool[int(rng.integers(len(pool)))])
    return " ".join(words)


def embedding_file_text(dim=50, seed=7):
    """The token vectors in the standard text format (token + floats)."""
    vectors = make_token_vectors(dim=dim, seed=seed)
    lines = []
    for token, vec in vectors.items():
        lines.append(token + " " + " ".join(f"{v:.6f}" for v in vec))
    return "\n".join(lines) + "\n"
