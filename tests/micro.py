"""Text-free fixtures: document stores built from dense (T, d) matrices,
and a micro-dataset driven by a planted bilinear rating rule (capacity and
timing experiments)."""

import numpy as np

from deepconn.text import EmbeddingTable, EncodedDocument
from deepconn.train import DocumentStore, RatedPair


def store_from_documents(user_documents, item_documents, global_mean):
    """A store over precomputed (T, d) matrices keyed by entity id: its
    table holds their rows, and each entity's ids are its own block."""
    store = DocumentStore.__new__(DocumentStore)
    store._user_documents, store._item_documents = {}, {}
    rows = []
    for documents, matrices in ((store._user_documents, user_documents),
                                (store._item_documents, item_documents)):
        for entity_id, matrix in matrices.items():
            start = 1 + len(rows)
            ids = np.arange(start, start + len(matrix), dtype=np.int32)
            documents[entity_id] = EncodedDocument(ids, len(matrix), entity_id)
            rows.extend(matrix)
    store.table = EmbeddingTable(len(rows[0]), enumerate(rows))
    store.global_mean = global_mean
    return store


def make_micro_dataset(n_users=20, n_items=10, noise=0.1, doc_length=16,
                       dim=8, seed=0):
    """Planted bilinear rule: rating = 3 + a_u . b_i + N(0, noise).

    Every row of a user's document carries the user latent a_u in the
    first coordinates (items likewise), plus light clutter, so a twin
    tower reading the documents can recover the rule.  Returns
    (pairs, store) with one pair per (user, item) combination; the store's
    table rows are the documents' rows, one block of ids per entity.
    """
    rng = np.random.default_rng(seed)
    latent = 2
    a = rng.uniform(-0.7, 0.7, (n_users, latent))
    b = rng.uniform(-0.7, 0.7, (n_items, latent))

    def document(entity_latent):
        doc = 0.02 * rng.standard_normal((doc_length, dim))
        doc[:, :latent] += entity_latent
        return doc

    user_documents = {f"u{k}": document(a_u) for k, a_u in enumerate(a)}
    item_documents = {f"m{k}": document(b_i) for k, b_i in enumerate(b)}
    pairs = []
    for u in range(n_users):
        for i in range(n_items):
            rating = 3.0 + float(a[u] @ b[i]) + noise * rng.standard_normal()
            pairs.append(RatedPair(f"u{u}", f"m{i}", float(np.clip(rating, 1.0, 5.0))))
    mean = float(np.mean([p.rating for p in pairs]))
    return pairs, store_from_documents(user_documents, item_documents, mean)
