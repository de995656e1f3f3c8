"""Tokenization, frozen embedding tables, and fixed-length document encoding.

A "document" is the concatenation of all review texts belonging to one
user (or one item), encoded as exactly T token ids: truncated at T or
post-padded with the reserved pad id 0, whose vector is all zeros.
"""

import warnings
import zlib
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataFormatError, ShapeError

# Every byte but [a-z0-9] becomes a space; non-ASCII characters reach the
# table as "?" from the ASCII encoder, so they separate too.
_SEPARATE = bytes(b if chr(b) in "abcdefghijklmnopqrstuvwxyz0123456789" else 32
                  for b in range(256))

PAD_ID = 0
OOV_POLICIES = ("zero", "hash_bucket")
_OOV_BUCKETS = 16
_OOV_BUCKET_SEED = 0


def tokenize(text):
    """Lowercase tokens; anything outside [a-z0-9] separates.

    The maximal runs of [a-z0-9] in `text.lower()`, so a non-ASCII
    character that lowercases to ASCII (the Kelvin sign to "k") joins its
    neighbours.  Duplicates are kept and order is preserved — the encoders
    consume sequences, not vocabularies.
    """
    return text.lower().encode("ascii", "replace").translate(_SEPARATE) \
        .decode("ascii").split()


class EmbeddingTable:
    """Immutable token -> vector lookup.

    Row 0 is the reserved pad entry (all zeros).  Unknown tokens map to
    the pad row under the "zero" policy, or to one of 16 seeded random
    rows under "hash_bucket".  Vectors are frozen: the backing
    matrix is read-only for the lifetime of the table.
    """

    def __init__(self, dim, vectors, oov_policy="zero"):
        if dim < 1:
            raise ConfigError(f"embedding dim must be >= 1, got {dim}")
        if oov_policy not in OOV_POLICIES:
            raise ConfigError(
                f"unknown oov policy {oov_policy!r}, expected one of {OOV_POLICIES}")
        self.dim = dim
        self.oov_policy = oov_policy
        items = list(vectors.items()) if isinstance(vectors, dict) else list(vectors)
        self._ids = {}
        rows = [np.zeros(dim)]
        for token, vec in items:
            vec = np.asarray(vec, dtype=np.float64)
            if vec.shape != (dim,):
                raise ConfigError(
                    f"vector for token {token!r} has shape {vec.shape}, expected ({dim},)")
            if not np.isfinite(vec).all():
                raise ConfigError(f"vector for token {token!r} has non-finite entries")
            if token in self._ids:
                rows[self._ids[token]] = vec  # last occurrence wins
            else:
                self._ids[token] = len(rows)
                rows.append(vec)
        self.n_tokens = len(self._ids)
        self._first_bucket_id = len(rows)
        if oov_policy == "hash_bucket":
            bucket_rng = np.random.default_rng(_OOV_BUCKET_SEED)
            rows.extend(0.1 * bucket_rng.standard_normal((_OOV_BUCKETS, dim)))
        self.matrix = np.vstack(rows)
        self.matrix.setflags(write=False)

    def __len__(self):
        return self.n_tokens

    def __contains__(self, token):
        return token in self._ids

    def id_for(self, token):
        """Token id; pad or a hash bucket for out-of-vocabulary tokens."""
        known = self._ids.get(token)
        if known is not None:
            return known
        if self.oov_policy == "hash_bucket":
            bucket = zlib.crc32(token.encode("utf-8")) % _OOV_BUCKETS
            return self._first_bucket_id + bucket
        return PAD_ID

    def vector(self, token):
        return self.matrix[self.id_for(token)]


def load_embeddings(path, dim, oov_policy="zero"):
    """Read a text embedding file: one `token v1 ... v<dim>` line per entry.

    Wrong arity or a non-finite float is a format error naming the line;
    a duplicate token warns and keeps the last occurrence.
    """
    entries = []
    seen = set()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line_number, line in enumerate(fh, start=1):
                parts = line.rstrip("\n").split(" ")
                if parts == [""]:
                    continue
                if len(parts) != dim + 1:
                    raise DataFormatError(
                        f"{path}: line {line_number}: expected 1 token + {dim} floats, "
                        f"got {len(parts)} fields")
                token = parts[0]
                try:
                    vec = np.array([float(v) for v in parts[1:]])
                except ValueError as exc:
                    raise DataFormatError(
                        f"{path}: line {line_number}: bad float ({exc})") from exc
                if not np.isfinite(vec).all():
                    raise DataFormatError(
                        f"{path}: line {line_number}: non-finite embedding value")
                if token in seen:
                    warnings.warn(
                        f"{path}: line {line_number}: duplicate token {token!r}, "
                        "last occurrence wins")
                seen.add(token)
                entries.append((token, vec))
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: not UTF-8 text ({exc})") from exc
    return EmbeddingTable(dim, entries, oov_policy=oov_policy)


@dataclass(frozen=True)
class EncodedDocument:
    ids: np.ndarray  # int32, length exactly T
    n_real_tokens: int
    owner: str = ""


def _text_ids(text, table):
    """The ids of one text's tokens, in order."""
    tokens = tokenize(text)
    ids = list(map(table._ids.get, tokens))
    if None in ids:
        ids = [table.id_for(token) if i is None else i for i, token in zip(ids, tokens)]
    return ids


def build_document(texts, length, table, owner="", memo=None):
    """Concatenate the texts' tokens in list order, map to ids, pad/truncate.

    The first `length` tokens are kept; shorter streams are post-padded
    with the pad id.  Texts after the one that fills the document are not
    tokenized.  `memo`, a dict from text to ids that the caller keeps for
    one `table`, lets documents that share a text tokenize it once.
    """
    if length < 1:
        raise ConfigError(f"document length must be >= 1, got {length}")
    if memo is None:
        memo = {}
    kept = []
    for text in texts:
        text_ids = memo.get(text)
        if text_ids is None:
            text_ids = memo[text] = _text_ids(text, table)
        kept.extend(text_ids)
        if len(kept) >= length:
            del kept[length:]
            break
    ids = np.full(length, PAD_ID, dtype=np.int32)
    ids[:len(kept)] = kept
    ids.setflags(write=False)
    return EncodedDocument(ids=ids, n_real_tokens=len(kept), owner=owner)


def embed(doc, table):
    """(T, dim) matrix whose row t is the vector of ids[t]; pad rows are zero."""
    ids = doc.ids
    if ids.size and (ids.min() < 0 or ids.max() >= table.matrix.shape[0]):
        raise ShapeError(
            f"document {doc.owner!r} holds ids outside the table "
            f"(max valid {table.matrix.shape[0] - 1})")
    return table.matrix[ids]
