import re

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deepconn.errors import ConfigError, DataFormatError, ShapeError
from deepconn.text import (OOV_POLICIES, PAD_ID, EmbeddingTable, build_document,
                           embed, load_embeddings, tokenize)


class TestTokenize:
    def test_punctuation_separates(self):
        assert tokenize("Great movie!! A+") == ["great", "movie", "a"]

    def test_empty_text(self):
        assert tokenize("") == []

    def test_apostrophe_is_a_separator(self):
        assert tokenize("Don't stop") == ["don", "t", "stop"]

    def test_digits_kept(self):
        assert tokenize("10/10 would watch se7en again") == \
            ["10", "10", "would", "watch", "se7en", "again"]

    def test_duplicates_kept_in_order(self):
        assert tokenize("good good bad good") == ["good", "good", "bad", "good"]

    def test_characters_that_lowercase_to_ascii_join_tokens(self):
        # the Kelvin sign lowercases to "k"; "İ" to "i" and a combining dot
        assert tokenize("\u212aey ß ﬁne İt") == ["key", "ne", "i", "t"]

    @given(st.text(st.one_of(st.characters(exclude_categories=()),
                             st.sampled_from("azAZ09 -'\u0130\u212a\u00df\ufb01"))))
    @settings(max_examples=500, deadline=None)
    def test_tokens_are_the_alphanumeric_runs_of_the_lowered_text(self, text):
        # the definition, as the regular expression it is written in
        assert tokenize(text) == re.findall(r"[a-z0-9]+", text.lower())

    @given(st.text(max_size=200))
    @settings(max_examples=100, deadline=None)
    def test_idempotent_on_own_output(self, text):
        tokens = tokenize(text)
        assert tokenize(" ".join(tokens)) == tokens


def _toy_table(dim=4, oov_policy="zero"):
    vectors = {
        "good": np.arange(1, dim + 1, dtype=float),
        "film": -np.ones(dim),
        "bad": np.full(dim, 0.5),
    }
    return EmbeddingTable(dim, vectors, oov_policy=oov_policy)


class TestEmbeddingTable:
    def test_pad_row_is_zero(self):
        table = _toy_table()
        npt.assert_array_equal(table.matrix[PAD_ID], np.zeros(4))

    def test_known_token_lookup(self):
        table = _toy_table()
        npt.assert_array_equal(table.vector("good"), [1.0, 2.0, 3.0, 4.0])
        assert "good" in table and "unknown" not in table
        assert len(table) == 3

    def test_matrix_is_frozen(self):
        table = _toy_table()
        with pytest.raises(ValueError):
            table.matrix[1, 0] = 99.0

    def test_oov_zero_policy_maps_to_pad(self):
        table = _toy_table(oov_policy="zero")
        assert table.id_for("zzz") == PAD_ID
        npt.assert_array_equal(table.vector("zzz"), np.zeros(4))

    def test_oov_hash_bucket_policy(self):
        table = _toy_table(oov_policy="hash_bucket")
        i1 = table.id_for("zzz")
        assert i1 == table.id_for("zzz")  # deterministic
        assert i1 >= table._first_bucket_id
        assert np.any(table.vector("zzz") != 0.0)

    def test_wrong_vector_arity_rejected(self):
        with pytest.raises(ConfigError):
            EmbeddingTable(4, {"tok": np.zeros(3)})

    def test_non_finite_vector_rejected(self):
        with pytest.raises(ConfigError):
            EmbeddingTable(2, {"tok": np.array([1.0, np.inf])})


class TestLoadEmbeddings:
    def _write(self, tmp_path, lines):
        path = tmp_path / "emb.txt"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    def test_three_valid_lines(self, tmp_path):
        dim = 50
        lines = [f"tok{i} " + " ".join(["0.125"] * dim) for i in range(3)]
        table = load_embeddings(self._write(tmp_path, lines), dim)
        assert len(table) == 3
        assert table.dim == 50

    def test_arity_error_names_line(self, tmp_path):
        path = self._write(tmp_path, ["the 0.1 0.2"])
        with pytest.raises(DataFormatError, match="line 1"):
            load_embeddings(path, 50)

    def test_bad_float_and_non_finite(self, tmp_path):
        path = self._write(tmp_path, ["a 0.1 zz"])
        with pytest.raises(DataFormatError):
            load_embeddings(path, 2)
        path2 = self._write(tmp_path, ["a 0.1 inf"])
        with pytest.raises(DataFormatError):
            load_embeddings(path2, 2)

    def test_duplicate_token_warns_last_wins(self, tmp_path):
        path = self._write(tmp_path, ["a 1.0 1.0", "a 2.0 2.0"])
        with pytest.warns(UserWarning, match="duplicate token"):
            table = load_embeddings(path, 2)
        npt.assert_array_equal(table.vector("a"), [2.0, 2.0])
        assert len(table) == 1


class TestBuildDocument:
    def test_padding(self):
        table = _toy_table()
        doc = build_document(["good film good bad good"], 8, table)
        assert doc.n_real_tokens == 5
        assert len(doc.ids) == 8
        assert all(doc.ids[5:] == PAD_ID)
        assert all(doc.ids[:5] != PAD_ID)

    def test_truncation_keeps_head(self):
        table = _toy_table()
        doc = build_document(["good " * 10], 8, table)
        assert doc.n_real_tokens == 8
        assert all(doc.ids == table.id_for("good"))

    def test_texts_concatenate_in_list_order(self):
        table = _toy_table()
        doc = build_document(["good film", "good"], 8, table)
        expected = [table.id_for(t) for t in ["good", "film", "good"]]
        assert list(doc.ids[:3]) == expected

    def test_empty_input_is_all_pad(self):
        doc = build_document([], 5, _toy_table())
        assert doc.n_real_tokens == 0
        assert all(doc.ids == PAD_ID)

    def test_invalid_length(self):
        with pytest.raises(ConfigError):
            build_document(["x"], 0, _toy_table())

    @given(n_tokens=st.integers(0, 40), T=st.integers(1, 20))
    @settings(max_examples=60, deadline=None)
    def test_output_length_always_exact(self, n_tokens, T):
        table = _toy_table()
        doc = build_document(["good " * n_tokens], T, table)
        assert len(doc.ids) == T
        assert doc.n_real_tokens == min(n_tokens, T)

    @given(texts=st.lists(st.lists(st.sampled_from(
               ["good", "film", "bad", "dull", "x9", "GOOD", "!", "film's"]),
               max_size=12).map(" ".join), max_size=6),
           T=st.integers(1, 30), oov_policy=st.sampled_from(OOV_POLICIES))
    @settings(max_examples=150, deadline=None)
    def test_matches_per_token_loop(self, texts, T, oov_policy):
        table = _toy_table(oov_policy=oov_policy)
        doc = build_document(texts, T, table)
        kept = [token for text in texts for token in tokenize(text)][:T]
        ids = np.full(T, PAD_ID, dtype=np.int32)
        for i, token in enumerate(kept):
            ids[i] = table.id_for(token)
        assert doc.ids.dtype == np.int32
        npt.assert_array_equal(doc.ids, ids)
        assert doc.n_real_tokens == len(kept)


class TestEmbed:
    def test_all_pad_document_is_zero_matrix(self):
        table = _toy_table()
        doc = build_document([], 4, table)
        npt.assert_array_equal(embed(doc, table), np.zeros((4, 4)))

    def test_rows_are_token_vectors(self):
        table = _toy_table()
        doc = build_document(["good film"], 2, table)
        mat = embed(doc, table)
        npt.assert_array_equal(mat[0], table.vector("good"))
        npt.assert_array_equal(mat[1], table.vector("film"))

    def test_oov_row_is_zero_under_zero_policy(self):
        table = _toy_table(oov_policy="zero")
        doc = build_document(["unknowntoken good"], 2, table)
        mat = embed(doc, table)
        npt.assert_array_equal(mat[0], np.zeros(4))
        npt.assert_array_equal(mat[1], table.vector("good"))

    def test_id_out_of_range(self):
        table = _toy_table()
        from deepconn.text import EncodedDocument
        bad = EncodedDocument(ids=np.array([999], dtype=np.int32), n_real_tokens=1)
        with pytest.raises(ShapeError):
            embed(bad, table)

    def test_embedding_output_is_writable_copy(self):
        table = _toy_table()
        doc = build_document(["good"], 2, table)
        mat = embed(doc, table)
        mat[0, 0] = 123.0  # a copy; the frozen table must not change
        npt.assert_array_equal(table.vector("good"), [1.0, 2.0, 3.0, 4.0])
