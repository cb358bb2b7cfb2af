"""Tests for the text substrate: tokenize, patterns, distance, embeddings."""

import numpy as np
import pytest

from repro.text.distance import levenshtein, within_edit_distance
from repro.text.embeddings import SubwordHashEmbedding
from repro.text.patterns import all_levels, generalize
from repro.text.tokenize import char_ngrams, tokenize


class TestTokenize:
    def test_basic_split_and_lowercase(self):
        assert tokenize("Hello World") == ["hello", "world"]

    def test_stop_words_removed(self):
        assert tokenize("the cat and dog") == ["cat", "dog"]

    def test_stop_words_kept_when_disabled(self):
        assert "the" in tokenize("the cat", remove_stop_words=False)

    def test_camel_case_split(self):
        assert tokenize("DaveGreen") == ["dave", "green"]

    def test_punctuation_split(self):
        assert tokenize("a.b-c_d") == ["b", "c", "d"]  # 'a' is a stop word

    def test_empty(self):
        assert tokenize("") == []

    def test_numeric_tokens_kept(self):
        assert tokenize("123 main") == ["123", "main"]


class TestCharNgrams:
    def test_boundary_markers(self):
        grams = char_ngrams("ab", n_min=3, n_max=3)
        assert "<ab" in grams and "ab>" in grams
        assert "<ab>" in grams  # whole token always included

    def test_short_token_only_whole(self):
        assert char_ngrams("a", n_min=3, n_max=5) == ["<a>"]


class TestPatterns:
    def test_paper_example(self):
        # §III-B: "DOe123." -> L1 "A[6].", L2 "L[3]D[3]S[1]",
        # L3 "U[2]u[1]D[3]S[1]".
        l1, l2, l3 = all_levels("DOe123.")
        assert l1 == "A[6]."
        assert l2 == "L[3]D[3]S[1]"
        assert l3 == "U[2]u[1]D[3]S[1]"

    def test_empty_value(self):
        assert generalize("", 3) == ""

    def test_same_pattern_for_same_shape(self):
        assert generalize("Boston", 3) == generalize("Newark", 3)

    def test_different_case_different_l3(self):
        assert generalize("BOSTON", 3) != generalize("Boston", 3)

    def test_case_insensitive_at_l2(self):
        assert generalize("BOSTON", 2) == generalize("Boston", 2)

    def test_invalid_level(self):
        with pytest.raises(ValueError):
            generalize("x", 4)


class TestLevenshtein:
    def test_identity(self):
        assert levenshtein("abc", "abc") == 0

    def test_substitution(self):
        assert levenshtein("kitten", "sitten") == 1

    def test_classic(self):
        assert levenshtein("kitten", "sitting") == 3

    def test_empty_vs_word(self):
        assert levenshtein("", "abc") == 3

    def test_symmetry(self):
        assert levenshtein("flaw", "lawn") == levenshtein("lawn", "flaw")

    def test_limit_early_exit(self):
        assert levenshtein("aaaaaaaa", "bbbbbbbb", limit=2) == 3

    def test_within_edit_distance(self):
        assert within_edit_distance("Bechxlor", "Bachelor", 3)
        assert not within_edit_distance("cat", "elephant", 3)


class TestEmbeddings:
    def test_deterministic(self):
        a = SubwordHashEmbedding(seed=5).embed("hello world")
        b = SubwordHashEmbedding(seed=5).embed("hello world")
        assert np.allclose(a, b)

    def test_seed_changes_vectors(self):
        a = SubwordHashEmbedding(seed=1).embed("hello")
        b = SubwordHashEmbedding(seed=2).embed("hello")
        assert not np.allclose(a, b)

    def test_dimension(self):
        assert SubwordHashEmbedding(dim=16).embed("x y z").shape == (16,)

    def test_empty_is_zero(self):
        assert np.allclose(SubwordHashEmbedding().embed(""), 0.0)

    def test_typo_closer_than_unrelated(self):
        emb = SubwordHashEmbedding()
        base = emb.embed("bachelor")
        typo = emb.embed("bachelxr")
        other = emb.embed("zqwkfuv")
        assert np.linalg.norm(base - typo) < np.linalg.norm(base - other)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            SubwordHashEmbedding(dim=0)
