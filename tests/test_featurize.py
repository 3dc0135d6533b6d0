import cProfile
import math
import sys
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wsdenoise import featurize
from wsdenoise.featurize import FeaturizeConfig, fit_vocabulary, tokenize, transform


class TestFitVocabulary:
    def test_min_df_one(self):
        v = fit_vocabulary(["a b", "b c"], FeaturizeConfig(min_df=1))
        assert set(v.index) == {"a", "b", "c"}

    def test_min_df_two(self):
        v = fit_vocabulary(["a b", "b c"], FeaturizeConfig(min_df=2))
        assert set(v.index) == {"b"}

    def test_max_features_deterministic(self, rng):
        texts = [" ".join(f"w{rng.integers(200)}" for _ in range(20)) for _ in range(100)]
        v1 = fit_vocabulary(texts, FeaturizeConfig(max_features=50))
        v2 = fit_vocabulary(texts, FeaturizeConfig(max_features=50))
        assert v1.size == 50
        assert v1.index == v2.index
        np.testing.assert_array_equal(v1.df, v2.df)

    @pytest.mark.parametrize("max_features", [0, -1])
    def test_max_features_below_one_rejected(self, max_features):
        with pytest.raises(ValueError, match="max_features must be >= 1 or None"):
            FeaturizeConfig(max_features=max_features)

    def test_empty_vocabulary_raises(self):
        with pytest.raises(ValueError, match="empty"):
            fit_vocabulary(["a", "b"], FeaturizeConfig(min_df=5))

    def test_tokenizer_lowercases_and_splits_alnum(self):
        assert tokenize("Hello, WORLD_42 foo9bar!") == ["hello", "world", "42", "foo9bar"]


class TestTransform:
    def test_single_term_doc_is_unit(self):
        v = fit_vocabulary(["apple", "pear banana"])
        x = transform(["apple"], v).toarray()
        assert x[0, v.index["apple"]] == pytest.approx(1.0)
        assert np.count_nonzero(x) == 1

    def test_out_of_vocab_gives_zero_row(self):
        v = fit_vocabulary(["apple", "pear banana"])
        x = transform(["pear", "zebra quux zebra", "banana"], v)
        assert x.shape == (3, v.size)
        assert x[[1]].nnz == 0
        assert x[[0]].nnz == 1 and x[[2]].nnz == 1

    def test_no_texts_give_an_empty_matrix_of_vocabulary_width(self):
        v = fit_vocabulary(["apple", "pear banana"])
        x = transform([], v)
        assert x.shape == (0, v.size) and x.nnz == 0

    def test_tokenizes_each_text_once(self, monkeypatch):
        v = fit_vocabulary(["apple", "pear banana"])
        calls = []

        def counting(text):
            calls.append(text)
            return tokenize(text)

        monkeypatch.setattr(featurize, "tokenize", counting)
        texts = ["pear apple", "zebra", "", "banana pear pear"]
        transform(texts, v)
        assert calls == texts

    def test_hand_computed_idf(self):
        # corpus ["x x y", "y"]: idf(x) = ln(3/2)+1, idf(y) = ln(3/3)+1 = 1
        v = fit_vocabulary(["x x y", "y"])
        idf_x = math.log(3 / 2) + 1
        raw = np.array([2 * idf_x, 1.0])
        expected = raw / np.linalg.norm(raw)
        x = transform(["x x y"], v).toarray()
        assert x[0, v.index["x"]] == pytest.approx(expected[0], abs=1e-12)
        assert x[0, v.index["y"]] == pytest.approx(expected[1], abs=1e-12)

    def test_rows_nonnegative_and_normalized(self, rng):
        texts = [" ".join(f"t{rng.integers(30)}" for _ in range(rng.integers(1, 15)))
                 for _ in range(60)]
        v = fit_vocabulary(texts)
        x = transform(texts, v)
        assert (x.data >= 0).all() and (x.data > 0).all()
        norms = np.sqrt(np.asarray(x.multiply(x).sum(axis=1)).ravel())
        assert np.all((np.abs(norms - 1.0) < 1e-9) | (norms == 0.0))

    def test_idempotence(self):
        texts = ["one two three", "two three four", "five"]
        v = fit_vocabulary(texts)
        a = transform(texts, v)
        b = transform(texts, v)
        assert (a != b).nnz == 0

    def test_extra_occurrence_increases_weight(self):
        v = fit_vocabulary(["cat dog", "dog fish"])
        one = transform(["cat dog"], v)
        two = transform(["cat cat dog"], v)
        idf = np.log((1 + 2) / (1 + v.df)) + 1
        # compare pre-normalization weights by undoing the norm via ratios
        j = v.index["cat"]
        jd = v.index["dog"]
        ratio_one = one[[0], [j]] / one[[0], [jd]]
        ratio_two = two[[0], [j]] / two[[0], [jd]]
        assert ratio_two > ratio_one


# letters with case and Unicode lowercasing, digits, underscores (which split
# tokens), punctuation and whitespace
_TEXT_CHARS = list("abAB\u00c9\u00e9\u00df\u03a3\u03c3\u03c2\u0130\uff21"
                   "09\u0663\u65e5_ .,!-\t\n\u2028")


class TestCountTerms:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.text(st.sampled_from(_TEXT_CHARS) | st.characters(), max_size=30),
                    max_size=12))
    def test_equals_a_counter_of_the_tokens(self, texts):
        rows = [Counter(tokenize(t)) for t in texts]
        terms = sorted(set().union(*rows))
        dense = np.array([[row[t] for t in terms] for row in rows],
                         dtype=np.int64).reshape(len(texts), len(terms))
        tc = featurize.count_terms(texts)
        assert tc.terms == terms
        c = tc.counts
        assert c.shape == dense.shape
        assert np.array_equal(c.toarray(), dense)
        assert (c.data.dtype, c.indices.dtype, c.indptr.dtype) == (np.int32,) * 3
        # canonical: no stored zeros, columns strictly ascending within each row
        assert (c.data > 0).all() and c.nnz == np.count_nonzero(dense)
        for a, b in zip(c.indptr[:-1], c.indptr[1:]):
            assert (np.diff(c.indices[a:b]) > 0).all()

    def test_peak_memory_stays_near_its_result(self):
        """1000 documents of 300 words from 2000 terms: at most 1.6x the returned arrays."""
        rng = np.random.default_rng(5)
        terms = np.array([f"w{i}" for i in range(2000)])
        texts = [" ".join(row) for row in terms[rng.integers(2000, size=(1000, 300))]]
        tracemalloc.start()
        try:
            c = featurize.count_terms(texts).counts
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.6 * (c.data.nbytes + c.indices.nbytes + c.indptr.nbytes)

    @pytest.mark.parametrize("texts", [["b a b c", "z y"], ["a a a a", "b"], ["x"], []])
    def test_arrays_hold_exactly_their_counts(self, texts):
        # no buffer behind data or indices is longer than the nnz counts it holds
        c = featurize.count_terms(texts).counts
        for a in (c.data, c.indices):
            assert (a if a.base is None else a.base).size == c.nnz


    @pytest.mark.parametrize("under", ["settrace", "cProfile"])
    def test_counts_under_a_tracer_or_profiler(self, under):
        # a tracer or profiler holds one more reference to the buffers while
        # count_terms shrinks them; the counts must come out as without one
        texts = ["a a b", "c", "b c b a a"]
        expected = featurize.count_terms(texts).counts
        if under == "settrace":
            previous = sys.gettrace()
            sys.settrace(lambda *a: None)
            try:
                tc = featurize.count_terms(texts)
            finally:
                sys.settrace(previous)
        else:
            profile = cProfile.Profile()
            tc = profile.runcall(featurize.count_terms, texts)
        c = tc.counts
        assert tc.terms == ["a", "b", "c"]
        for got, want in zip((c.data, c.indices, c.indptr),
                             (expected.data, expected.indices, expected.indptr)):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        for a in (c.data, c.indices):
            assert (a if a.base is None else a.base).size == c.nnz

class TestFitRows:
    """``fit_rows`` cuts its rows in blocks that join to ``_tfidf`` of the whole row set."""

    @staticmethod
    def corpus():
        """300 documents of 400 words from 2000 terms (about 110k stored counts), with empty
        rows, a punctuation-only row and rows of terms that occur nowhere else."""
        rng = np.random.default_rng(11)
        terms = np.array([f"w{i}" for i in range(2000)])
        texts = [" ".join(row) for row in terms[rng.integers(2000, size=(300, 400))]]
        texts[3], texts[4], texts[150], texts[299] = "", "?! ...", "", "lonely once"
        texts[7] = "rare unique words"
        return featurize.count_terms(texts)

    @pytest.mark.parametrize("block", [1, 7, featurize._BLOCK_COUNTS])
    @pytest.mark.parametrize("cfg", [FeaturizeConfig(), FeaturizeConfig(min_df=2),
                                     FeaturizeConfig(max_features=50),
                                     FeaturizeConfig(min_df=2, max_features=50)])
    def test_blocks_join_to_the_whole_cut(self, monkeypatch, block, cfg):
        tc = self.corpus()
        monkeypatch.setattr(featurize, "_BLOCK_COUNTS", block)
        for rows in (None, np.arange(1, 300, 2), np.array([2, 3, 4, 7, 150, 298, 299])):
            vocab, columns, x = featurize.fit_rows(tc, rows, cfg)
            counts = tc.counts if rows is None else tc.counts[rows]
            df = np.bincount(counts.indices, minlength=len(tc.terms))
            assert np.array_equal(vocab.df, df[columns >= 0])
            whole = featurize._tfidf(counts, columns, vocab)
            if rows is None and cfg != FeaturizeConfig():  # rows 7 and 299 lose every term
                assert counts[[7, 299]].nnz > 0 and whole[[7, 299]].nnz == 0
            assert x.shape == whole.shape and x.nnz == whole.nnz
            blocks, top = list(x.blocks), 0
            for b in blocks:
                n, lo = b.shape[0], whole.indptr[top]
                hi = whole.indptr[top + n]
                assert b.shape[1] == whole.shape[1]
                assert b.indptr.dtype == whole.indptr.dtype
                assert b.indptr.tobytes() == (whole.indptr[top:top + n + 1] - lo).tobytes()
                assert b.indices.dtype == whole.indices.dtype
                assert b.indices.tobytes() == whole.indices[lo:hi].tobytes()
                assert b.data.tobytes() == whole.data[lo:hi].tobytes()
                top += n
            assert top == whole.shape[0]
            if rows is None:  # the whole corpus spans several blocks at every size
                assert len(blocks) > 1
            assert list(x.blocks) == []  # the blocks are read once
