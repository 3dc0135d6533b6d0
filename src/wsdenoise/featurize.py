"""Deterministic TF-IDF featurization.

Tokens are maximal runs of Unicode alphanumerics, lowercased.  Weights use
smoothed idf with a +1 floor, ``idf = ln((1 + n_docs) / (1 + df)) + 1``, raw
term frequency, and L2 row normalization, so rows have norm 1 (or 0 for
documents with no in-vocabulary tokens).

``count_terms`` is the one counter: it tokenizes every document once into a
``TermCounts``, an N x T matrix of term counts over the sorted distinct
terms.  It streams every token's term id into one array, maps the ids to
sorted-term ranks once all terms are known, and lets the CSR matrix sum its
duplicate entries, one per token, into counts.  ``_tfidf`` is the one cut: a
column map sends each count column to a vocabulary column, or to -1 for a
term the vocabulary does not keep, and the kept counts are scaled by idf and
L2-normalized row by row.  Rows are cut independently, so a block of rows
comes out as those rows of a larger cut.

``fit_rows`` fits a vocabulary on some rows of a dataset's count matrix
(each fold's training rows, or the final model's) and returns their cut as
``RowBlocks``, blocks of about ``_BLOCK_COUNTS`` stored counts each cut as
it is read, which ``linear.train_group`` writes straight into its stacked
arrays.  ``transform_rows`` cuts a fold's test rows with that fold's vocabulary.
``fit_vocabulary`` fits on every text it is given, and ``transform`` counts
held-out texts (or takes their counts), maps their terms to the vocabulary's
columns and cuts them.
"""

from __future__ import annotations

import re
from collections import defaultdict
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import chain, count

import numpy as np
import scipy.sparse as sp

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)
_BLOCK_COUNTS = 1 << 16  # stored counts in one block of ``fit_rows``; bounds its temporaries


def tokenize(text: str) -> list[str]:
    return _TOKEN_RE.findall(text.lower())


@dataclass
class FeaturizeConfig:
    min_df: int = 1
    max_features: int | None = None  # None keeps every term

    def __post_init__(self):
        if self.max_features is not None and self.max_features < 1:
            raise ValueError("max_features must be >= 1 or None")


@dataclass(frozen=True)
class Vocabulary:
    index: dict               # term -> dense column index
    df: np.ndarray            # document frequency per retained term
    num_docs_fitted: int

    @property
    def size(self) -> int:
        return len(self.index)


@dataclass(frozen=True)
class TermCounts:
    terms: list[str]          # sorted distinct terms; column j counts terms[j]
    counts: sp.csr_array      # N x T int32 counts, columns ascending within each row

    def __len__(self) -> int:  # documents counted
        return self.counts.shape[0]


@dataclass(frozen=True)
class RowBlocks:
    """A CSR matrix as consecutive row blocks, each cut when it is read; read them once."""
    shape: tuple              # of the whole matrix
    nnz: int                  # stored entries of the whole matrix
    blocks: Iterator          # CSR arrays of consecutive rows, top to bottom


def count_terms(texts: list[str]) -> TermCounts:
    """Tokenize each text once into a document-by-term count matrix over sorted terms."""
    index = defaultdict(count().__next__)  # an unseen term takes the next id
    lengths = []  # tokens per text

    def tokens(text: str) -> list[str]:
        found = tokenize(text)
        lengths.append(len(found))
        return found

    ids = np.fromiter(map(index.__getitem__, chain.from_iterable(map(tokens, texts))),
                      dtype=np.int32)
    terms = sorted(index)
    rank = np.empty(len(terms), dtype=np.int32)
    rank[[index[t] for t in terms]] = np.arange(len(terms), dtype=np.int32)
    ids = rank[ids]  # before the sum, so its one sort per row leaves columns in term order
    indptr = np.zeros(len(texts) + 1, dtype=np.int32)
    np.cumsum(lengths, out=indptr[1:])
    # one entry of 1 per token; adding a row's equal columns counts them
    counts = sp.csr_array((np.ones(ids.size, dtype=np.int32), ids, indptr),
                          shape=(len(texts), len(terms)))
    counts.sum_duplicates()
    # the sum can leave views of the token-length buffers: drop them, shrink the buffers to nnz
    nnz, shape = counts.nnz, counts.shape
    data, indices = (a if a.base is None else a.base for a in (counts.data, counts.indices))
    del counts, ids
    # with the matrix and its views gone, these names are the buffers' only
    # holders, so the reference check may be skipped; it would refuse under a
    # tracer or profiler, whose call of ``resize`` holds one more reference
    data.resize(nnz, refcheck=False)
    indices.resize(nnz, refcheck=False)
    return TermCounts(terms, sp.csr_array((data, indices, indptr), shape=shape, copy=False))


def _vocabulary(df: np.ndarray, num_docs: int, terms: list[str],
                cfg: FeaturizeConfig) -> tuple[Vocabulary, np.ndarray]:
    """The vocabulary of ``num_docs`` rows with document frequencies ``df``, and its column map.

    The map sends each count column to its vocabulary column, or to -1 when
    the term is not kept.
    """
    if num_docs == 0:
        raise ValueError("cannot fit a vocabulary on an empty corpus")
    kept = np.flatnonzero((df > 0) & (df >= cfg.min_df))
    if cfg.max_features is not None and kept.size > cfg.max_features:
        # highest df first, ties to the smaller term; kept is in term order
        kept = np.sort(kept[np.argsort(-df[kept], kind="stable")[: cfg.max_features]])
    if kept.size == 0:
        raise ValueError("vocabulary is empty after min_df filtering")
    index = {terms[j]: i for i, j in enumerate(kept.tolist())}
    columns = np.full(len(terms), -1, dtype=np.int32)
    columns[kept] = np.arange(kept.size, dtype=np.int32)
    return Vocabulary(index=index, df=df[kept], num_docs_fitted=num_docs), columns


def _tfidf(counts: sp.csr_array, columns: np.ndarray, vocab: Vocabulary) -> sp.csr_array:
    """TF-IDF rows of ``counts``; ``columns`` maps each count column to a vocabulary column or -1."""
    idf = np.log((1.0 + vocab.num_docs_fitted) / (1.0 + vocab.df)) + 1.0
    indices = columns[counts.indices]
    tf = counts.data
    dropped = np.flatnonzero(indices < 0)
    indptr = (counts.indptr - np.searchsorted(dropped, counts.indptr)).astype(np.int32)
    if dropped.size:
        keep = indices >= 0
        indices, tf = indices[keep], tf[keep]
    data = idf[indices]
    data *= tf
    # each row's norm is sqrt(row . row) with one BLAS dot per row, which is how
    # np.linalg.norm computes it (a sum of squares rounds differently); vecdot takes
    # that dot along each row of the (n, L) array of the n rows of stored length L
    lengths = np.diff(indptr)
    norms = np.zeros(lengths.size)
    for size in np.unique(lengths).tolist():
        rows = np.flatnonzero(lengths == size)
        block = data[indptr[rows, None] + np.arange(size)]
        norms[rows] = np.sqrt(np.vecdot(block, block))
    data /= np.repeat(np.where(norms > 0, norms, 1.0), lengths)
    return sp.csr_array((data, indices, indptr), shape=(counts.shape[0], vocab.size))


def fit_rows(tc: TermCounts, rows: np.ndarray | None,
             cfg: FeaturizeConfig) -> tuple[Vocabulary, np.ndarray, RowBlocks]:
    """The vocabulary fitted on ``rows`` of the count matrix (all rows for None),
    its column map, and the TF-IDF matrix of those rows as ``RowBlocks``.

    The blocks hold about ``_BLOCK_COUNTS`` stored counts each; joined, they
    equal ``fit_vocabulary`` then ``transform`` of the same texts, bit for bit.
    """
    rows = np.arange(tc.counts.shape[0]) if rows is None else rows
    ends = np.cumsum(np.diff(tc.counts.indptr)[rows])
    blocks = np.split(rows, np.flatnonzero(np.diff(ends // _BLOCK_COUNTS)) + 1)
    df = np.zeros(len(tc.terms), dtype=np.int64)
    for block in blocks:
        df += np.bincount(tc.counts[block].indices, minlength=len(tc.terms))
    vocab, columns = _vocabulary(df, len(rows), tc.terms, cfg)
    cut = (_tfidf(tc.counts[block], columns, vocab) for block in blocks)
    return vocab, columns, RowBlocks((len(rows), vocab.size), int(vocab.df.sum()), cut)


def transform_rows(tc: TermCounts, rows: np.ndarray, vocab: Vocabulary,
                   columns: np.ndarray) -> sp.csr_array:
    """TF-IDF of ``rows`` of the count matrix under a ``fit_rows`` vocabulary and column map."""
    return _tfidf(tc.counts[rows], columns, vocab)


def fit_vocabulary(texts: list[str], cfg: FeaturizeConfig | None = None) -> Vocabulary:
    """Build a vocabulary from a corpus; deterministic for identical input.

    Terms with document frequency below ``min_df`` are dropped; if
    ``max_features`` is set, the top terms by (df, then lexicographic
    ascending) are kept.
    """
    return fit_rows(count_terms(texts), None, cfg or FeaturizeConfig())[0]


def transform(texts: list[str] | TermCounts, vocab: Vocabulary) -> sp.csr_array:
    """TF-IDF encode documents, or their ``count_terms``, as an N x V matrix with unit rows."""
    tc = texts if isinstance(texts, TermCounts) else count_terms(texts)
    columns = np.array([vocab.index.get(t, -1) for t in tc.terms], dtype=np.int32)
    return _tfidf(tc.counts, columns, vocab)
