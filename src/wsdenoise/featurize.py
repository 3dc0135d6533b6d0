"""Deterministic TF-IDF featurization.

Tokens are maximal runs of Unicode alphanumerics, lowercased.  Weights use
smoothed idf with a +1 floor, ``idf = ln((1 + n_docs) / (1 + df)) + 1``, raw
term frequency, and L2 row normalization, so rows have norm 1 (or 0 for
documents with no in-vocabulary tokens).

Every document is tokenized once.  ``count_terms`` turns a corpus into a
``TermCounts``: an N x T matrix of term counts whose columns are the sorted
distinct terms.  A dataset builds that matrix the first time
cross-validation needs it, and ``fit_rows`` cuts features from row slices
of it: the vocabulary comes from the document frequencies of the training
rows, and the kept columns are scaled by idf and L2-normalized row by row.
Cross-validation uses it for each fold's training rows, and the final model
for its own; ``transform_rows`` then cuts a fold's test rows with the fold's
vocabulary.  ``fit_vocabulary`` and ``transform`` run the same steps on the
texts they are given; ``transform`` counts only the vocabulary's terms and
drops the rest.
"""

from __future__ import annotations

import re
from collections import defaultdict
from dataclasses import dataclass
from itertools import chain, count, repeat

import numpy as np
import scipy.sparse as sp

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)
_CHUNK_TOKENS = 1 << 12  # tokens counted in one vectorized pass; bounds their memory


def tokenize(text: str) -> list[str]:
    return _TOKEN_RE.findall(text.lower())


@dataclass
class FeaturizeConfig:
    min_df: int = 1
    max_features: int | None = None


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


def _token_chunks(texts: list[str]):
    """Each text's tokens, in runs of consecutive texts of about ``_CHUNK_TOKENS`` tokens."""
    chunk, size = [], 0
    for text in texts:
        tokens = tokenize(text)
        chunk.append(tokens)
        size += len(tokens)
        if size >= _CHUNK_TOKENS:
            yield chunk
            chunk, size = [], 0
    if chunk:
        yield chunk


def _count(texts: list[str], column_ids) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CSR ``(data, indices, indptr)`` of each text's token counts.

    ``column_ids(tokens)`` yields one column per token, -1 to drop it;
    columns ascend within each row.
    """
    data, indices = [np.zeros(0, dtype=np.int32)], [np.zeros(0, dtype=np.int32)]
    row_nnz = [np.zeros(0, dtype=np.int64)]
    for chunk in _token_chunks(texts):
        n_tokens = np.fromiter(map(len, chunk), dtype=np.int64, count=len(chunk))
        ids = np.fromiter(column_ids(chain.from_iterable(chunk)), dtype=np.int64,
                          count=int(n_tokens.sum()))
        rows = np.repeat(np.arange(len(chunk)), n_tokens)
        width = int(ids.max(initial=0)) + 1
        known = ids >= 0
        cells, counts = np.unique(rows[known] * width + ids[known], return_counts=True)
        data.append(counts.astype(np.int32))
        indices.append((cells % width).astype(np.int32))
        row_nnz.append(np.bincount(cells // width, minlength=len(chunk)))
    indptr = np.concatenate(([0], np.cumsum(np.concatenate(row_nnz))))
    return np.concatenate(data), np.concatenate(indices), indptr.astype(np.int32)


def count_terms(texts: list[str]) -> TermCounts:
    """Tokenize each text once into a document-by-term count matrix over sorted terms."""
    index = defaultdict(count().__next__)  # an unseen term takes the next column
    data, first_seen, indptr = _count(texts, lambda tokens: map(index.__getitem__, tokens))
    terms = sorted(index)
    rank = np.empty(len(terms), dtype=np.int32)
    rank[[index[t] for t in terms]] = np.arange(len(terms), dtype=np.int32)
    counts = sp.csr_array((data, rank[first_seen], indptr), shape=(len(texts), len(terms)))
    counts.sort_indices()
    return TermCounts(terms, counts)


def _vocabulary(counts: sp.csr_array, terms: list[str],
                cfg: FeaturizeConfig) -> tuple[Vocabulary, np.ndarray]:
    """The vocabulary fitted on the rows of ``counts``, and its column map.

    The map sends each count column to its vocabulary column, or to -1 when
    the term is not kept.
    """
    if counts.shape[0] == 0:
        raise ValueError("cannot fit a vocabulary on an empty corpus")
    df = np.bincount(counts.indices, minlength=len(terms)).astype(np.int64)
    kept = np.flatnonzero((df > 0) & (df >= cfg.min_df))
    if cfg.max_features is not None and kept.size > cfg.max_features:
        # highest df first, ties to the smaller term; kept is in term order
        kept = np.sort(kept[np.argsort(-df[kept], kind="stable")[: cfg.max_features]])
    if kept.size == 0:
        raise ValueError("vocabulary is empty after min_df filtering")
    index = {terms[j]: i for i, j in enumerate(kept.tolist())}
    columns = np.full(len(terms), -1, dtype=np.int32)
    columns[kept] = np.arange(kept.size, dtype=np.int32)
    return Vocabulary(index=index, df=df[kept], num_docs_fitted=counts.shape[0]), columns


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
    # each row's norm is sqrt(row . row) with one BLAS dot per row, which is
    # how np.linalg.norm computes it; a vectorized sum of squares rounds
    # differently in the last bit
    bounds = indptr.tolist()
    norms = np.sqrt([data[a:b].dot(data[a:b]) for a, b in zip(bounds[:-1], bounds[1:])])
    data /= np.repeat(np.where(norms > 0, norms, 1.0), np.diff(indptr))
    return sp.csr_array((data, indices, indptr), shape=(counts.shape[0], vocab.size))


def fit_rows(tc: TermCounts, rows: np.ndarray | None,
             cfg: FeaturizeConfig) -> tuple[Vocabulary, np.ndarray, sp.csr_array]:
    """The vocabulary fitted on ``rows`` of the count matrix (all rows for None),
    its column map, and the TF-IDF matrix of those rows.

    Equal to ``fit_vocabulary`` then ``transform`` of the same texts, bit for bit.
    """
    counts = tc.counts if rows is None else tc.counts[rows]
    vocab, columns = _vocabulary(counts, tc.terms, cfg)
    return vocab, columns, _tfidf(counts, columns, vocab)


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
    tc = count_terms(texts)
    return _vocabulary(tc.counts, tc.terms, cfg or FeaturizeConfig())[0]


def transform(texts: list[str], vocab: Vocabulary) -> sp.csr_array:
    """TF-IDF encode documents as a sparse N x V matrix with L2-normalized rows."""
    counts = _count(texts, lambda tokens: map(vocab.index.get, tokens, repeat(-1)))
    return _tfidf(sp.csr_array(counts, shape=(len(texts), vocab.size)),
                  np.arange(vocab.size, dtype=np.int32), vocab)
