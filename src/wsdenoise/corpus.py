"""Weakly supervised dataset: domain types, file ingestion, majority voting, stats.

Canonical file formats (shared with the CLI harness and the synthetic
generator):

* documents file: one record per line, ``id<TAB>text``
* gold file (optional): ``id<TAB>class_id``
* Z file: header line ``N L``, then one ``sample_id<TAB>lf_id`` pair per
  matched cell
* T file: header line ``L K``, then one-hot rows ``lf_id<TAB>class_id``
  (fractional refined matrices are written as ``lf_id<TAB>v0<TAB>v1...``)

External string sample ids are re-indexed to dense integers 0..N-1
preserving file order; the mapping is kept on the dataset and emitted
alongside run outputs.  ``_read_lines`` reads these files and the CLI's
``--config`` files alike; ``_write_lines`` beside it writes them and a run
directory's line files.  Which samples no LF matched is kept once, as
``WeakDataset.matched_mask``.  ``dataset_stats`` returns the ``stats`` report,
with the majority vote's accuracy worked out exactly rather than sampled.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from wsdenoise.featurize import TermCounts, count_terms


@dataclass(frozen=True)
class WeakDataset:
    """Immutable container for documents, LF matches and the LF-class mapping.

    Safe to share read-only across workers; all denoising code treats it as
    constant after construction.
    """

    texts: list[str]
    ids: list[str]
    z: sp.csr_array          # N x L, entries in {0, 1}
    t: np.ndarray            # L x K, rows nonnegative
    num_classes: int
    gold: np.ndarray | None = None

    def __post_init__(self):
        n, l = self.z.shape
        if len(self.texts) != n or len(self.ids) != n:
            raise ValueError("document count does not match Z row count")
        if self.t.shape != (l, self.num_classes):
            raise ValueError(
                f"T shape {self.t.shape} inconsistent with L={l}, K={self.num_classes}"
            )
        if self.num_classes < 2:
            raise ValueError("need at least 2 classes")
        data = self.z.data
        if data.size and not np.isin(data, (0, 1)).all():
            raise ValueError("Z entries must be 0 or 1")
        if not self.z.has_canonical_format:  # summed on a copy: Z keeps its entries and order
            canonical = self.z.copy()
            canonical.sum_duplicates()
            if canonical.nnz != self.z.nnz:
                raise ValueError("Z stores an entry more than once")
        if not np.isfinite(self.t).all():
            raise ValueError("T entries must be finite")
        if (self.t < 0).any():
            raise ValueError("T entries must be nonnegative")
        if self.gold is not None:
            gold = as_labels(self.gold)
            if len(gold) != n:
                raise ValueError("gold label vector length mismatch")
            if gold.size and (gold.min() < 0 or gold.max() >= self.num_classes):
                raise ValueError("gold labels out of range")

    @property
    def n_samples(self) -> int:
        return self.z.shape[0]

    @property
    def n_lfs(self) -> int:
        return self.z.shape[1]

    @property
    def lf_hits(self) -> np.ndarray:
        """Per-sample number of matched LFs."""
        return np.asarray(self.z.sum(axis=1)).ravel()

    @property
    def matched_mask(self) -> np.ndarray:
        return self.lf_hits > 0

    @cached_property
    def term_counts(self) -> TermCounts:
        """Document-by-term counts, tokenized once, the first time they are asked for."""
        return count_terms(self.texts)

    def signatures(self) -> list[tuple[int, ...]]:
        """Per sample, the sorted LF indices it matched (may be empty); a stored 0 is no match."""
        csr = self.z.tocsr(copy=True)
        csr.eliminate_zeros()  # on a copy, as the sort: Z's own entries stay as they were
        csr.sort_indices()
        lfs, ptr = csr.indices.tolist(), csr.indptr.tolist()
        return [tuple(lfs[ptr[i]:ptr[i + 1]]) for i in range(self.n_samples)]


@dataclass
class LabelVector:
    """Weak labels, one class index per sample."""

    labels: np.ndarray

    def copy(self) -> "LabelVector":
        return LabelVector(self.labels.copy())


def as_labels(labels) -> np.ndarray:
    """Integer label array from a ``LabelVector`` of weak labels or an array-like.

    Raises ``ValueError`` on a label that is not a whole number.
    """
    a = np.asarray(getattr(labels, "labels", labels))
    if a.dtype.kind == "f":
        bad = a[~np.isfinite(a) | (a != np.round(a))]
        if bad.size:
            raise ValueError(f"label {bad[0]} is not a whole number")
    return a.astype(np.int64)


def _top_classes(ds: WeakDataset, t_matrix) -> np.ndarray:
    """Per sample, the classes of largest ``row_i(Z) @ t_matrix``: all K for an unmatched row."""
    t = np.asarray(t_matrix, dtype=float)
    if t.shape != (ds.n_lfs, ds.num_classes):
        raise ValueError("t_matrix shape mismatch")
    if not np.isfinite(t).all():
        raise ValueError("t_matrix entries must be finite")
    if (t < 0).any():
        raise ValueError("t_matrix rows must be nonnegative")
    if (t.sum(axis=1) <= 0).any():
        raise ValueError("t_matrix rows must have positive sum")
    scores = ds.z @ t
    return scores == scores.max(axis=1, keepdims=True)


def majority_vote(ds: WeakDataset, t_matrix: np.ndarray, seed: int) -> LabelVector:
    """Assign each sample the argmax class of ``row_i(Z) @ t_matrix``.

    Ties among maximal classes are broken uniformly at random from a stream
    keyed by (seed, sample id); samples with an empty signature (off
    ``ds.matched_mask``) tie across all classes and get a uniformly random one.
    """
    is_max = _top_classes(ds, t_matrix)
    labels = np.argmax(is_max, axis=1).astype(np.int64)
    for i in np.flatnonzero(is_max.sum(axis=1) > 1):
        tied = np.flatnonzero(is_max[i])
        # a counter-based stream per sample: evaluation order cannot change results
        labels[i] = tied[np.random.default_rng([seed, int(i)]).integers(len(tied))]
    return LabelVector(labels)


def dataset_stats(ds: WeakDataset) -> dict:
    """The ``stats`` verb's report: sizes, coverage, mean LF hits and, with gold, the exact
    ``majority_accuracy_mean`` and ``_std`` of one vote over its tie-breaks.  A vote is
    right at sample i with probability p_i = [gold_i is a top class] / (number of top
    classes), independently, so these are mean(p) and sqrt(sum(p * (1 - p))) / N."""
    hits, n = ds.lf_hits, ds.n_samples
    out = {"n_samples": n, "n_lfs": ds.n_lfs, "num_classes": ds.num_classes,
           "coverage": float((hits > 0).mean()) if n else 0.0,
           "avg_lf_hits": float(hits.mean()) if n else 0.0}
    if ds.gold is not None:
        is_max = _top_classes(ds, ds.t)
        p = is_max[np.arange(n), as_labels(ds.gold)] / is_max.sum(axis=1)
        out["majority_accuracy_mean"] = float(p.mean())
        out["majority_accuracy_std"] = float(np.sqrt((p * (1 - p)).sum()) / n)
    return out


# ---------------------------------------------------------------------------
# file ingestion / serialization


def _read_lines(path):
    with open(path, encoding="utf-8") as f:
        text = f.read().removeprefix("\ufeff")  # as utf-8-sig reads, without its cost
    return text.split("\n") if text else []  # not splitlines(), which also splits at \x85, ...


def _write_lines(path, lines) -> None:
    """Write each of ``lines`` followed by ``\\n``, in UTF-8: what ``_read_lines`` reads back."""
    with open(path, "w", encoding="utf-8") as f:
        for line in lines:
            f.write(f"{line}\n")


def read_documents(doc_path):
    """Read ``id<TAB>text`` lines; returns ``(ids, texts, {id: dense index})``.

    A file with no documents is rejected: no split can be trained or scored on it.
    """
    ids, texts = [], []
    seen = {}
    for lineno, line in enumerate(_read_lines(doc_path), 1):
        if not line:
            continue
        if "\t" not in line:
            raise ValueError(f"{doc_path} line {lineno}: expected 'id<TAB>text'")
        sid, text = line.split("\t", 1)
        if sid in seen:
            raise ValueError(f"{doc_path} line {lineno}: duplicate sample id {sid!r}")
        seen[sid] = len(ids)
        ids.append(sid)
        texts.append(text)
    if not ids:
        raise ValueError(f"{doc_path}: no documents")
    return ids, texts, seen


def read_gold(gold_path, ids, seen, k) -> np.ndarray:
    """Read ``id<TAB>class_id`` lines into a label array aligned with ``ids``.

    Every document needs exactly one gold line, and every gold line a document.
    """
    gold = np.full(len(ids), -1, dtype=np.int64)
    for lineno, line in enumerate(_read_lines(gold_path), 1):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise ValueError(f"{gold_path} line {lineno}: expected 'id<TAB>class_id'")
        sid, cls_s = parts
        if sid not in seen:
            raise ValueError(f"{gold_path} line {lineno}: unknown sample id {sid!r}")
        if gold[seen[sid]] >= 0:
            raise ValueError(f"{gold_path} line {lineno}: duplicate sample id {sid!r}")
        try:
            cls = int(cls_s)
        except ValueError:
            raise ValueError(f"{gold_path} line {lineno}: class_id must be an integer") from None
        if not 0 <= cls < k:
            raise ValueError(f"{gold_path} line {lineno}: class index out of range (K={k})")
        gold[seen[sid]] = cls
    if (gold < 0).any():
        missing = ids[int(np.flatnonzero(gold < 0)[0])]
        raise ValueError(f"{gold_path}: missing gold label for sample id {missing!r}")
    return gold


def load_dataset(doc_path, z_path, t_path, gold_path=None) -> WeakDataset:
    """Load a dataset from the canonical file layout, validating as it goes.

    Malformed rows, out-of-range indices, non-one-hot T rows and inconsistent
    dimensions are all reported with the offending file and line number.
    """
    ids, texts, seen = read_documents(doc_path)
    n = len(ids)

    z_lines = _read_lines(z_path)
    if not z_lines:
        raise ValueError(f"{z_path}: empty file")
    try:
        n_decl, n_lfs = (int(v) for v in z_lines[0].split())
    except ValueError:
        raise ValueError(f"{z_path} line 1: expected header 'N L'") from None
    if n_decl != n:
        raise ValueError(f"{z_path} line 1: declared N={n_decl} but documents file has {n}")
    if n_lfs < 0:
        raise ValueError(f"{z_path} line 1: declared L={n_lfs} is negative")
    rows, cols = [], []
    for lineno, line in enumerate(z_lines[1:], 2):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise ValueError(f"{z_path} line {lineno}: expected 'sample_id<TAB>lf_id'")
        sid, lf_s = parts
        if sid not in seen:
            raise ValueError(f"{z_path} line {lineno}: unknown sample id {sid!r}")
        try:
            lf = int(lf_s)
        except ValueError:
            raise ValueError(f"{z_path} line {lineno}: lf_id must be an integer") from None
        if not 0 <= lf < n_lfs:
            raise ValueError(f"{z_path} line {lineno}: LF index out of range ({lf} with L={n_lfs})")
        rows.append(seen[sid])
        cols.append(lf)
    # repeated pairs add up in bool, which cannot wrap as int8 does, to one match
    z = sp.csr_array((np.ones(len(rows), dtype=bool), (rows, cols)),
                     shape=(n, n_lfs)).astype(np.int8)

    t_lines = _read_lines(t_path)
    if not t_lines:
        raise ValueError(f"{t_path}: empty file")
    try:
        l_decl, k = (int(v) for v in t_lines[0].split())
    except ValueError:
        raise ValueError(f"{t_path} line 1: expected header 'L K'") from None
    if l_decl != n_lfs:
        raise ValueError(f"{t_path} line 1: declared L={l_decl} but Z file has L={n_lfs}")
    if k < 2:
        raise ValueError(f"{t_path} line 1: declared K={k}, but need at least 2 classes")
    t = np.zeros((n_lfs, k), dtype=float)
    for lineno, line in enumerate(t_lines[1:], 2):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise ValueError(f"{t_path} line {lineno}: expected 'lf_id<TAB>class_id'")
        try:
            lf, cls = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"{t_path} line {lineno}: indices must be integers") from None
        if not 0 <= lf < n_lfs:
            raise ValueError(f"{t_path} line {lineno}: LF index out of range")
        if not 0 <= cls < k:
            raise ValueError(f"{t_path} line {lineno}: class index out of range (K={k})")
        t[lf, cls] += 1.0
    bad = np.flatnonzero(t.sum(axis=1) != 1.0)
    if bad.size:
        raise ValueError(f"{t_path}: T row not one-hot for lf_id {int(bad[0])}")

    gold = None if gold_path is None else read_gold(gold_path, ids, seen, k)
    return WeakDataset(texts=texts, ids=ids, z=z, t=t, num_classes=k, gold=gold)


def save_dataset(ds: WeakDataset, doc_path, z_path, t_path, gold_path=None) -> None:
    """Write a dataset back out in the canonical formats (round-trips exactly).

    Raises ``ValueError``, naming the sample id and before writing anything,
    on an id holding a tab or a line break or starting with a byte-order
    mark, or a text holding a line break: the files could not hold them.
    """
    for sid, text in zip(ds.ids, ds.texts):
        if any(c in sid for c in "\t\n\r") or sid.startswith("\ufeff"):
            raise ValueError(f"sample id {sid!r}: an id cannot hold a tab or a line break "
                             "or start with a byte-order mark")
        if "\n" in text or "\r" in text:
            raise ValueError(f"sample id {sid!r}: its text holds a line break")
    _write_lines(doc_path, (f"{sid}\t{text}" for sid, text in zip(ds.ids, ds.texts)))
    coo = ds.z.tocoo(copy=True)
    coo.eliminate_zeros()  # a stored 0 is no match, and the Z file lists matches only
    cells = sorted(zip(coo.coords[0].tolist(), coo.coords[1].tolist()))
    _write_lines(z_path, [f"{ds.n_samples} {ds.n_lfs}",
                          *(f"{ds.ids[i]}\t{j}" for i, j in cells)])
    _write_lines(t_path, [f"{ds.n_lfs} {ds.num_classes}",
                          *(f"{l}\t{int(np.argmax(ds.t[l]))}" for l in range(ds.n_lfs))])
    if gold_path is not None and ds.gold is not None:
        _write_lines(gold_path, (f"{sid}\t{int(cls)}" for sid, cls in zip(ds.ids, ds.gold)))
