"""Fold planning and out-of-sample probability estimation.

Every plan follows one hold-out rule.  The N samples are tied to U *units*
by an N x U 0/1 matrix, the units are shuffled into k groups, and fold f
holds out group f: a matched sample is tested by every fold that holds out
one of its units and trains in the folds that hold out none, so a bad LF
cannot vouch for itself.  The strategies differ only in their units:

* ``random``       -- each matched sample is its own unit: standard k-fold,
* ``by_lf``        -- the LFs (``Z`` itself); a sample matching LFs from
  several groups is tested by several folds,
* ``by_signature`` -- the distinct nonempty signatures (the sorted LF sets
  samples matched); test folds partition the matched samples.

Unmatched samples (empty signature) touch no unit, so every plan assigns
each of them to exactly one test fold round-robin after a seeded shuffle;
that guarantees every sample receives an out-of-sample probability row.
Training folds admit unmatched samples only through the lambda rate: each
train fold takes ``min(available, floor(matched_train_size / lambda))``
unmatched samples, seeded-random without replacement, carrying their current
labels.

``estimate_oos`` makes one ordered pass over groups of consecutive folds
whose training rows hold at most ``_GROUP_NNZ`` stored counts: a group's
folds are cut only after the group before it has predicted, block by block
into one stacked copy, and train in one ``linear.train_group`` call, each
model bitwise the one it would be alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from wsdenoise.corpus import LabelVector, WeakDataset, as_labels
from wsdenoise.featurize import FeaturizeConfig, fit_rows, transform_rows
from wsdenoise.linear import ClassifierConfig, predict_proba, train_group
from wsdenoise.seeding import derive_seed

STRATEGIES = ("random", "by_lf", "by_signature")
# stored counts in a fold group's training rows; they bound the nonzeros of its one stacked
# copy of its features (~12.6 MB, plus a 12-byte bias entry per row); a larger fold trains alone
_GROUP_NNZ = 1 << 20


@dataclass
class FoldPlan:
    folds: list          # [(train_indices, test_indices)] as sorted int arrays
    lf_folds: list | None = None    # by_lf only: held-out LF indices per fold
    sig_folds: list | None = None   # by_signature only: held-out signatures per fold


@dataclass
class OOSProbs:
    probs: np.ndarray            # N x K; rows with count >= 1 sum to 1
    prediction_count: np.ndarray  # per-sample number of fold-models that predicted it


def _indicator(rows, cols, shape) -> sp.csr_array:
    return sp.csr_array((np.ones(len(rows)), (rows, cols)), shape=shape)


def _hold_out(ds: WeakDataset, strategy: str, units, what: str, k: int,
              lambda_rate: float, seed: int) -> tuple[FoldPlan, list]:
    """The hold-out rule: split the columns of the N x U ``units`` matrix into k groups.

    Fold f tests the samples with a unit in group f and trains on the matched
    samples with none; unmatched samples (empty rows) are spread over the
    test folds and admitted to training by ``lambda_rate``.  ``what`` names
    the units in the error for a too-large k.  Returns the plan and, per
    fold, the held-out unit indices.
    """
    n_units = units.shape[1]
    if k < 2:
        raise ValueError("k must be >= 2")
    if not lambda_rate >= 0:
        raise ValueError("lambda_rate must be nonnegative")
    if k > n_units:
        raise ValueError(f"k={k} exceeds the number of {what} ({n_units})")
    perm = np.random.default_rng([seed, 0]).permutation(n_units)
    groups = np.array_split(perm, k)
    fold_of = np.repeat(np.arange(k), [len(g) for g in groups])
    touched = (units @ _indicator(perm, fold_of, (n_units, k))).toarray() > 0
    matched = ds.matched_mask
    unmatched = np.flatnonzero(~matched)
    spread = np.random.default_rng([seed, 1]).permutation(unmatched)
    folds = []
    for f in range(k):
        tr = np.flatnonzero(matched & ~touched[:, f])
        te = np.flatnonzero(touched[:, f])
        if tr.size == 0:
            raise ValueError(f"{strategy} fold {f} has an empty train set")
        if te.size == 0:
            raise ValueError(f"{strategy} fold {f} has an empty test set")
        extra = spread[f::k]
        if lambda_rate > 0:
            avail = np.setdiff1d(unmatched, extra)
            n_admit = min(avail.size, int(tr.size // lambda_rate))
            if n_admit > 0:
                rng = np.random.default_rng([seed, 2, f])
                tr = np.sort(np.concatenate([tr, rng.choice(avail, size=n_admit, replace=False)]))
        folds.append((tr, np.sort(np.concatenate([te, extra]))))
    return FoldPlan(folds), groups


def plan_random(ds: WeakDataset, k: int, lambda_rate: float = 0.0, seed: int = 0) -> FoldPlan:
    """Standard k-fold partition of the matched samples."""
    matched = np.flatnonzero(ds.matched_mask)
    units = _indicator(matched, np.arange(matched.size), (ds.n_samples, matched.size))
    return _hold_out(ds, "random", units, "matched samples", k, lambda_rate, seed)[0]


def plan_by_lf(ds: WeakDataset, k: int, lambda_rate: float = 0.0, seed: int = 0) -> FoldPlan:
    """Split LFs into k folds; train only on samples disjoint from held-out LFs."""
    plan, groups = _hold_out(ds, "by_lf", ds.z, "LFs", k, lambda_rate, seed)
    plan.lf_folds = [sorted(g.tolist()) for g in groups]
    return plan


def plan_by_signature(ds: WeakDataset, k: int, lambda_rate: float = 0.0, seed: int = 0) -> FoldPlan:
    """Split distinct signatures into k folds; test folds partition matched samples."""
    sigs = ds.signatures()
    matched = np.flatnonzero(ds.matched_mask)
    distinct = sorted({sigs[i] for i in matched})
    col = {sig: j for j, sig in enumerate(distinct)}
    units = _indicator(matched, [col[sigs[i]] for i in matched], (ds.n_samples, len(distinct)))
    plan, groups = _hold_out(ds, "by_signature", units, "distinct nonempty signatures",
                             k, lambda_rate, seed)
    plan.sig_folds = [{distinct[j] for j in g} for g in groups]
    return plan


def build_plan(ds: WeakDataset, strategy: str, k: int, lambda_rate: float, seed: int) -> FoldPlan:
    if strategy == "random":
        return plan_random(ds, k, lambda_rate, seed)
    if strategy == "by_lf":
        return plan_by_lf(ds, k, lambda_rate, seed)
    if strategy == "by_signature":
        return plan_by_signature(ds, k, lambda_rate, seed)
    raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")


def _groups(sizes) -> list:
    """Fold indices in runs whose ``sizes`` sum to at most ``_GROUP_NNZ``; a larger fold alone."""
    groups, total = [], 0
    for fi, size in enumerate(sizes):
        total += size
        if groups and total <= _GROUP_NNZ:
            groups[-1].append(fi)
        else:
            groups.append([fi])
            total = size
    return groups


def _fold_probs(ds: WeakDataset, y: np.ndarray, plan: FoldPlan,
                feat_cfg: FeaturizeConfig, clf_cfg: ClassifierConfig):
    """Each fold's out-of-sample probabilities, in fold order; a failed fold raises its error.

    ``_groups`` plans the groups from each fold's stored training counts, which
    bound its TF-IDF nonzeros; fold f trains with seed ``derive_seed(clf_cfg.seed, f)``.
    When a fold's features fail, the folds cut before it train and predict
    first, and no later fold is cut.
    """
    tc, folds = ds.term_counts, plan.folds
    row_nnz = np.diff(tc.counts.indptr)
    for group in _groups([row_nnz[tr].sum() for tr, _ in folds]):
        cut, error = [], None
        for fi in group:
            try:
                cut.append([fi, *fit_rows(tc, folds[fi][0], feat_cfg)])
            except Exception as exc:
                error = exc
                break
        if cut:
            models = train_group([x for *_, x in cut], [y[folds[fi][0]] for fi, *_ in cut], None,
                                 clf_cfg, [derive_seed(clf_cfg.seed, fi) for fi, *_ in cut],
                                 num_classes=ds.num_classes)
            for (fi, vocab, columns, _), model in zip(cut, models):
                if isinstance(model, Exception):
                    raise model
                yield predict_proba(model, transform_rows(tc, folds[fi][1], vocab, columns))
        if error is not None:
            raise error


def estimate_oos(ds: WeakDataset, labels: LabelVector, plan: FoldPlan,
                 feat_cfg: FeaturizeConfig | None = None,
                 clf_cfg: ClassifierConfig | None = None) -> OOSProbs:
    """Train one model per fold and collect out-of-sample probabilities.

    For each fold the vocabulary is refitted on the training documents only
    (no feature leakage from test documents); the features are cut from the
    dataset's count matrix, so no document is tokenized twice.  Samples
    tested by several folds get the arithmetic mean of their probability rows.

    The folds run group by group (``_fold_probs``); a failure is raised as
    ``fold f: ...`` for the lowest failing fold, and the result is bitwise the
    one of running the folds one by one, as ``ref_estimate_oos`` in
    ``tests/reference.py`` does.
    """
    feat_cfg = feat_cfg or FeaturizeConfig()
    clf_cfg = clf_cfg or ClassifierConfig()
    y = as_labels(labels)
    probs = _fold_probs(ds, y, plan, feat_cfg, clf_cfg)
    acc = np.zeros((ds.n_samples, ds.num_classes))
    cnt = np.zeros(ds.n_samples, dtype=np.int64)
    for fi, (_, te) in enumerate(plan.folds):
        try:
            p = next(probs)
        except Exception as exc:
            raise RuntimeError(f"fold {fi}: {exc}") from exc
        acc[te] += p
        cnt[te] += 1
    if (cnt == 0).any():
        missing = int(np.flatnonzero(cnt == 0)[0])
        raise RuntimeError(f"sample {missing} was not tested by any fold")
    return OOSProbs(acc / cnt[:, None], cnt)
