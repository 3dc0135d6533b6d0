"""Fold planning and out-of-sample probability estimation.

Three splitting strategies:

* ``random``       -- standard k-fold over matched samples,
* ``by_lf``        -- LFs are split into folds; a fold's training set holds
  only samples whose signature is disjoint from the held-out LFs, so a
  sample can be tested by several folds,
* ``by_signature`` -- distinct signatures are split; samples sharing a
  signature always land in the same test fold.

Unmatched samples (empty signature) are never test members under the
by-LF/by-signature definitions, so every plan assigns each of them to
exactly one test fold round-robin after a seeded shuffle; that guarantees
every sample receives an out-of-sample probability row.  Training folds
admit unmatched samples only through the lambda rate: each train fold takes
``min(available, floor(matched_train_size / lambda))`` unmatched samples,
seeded-random without replacement, carrying their current labels.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from wsdenoise.corpus import LabelVector, WeakDataset, as_labels
from wsdenoise.featurize import FeaturizeConfig, fit_vocabulary, transform
from wsdenoise.linear import ClassifierConfig, predict_proba, train
from wsdenoise.seeding import derive_seed

STRATEGIES = ("random", "by_lf", "by_signature")


@dataclass
class FoldPlan:
    strategy: str
    k: int
    folds: list          # [(train_indices, test_indices)] as sorted int arrays
    lambda_rate: float
    seed: int
    lf_folds: list | None = None    # by_lf only: held-out LF indices per fold
    sig_folds: list | None = None   # by_signature only: held-out signatures per fold


@dataclass
class OOSProbs:
    probs: np.ndarray            # N x K; rows with count >= 1 sum to 1
    prediction_count: np.ndarray  # per-sample number of fold-models that predicted it


def _split_indices(ds: WeakDataset):
    matched = np.flatnonzero(ds.matched_mask)
    unmatched = np.flatnonzero(~ds.matched_mask)
    return matched, unmatched


def _assign_unmatched_tests(test_sets, unmatched, k, seed):
    """Round-robin unmatched samples over test folds after a seeded shuffle."""
    if unmatched.size == 0:
        return test_sets, [set() for _ in range(k)]
    perm = np.random.default_rng([seed, 1]).permutation(unmatched)
    extras = [perm[i::k] for i in range(k)]
    merged = [np.sort(np.concatenate([t, e])).astype(np.int64) for t, e in zip(test_sets, extras)]
    return merged, [set(e.tolist()) for e in extras]


def _admit_unmatched(train_sets, unmatched, test_extras, lambda_rate, seed):
    """Extend each train fold with lambda-admitted unmatched samples."""
    out = []
    for i, tr in enumerate(train_sets):
        if lambda_rate <= 0 or unmatched.size == 0:
            out.append(np.sort(tr).astype(np.int64))
            continue
        avail = np.array([u for u in unmatched if u not in test_extras[i]], dtype=np.int64)
        n_admit = min(len(avail), int(len(tr) // lambda_rate))
        if n_admit > 0:
            rng = np.random.default_rng([seed, 2, i])
            chosen = rng.choice(avail, size=n_admit, replace=False)
            tr = np.concatenate([tr, chosen])
        out.append(np.sort(tr).astype(np.int64))
    return out


def plan_random(ds: WeakDataset, k: int, lambda_rate: float = 0.0, seed: int = 0) -> FoldPlan:
    """Standard k-fold partition of the matched samples."""
    matched, unmatched = _split_indices(ds)
    if k < 2:
        raise ValueError("k must be >= 2")
    if k > matched.size:
        raise ValueError(f"k={k} exceeds the number of matched samples ({matched.size})")
    perm = np.random.default_rng([seed, 0]).permutation(matched)
    test_sets = [np.sort(part).astype(np.int64) for part in np.array_split(perm, k)]
    train_sets = [np.setdiff1d(matched, t) for t in test_sets]
    test_sets, extras = _assign_unmatched_tests(test_sets, unmatched, k, seed)
    train_sets = _admit_unmatched(train_sets, unmatched, extras, lambda_rate, seed)
    return FoldPlan("random", k, list(zip(train_sets, test_sets)), lambda_rate, seed)


def plan_by_lf(ds: WeakDataset, k: int, lambda_rate: float = 0.0, seed: int = 0) -> FoldPlan:
    """Split LFs into k folds; train only on samples disjoint from held-out LFs."""
    matched, unmatched = _split_indices(ds)
    if k < 2:
        raise ValueError("k must be >= 2")
    if k > ds.n_lfs:
        raise ValueError(f"k={k} exceeds the number of LFs ({ds.n_lfs})")
    perm = np.random.default_rng([seed, 0]).permutation(ds.n_lfs)
    lf_folds = [set(part.tolist()) for part in np.array_split(perm, k)]
    zd = ds.z.toarray()
    train_sets, test_sets = [], []
    for i, f in enumerate(lf_folds):
        lf_idx = sorted(f)
        hits = zd[:, lf_idx].sum(axis=1)
        disjoint = (hits == 0) & ds.matched_mask
        overlapping = (hits > 0) & ds.matched_mask
        tr = np.flatnonzero(disjoint).astype(np.int64)
        te = np.flatnonzero(overlapping).astype(np.int64)
        if tr.size == 0:
            raise ValueError(f"by_lf fold {i} has an empty train set")
        if te.size == 0:
            raise ValueError(f"by_lf fold {i} has an empty test set")
        train_sets.append(tr)
        test_sets.append(te)
    test_sets, extras = _assign_unmatched_tests(test_sets, unmatched, k, seed)
    train_sets = _admit_unmatched(train_sets, unmatched, extras, lambda_rate, seed)
    plan = FoldPlan("by_lf", k, list(zip(train_sets, test_sets)), lambda_rate, seed)
    plan.lf_folds = [sorted(f) for f in lf_folds]
    return plan


def plan_by_signature(ds: WeakDataset, k: int, lambda_rate: float = 0.0, seed: int = 0) -> FoldPlan:
    """Split distinct signatures into k folds; test folds partition matched samples."""
    matched, unmatched = _split_indices(ds)
    if k < 2:
        raise ValueError("k must be >= 2")
    sigs = ds.signatures()
    distinct = sorted({sigs[i] for i in matched})
    if k > len(distinct):
        raise ValueError(
            f"k={k} exceeds the number of distinct nonempty signatures ({len(distinct)})"
        )
    order = np.random.default_rng([seed, 0]).permutation(len(distinct))
    sig_folds = [
        {distinct[j] for j in part} for part in np.array_split(order, k)
    ]
    train_sets, test_sets = [], []
    for f in sig_folds:
        te = np.array([i for i in matched if sigs[i] in f], dtype=np.int64)
        tr = np.array([i for i in matched if sigs[i] not in f], dtype=np.int64)
        train_sets.append(tr)
        test_sets.append(te)
    test_sets, extras = _assign_unmatched_tests(test_sets, unmatched, k, seed)
    train_sets = _admit_unmatched(train_sets, unmatched, extras, lambda_rate, seed)
    plan = FoldPlan("by_signature", k, list(zip(train_sets, test_sets)), lambda_rate, seed)
    plan.sig_folds = sig_folds
    return plan


def build_plan(ds: WeakDataset, strategy: str, k: int, lambda_rate: float, seed: int) -> FoldPlan:
    if strategy == "random":
        return plan_random(ds, k, lambda_rate, seed)
    if strategy == "by_lf":
        return plan_by_lf(ds, k, lambda_rate, seed)
    if strategy == "by_signature":
        return plan_by_signature(ds, k, lambda_rate, seed)
    raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")


def estimate_oos(ds: WeakDataset, labels: LabelVector, plan: FoldPlan,
                 feat_cfg: FeaturizeConfig | None = None,
                 clf_cfg: ClassifierConfig | None = None,
                 fold_predict=None) -> OOSProbs:
    """Train one model per fold and collect out-of-sample probabilities.

    For each fold the vocabulary is refitted on the training documents only
    (no feature leakage from test documents).  Samples tested by several
    folds get the arithmetic mean of their probability rows.

    ``fold_predict(ds, train_idx, label_array, test_idx) -> (n_test, K)``
    replaces the default TF-IDF + logistic-regression fold model; used by
    tests and audits.
    """
    feat_cfg = feat_cfg or FeaturizeConfig()
    clf_cfg = clf_cfg or ClassifierConfig()
    y = as_labels(labels)
    n, k_classes = ds.n_samples, ds.num_classes
    acc = np.zeros((n, k_classes))
    cnt = np.zeros(n, dtype=np.int64)
    for fi, (tr, te) in enumerate(plan.folds):
        try:
            if fold_predict is not None:
                p = fold_predict(ds, tr, y, te)
            else:
                train_texts = [ds.texts[i] for i in tr]
                vocab = fit_vocabulary(train_texts, feat_cfg)
                x_tr = transform(train_texts, vocab)
                x_te = transform([ds.texts[i] for i in te], vocab)
                fold_cfg = replace(clf_cfg, seed=derive_seed(clf_cfg.seed, fi))
                model = train(x_tr, y[tr], cfg=fold_cfg, num_classes=k_classes)
                p = predict_proba(model, x_te)
        except Exception as exc:
            raise RuntimeError(f"fold {fi}: {exc}") from exc
        acc[te] += p
        cnt[te] += 1
    if (cnt == 0).any():
        missing = int(np.flatnonzero(cnt == 0)[0])
        raise RuntimeError(f"sample {missing} was not tested by any fold")
    return OOSProbs(acc / cnt[:, None], cnt)
