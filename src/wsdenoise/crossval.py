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

``estimate_oos`` trains the fold models side by side, in groups of
consecutive folds whose stacked training features hold at most
``_GROUP_NNZ`` nonzeros, one ``linear.train_group`` call per group; every
fold model is bitwise the one it would be alone.
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
# stacked training nonzeros of one fold group (~6 MB of values and indices);
# bounds the group's memory, and a fold above it trains alone
_GROUP_NNZ = 1 << 19


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
    return FoldPlan(strategy, k, folds, lambda_rate, seed), groups


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


def _fit_folds(ds: WeakDataset, y: np.ndarray, plan: FoldPlan,
               feat_cfg: FeaturizeConfig, clf_cfg: ClassifierConfig) -> list:
    """Each fold's ``(vocabulary, column map, model)``, or the exception that stopped it.

    Consecutive folds' training features are cut and collected until the
    next fold would take the group past ``_GROUP_NNZ`` nonzeros; then the
    group trains in one ``train_group`` call.  Fold f trains with seed
    ``derive_seed(clf_cfg.seed, f)``.  The list ends at the first fold whose
    features fail or with the group in which a model fails: no later fold
    can change which error comes first.
    """
    fitted, group = [], []

    def train() -> bool:
        """Train the collected group; True when one of its models failed."""
        if not group:
            return False
        # the features go in as a generator, so each matrix is freed once stacked
        models = train_group((entry.pop() for entry in group),
                             [y[plan.folds[fi][0]] for fi, *_ in group], None, clf_cfg,
                             [derive_seed(clf_cfg.seed, fi) for fi, *_ in group],
                             num_classes=ds.num_classes)
        fitted.extend(m if isinstance(m, Exception) else (vocab, columns, m)
                      for (_, vocab, columns), m in zip(group, models))
        group.clear()
        return any(isinstance(m, Exception) for m in models)

    nnz = 0
    for fi, (tr, _) in enumerate(plan.folds):
        try:
            entry = [fi, *fit_rows(ds.term_counts, tr, feat_cfg)]
        except Exception as exc:
            train()
            return fitted + [exc]
        if group and nnz + entry[-1].nnz > _GROUP_NNZ:
            if train():
                return fitted
            nnz = 0
        nnz += entry[-1].nnz
        group.append(entry)
    train()
    return fitted


def estimate_oos(ds: WeakDataset, labels: LabelVector, plan: FoldPlan,
                 feat_cfg: FeaturizeConfig | None = None,
                 clf_cfg: ClassifierConfig | None = None,
                 fold_predict=None) -> OOSProbs:
    """Train one model per fold and collect out-of-sample probabilities.

    For each fold the vocabulary is refitted on the training documents only
    (no feature leakage from test documents); the features are cut from the
    dataset's count matrix, so no document is tokenized twice.  Samples
    tested by several folds get the arithmetic mean of their probability rows.

    The fold models train first, grouped as ``_fit_folds`` describes; only
    then are each fold's test rows cut and predicted.  A failure is raised as
    ``fold f: ...`` for the lowest failing fold, the error running the folds
    one after another would raise.

    ``fold_predict(ds, train_idx, label_array, test_idx) -> (n_test, K)``
    replaces the default TF-IDF + logistic-regression fold model; used by
    tests and audits.
    """
    feat_cfg = feat_cfg or FeaturizeConfig()
    clf_cfg = clf_cfg or ClassifierConfig()
    y = as_labels(labels)
    n, k_classes = ds.n_samples, ds.num_classes
    fitted = _fit_folds(ds, y, plan, feat_cfg, clf_cfg) if fold_predict is None else None
    acc = np.zeros((n, k_classes))
    cnt = np.zeros(n, dtype=np.int64)
    for fi, (tr, te) in enumerate(plan.folds):
        try:
            if fold_predict is not None:
                p = fold_predict(ds, tr, y, te)
            elif isinstance(fitted[fi], Exception):
                raise fitted[fi]
            else:
                vocab, columns, model = fitted[fi]
                p = predict_proba(model, transform_rows(ds.term_counts, te, vocab, columns))
        except Exception as exc:
            raise RuntimeError(f"fold {fi}: {exc}") from exc
        acc[te] += p
        cnt[te] += 1
    if (cnt == 0).any():
        missing = int(np.flatnonzero(cnt == 0)[0])
        raise RuntimeError(f"sample {missing} was not tested by any fold")
    return OOSProbs(acc / cnt[:, None], cnt)
