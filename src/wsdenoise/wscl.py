"""Confident-joint estimation and noise-rate pruning with LF-aware folds.

A class-to-class confident joint counts (weak label, confident label) pairs
in a K x K array; samples without a confident label do not participate.  The
joint is calibrated row-wise to the weak-label class counts by the rule ULF's
LF rows follow too (``confidence.calibrate_rows``) and normalized by N, then
each off-diagonal cell (i, j) prunes round(N * q[i][j]) samples with weak
label i, ranked by the probability margin p(j) - p(i).  Pruned samples are
excluded from final training; nothing is relabeled.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from wsdenoise.confidence import NO_LABEL, calibrate_rows
from wsdenoise.corpus import WeakDataset, as_labels, majority_vote
from wsdenoise.featurize import FeaturizeConfig
from wsdenoise.linear import ClassifierConfig
from wsdenoise.pipeline import DenoiseResult, finish, oos_evidence
from wsdenoise.seeding import derive_seed


@dataclass
class PruneMask:
    keep: np.ndarray            # length N booleans
    pruned_counts: np.ndarray   # K x K pruned per cell (diagonal always 0)
    shortfall: np.ndarray       # K x K requested-minus-available per cell


@dataclass
class WsclConfig:
    k: int = 5
    strategy: str = "by_signature"   # by_lf or by_signature
    lambda_rate: float = 0.0
    seed: int = 0
    clf: ClassifierConfig = field(default_factory=ClassifierConfig)
    feat: FeaturizeConfig = field(default_factory=FeaturizeConfig)

    def __post_init__(self):
        if self.k < 2:
            raise ValueError("k must be >= 2")
        if self.strategy not in ("by_lf", "by_signature"):
            raise ValueError("strategy must be 'by_lf' or 'by_signature'")
        if not self.lambda_rate >= 0:
            raise ValueError("lambda_rate must be nonnegative")


def class_confident_joint(noisy, conf: np.ndarray, num_classes: int) -> np.ndarray:
    """Count (noisy label, confident label) pairs over confidently labeled samples.

    Rows are noisy labels and columns confident labels.
    """
    y = as_labels(noisy)
    c = np.zeros((num_classes, num_classes), dtype=np.int64)
    sel = conf != NO_LABEL
    np.add.at(c, (y[sel], conf[sel]), 1)
    return c


def calibrate_joint(c: np.ndarray, noisy) -> np.ndarray:
    """Scale each row to the noisy-label class count, then divide by N.

    Zero rows stay zero.  The result estimates the joint distribution of
    (noisy label, confident label) and sums to 1 when every class has both
    support and confident co-occurrences.
    """
    y = as_labels(noisy)
    counts = np.bincount(y, minlength=c.shape[0]).astype(float)
    return calibrate_rows(c, counts) / len(y)


def prune(q: np.ndarray, probs: np.ndarray, noisy) -> PruneMask:
    """Per off-diagonal cell (i, j), prune the top round(N * q[i][j]) samples
    with noisy label i ranked by margin p(j) - p(i) descending.

    Rounding is half-up; requests beyond the available samples are clamped
    and recorded as shortfall.  A sample implicated by several cells is
    pruned once, claimed by the first cell in row-major order; margin ties
    break toward the lower sample id.
    """
    y = as_labels(noisy)
    n, k = len(y), q.shape[0]
    pruned = np.zeros(n, dtype=bool)
    pruned_counts = np.zeros((k, k), dtype=np.int64)
    shortfall = np.zeros((k, k), dtype=np.int64)
    for i in range(k):
        for j in range(k):
            if i == j:
                continue
            m = int(np.floor(n * q[i, j] + 0.5))
            if m <= 0:
                continue
            cand = np.flatnonzero((y == i) & ~pruned)
            if cand.size == 0:
                shortfall[i, j] = m
                continue
            margins = probs[cand, j] - probs[cand, i]
            order = np.lexsort((cand, -margins))  # margin desc, then lower id
            take = cand[order[: min(m, cand.size)]]
            pruned[take] = True
            pruned_counts[i, j] = take.size
            if m > cand.size:
                shortfall[i, j] = m - cand.size
    return PruneMask(~pruned, pruned_counts, shortfall)


def run_wscl(ds: WeakDataset, cfg: WsclConfig, train_final: bool = True,
             noisy=None) -> DenoiseResult:
    """One plan -> probabilities -> confident joint -> prune -> train on kept.

    ``noisy`` overrides the majority-vote weak labels.
    """
    if noisy is None:
        noisy = majority_vote(ds, ds.t, cfg.seed)
    plan, probs, _, conf = oos_evidence(
        ds, noisy, cfg.strategy, cfg.k, cfg.lambda_rate, derive_seed(cfg.seed, 600),
        cfg.clf, derive_seed(cfg.seed, 700), cfg.feat)
    joint = class_confident_joint(noisy, conf, ds.num_classes)
    q = calibrate_joint(joint, noisy)
    mask = prune(q, probs.probs, noisy)
    report = {
        "confident_joint": joint.tolist(),
        "joint_estimate": q.tolist(),
        "pruned_counts": mask.pruned_counts.tolist(),
        "shortfall": mask.shortfall.tolist(),
        "pruned_ids": np.flatnonzero(~mask.keep).tolist(),
    }
    return finish(ds, noisy, train_final, cfg.feat, cfg.clf, keep_mask=mask.keep,
                  prune_report=report, last_plan=plan, last_probs=probs)
