"""Sample downweighting via repeated by-LF cross-validation.

For each of ``partitions`` rounds, LFs are split into k folds and a model is
trained per fold on the samples whose signatures avoid the held-out LFs.
A sample whose out-of-sample hard prediction disagrees with its weak label
collects a flag; its final training weight is ``epsilon ** flags``.
Unmatched samples are never flagged.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from wsdenoise.corpus import WeakDataset, majority_vote
from wsdenoise.featurize import FeaturizeConfig
from wsdenoise.linear import ClassifierConfig
from wsdenoise.pipeline import finish, oos_evidence
from wsdenoise.seeding import derive_seed


@dataclass
class WscwConfig:
    k: int = 5
    partitions: int = 3
    epsilon: float = 0.7     # per-flag weight multiplier
    seed: int = 0
    clf: ClassifierConfig = field(default_factory=ClassifierConfig)
    feat: FeaturizeConfig = field(default_factory=FeaturizeConfig)

    def __post_init__(self):
        if self.k < 2:
            raise ValueError("k must be >= 2")
        if self.partitions < 1:
            raise ValueError("partitions must be >= 1")
        if not 0.0 < self.epsilon <= 1.0:
            raise ValueError("epsilon must lie in (0, 1]")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass
class SampleWeights:
    w: np.ndarray       # length N, entries in (0, 1]; w[i] = epsilon ** flags[i]
    flags: np.ndarray   # per-sample count of disagreeing partitions


def run_wscw(ds: WeakDataset, cfg: WscwConfig, train_final: bool = True,
             collect_audit=None, noisy=None):
    """Flag disagreeing samples over repeated partitions, then train downweighted.

    Disagreement is judged on hard labels after multi-fold probability
    averaging: a sample tested by several folds gets one verdict per
    partition.  ``noisy`` overrides the majority-vote weak labels (used when
    the caller injects its own noise).  Returns
    ``(SampleWeights, TextModel | None)``.
    """
    if noisy is None:
        noisy = majority_vote(ds, ds.t, cfg.seed)
    matched = ds.matched_mask
    flags = np.zeros(ds.n_samples, dtype=np.int64)

    for part in range(cfg.partitions):
        plan, probs, _, _ = oos_evidence(
            ds, noisy, "by_lf", cfg.k, 0.0, derive_seed(cfg.seed, 400, part),
            cfg.clf, derive_seed(cfg.seed, 500, part), cfg.feat)
        pred = np.argmax(probs.probs, axis=1)
        flags += ((pred != noisy.labels) & matched).astype(np.int64)
        if collect_audit is not None:
            collect_audit(plan, probs)

    result = finish(ds, noisy, train_final, cfg.feat, cfg.clf,
                    sample_weights=SampleWeights(cfg.epsilon ** flags.astype(float), flags))
    return result.sample_weights, result.final_model
