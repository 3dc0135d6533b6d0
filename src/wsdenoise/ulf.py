"""Iterative refinement of the LF-to-class mapping matrix.

Each iteration: majority-vote labels from the current mapping, out-of-sample
probabilities by k-fold cross-validation, confident labels via class
thresholds, an LF-confident count matrix C (L x K), its calibrated form
Q (per-LF totals match the Z match counts), and a convex combination of the
normalized Q row with the current mapping row.  Samples with no LF matched
keep randomly initialized labels that are upgraded from the out-of-sample
probabilities after each refinement and carried into the next iteration.
The loop stops early once the label vector stays unchanged for a configured
number of consecutive iterations; the final classifier is trained on all
samples with the last label vector.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from wsdenoise.confidence import NO_LABEL, Thresholds, confident_labels
from wsdenoise.corpus import LabelVector, WeakDataset, as_labels, majority_vote
from wsdenoise.featurize import FeaturizeConfig
from wsdenoise.linear import ClassifierConfig
from wsdenoise.pipeline import DenoiseResult, oos_evidence, train_text_model
from wsdenoise.seeding import derive_seed


@dataclass
class LfConfidentMatrix:
    c: np.ndarray  # L x K nonnegative integer counts


@dataclass
class CalibratedJoint:
    q: np.ndarray            # L x K nonnegative reals
    matches: np.ndarray      # per-LF match totals from Z
    informative: np.ndarray  # rows with any confident co-occurrence


@dataclass
class UlfConfig:
    p: float = 0.5                       # mixing coefficient toward the estimated joint
    k: int = 5
    strategy: str = "by_signature"
    lambda_rate: float = 0.0
    max_iters: int = 20
    stall_patience: int = 3
    seed: int = 0
    clf: ClassifierConfig = field(default_factory=ClassifierConfig)
    feat: FeaturizeConfig = field(default_factory=FeaturizeConfig)

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("p must lie in [0, 1]")
        if self.lambda_rate < 0:
            raise ValueError("lambda_rate must be nonnegative")
        if self.max_iters < 1 or self.stall_patience < 1:
            raise ValueError("max_iters and stall_patience must be >= 1")


def lf_confident_matrix(ds: WeakDataset, conf) -> LfConfidentMatrix:
    """Count confident co-occurrences: c[l][j] = #{samples: LF l matches, label j}."""
    labels = as_labels(conf)
    c = np.zeros((ds.n_lfs, ds.num_classes), dtype=np.int64)
    has = labels != NO_LABEL
    if has.any():
        onehot = np.zeros((ds.n_samples, ds.num_classes), dtype=np.int64)
        onehot[has, labels[has]] = 1
        c = np.asarray((ds.z.T @ onehot), dtype=np.int64)
    return LfConfidentMatrix(c)


def calibrate(cm: LfConfidentMatrix, ds: WeakDataset) -> CalibratedJoint:
    """Rescale each informative row so its total equals the LF's match count."""
    matches = np.asarray(ds.z.sum(axis=0)).ravel().astype(float)
    row_sums = cm.c.sum(axis=1).astype(float)
    informative = row_sums > 0
    q = np.zeros_like(cm.c, dtype=float)
    q[informative] = cm.c[informative] * (matches[informative] / row_sums[informative])[:, None]
    return CalibratedJoint(q, matches, informative)


def refine_t(t: np.ndarray, cj: CalibratedJoint, p: float) -> np.ndarray:
    """Mix evidence rows into the mapping: t_hat[l] = p * norm(q[l]) + (1-p) * t[l].

    Uninformative rows (no confident co-occurrence) keep their original
    allocation.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    t = np.asarray(t, dtype=float)
    out = t.copy()
    for l in np.flatnonzero(cj.informative):
        row = cj.q[l]
        out[l] = p * (row / row.sum()) + (1.0 - p) * t[l]
    return out


def relabel_unmatched(probs, th: Thresholds, mask: np.ndarray, current: LabelVector) -> LabelVector:
    """Give unmatched samples their confident label when one exists.

    Masked samples with no threshold-clearing class keep their current label;
    matched samples are untouched.
    """
    conf = confident_labels(probs, th)
    out = current.copy()
    adopt = mask & (conf.labels != NO_LABEL)
    out.labels[adopt] = conf.labels[adopt]
    return out


def _vote_seed(master: int, iteration: int) -> int:
    # iteration 1 reuses the master seed so the p=0 / single-iteration
    # configuration reproduces the majority baseline exactly
    return master if iteration <= 1 else derive_seed(master, 100, iteration)


def run_ulf(ds: WeakDataset, cfg: UlfConfig, fold_predict=None, train_final: bool = True) -> DenoiseResult:
    """Run the full refinement loop and train a classifier on the final labels."""
    unmatched = ~ds.matched_mask
    t_hat = np.asarray(ds.t, dtype=float).copy()

    labels = majority_vote(ds, t_hat, _vote_seed(cfg.seed, 1))
    carried = labels.labels[unmatched].copy()
    train_labels = labels.copy()
    prev = labels.labels.copy()

    fractions: list[float] = []
    diagnostics: list[dict] = []
    stall = 0
    iterations = 0
    last_plan = None
    last_probs = None
    final = labels

    for it in range(1, cfg.max_iters + 1):
        iterations = it
        try:
            plan, probs, th, conf = oos_evidence(
                ds, train_labels, cfg.strategy, cfg.k, cfg.lambda_rate,
                derive_seed(cfg.seed, 200, it), cfg.clf, derive_seed(cfg.seed, 300, it),
                cfg.feat, fold_predict)
            cm = lf_confident_matrix(ds, conf)
            cj = calibrate(cm, ds)
            t_hat = refine_t(t_hat, cj, cfg.p)

            updated = majority_vote(ds, t_hat, _vote_seed(cfg.seed, it))
            updated.labels[unmatched] = carried  # relabeling applies from the next iteration
            frac = float((updated.labels != prev).mean())

            relabeled = relabel_unmatched(probs, th, unmatched, updated)
            carried = relabeled.labels[unmatched].copy()
            train_labels = relabeled
        except (RuntimeError, ValueError) as exc:
            raise RuntimeError(f"ULF iteration {it}: {exc}") from exc

        fractions.append(frac)
        diagnostics.append({
            "iteration": it,
            "label_change_fraction": frac,
            "thresholds": th.t.tolist(),
            "t_hat": t_hat.tolist(),
        })
        prev = updated.labels.copy()
        final = updated
        last_plan, last_probs = plan, probs

        stall = stall + 1 if frac == 0.0 else 0
        if stall >= cfg.stall_patience:
            break

    model = None
    if train_final:
        model = train_text_model(ds, final.labels, feat_cfg=cfg.feat, clf_cfg=cfg.clf)
    return DenoiseResult(
        final_labels=final,
        refined_t=t_hat,
        iterations_run=iterations,
        label_change_fractions=fractions,
        final_model=model,
        diagnostics=diagnostics,
        last_plan=last_plan,
        last_probs=last_probs,
    )
