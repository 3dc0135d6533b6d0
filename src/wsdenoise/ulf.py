"""Iterative refinement of the LF-to-class mapping matrix.

Each iteration: majority-vote labels from the current mapping, out-of-sample
probabilities by k-fold cross-validation, confident labels via class
thresholds, an LF-confident count array C (L x K), its calibrated form Q
(``confidence.calibrate_rows``: each LF row with any confident co-occurrence
is scaled to the LF's match count in Z), and a convex combination of the
normalized Q row with the current mapping row.  Samples with no LF matched
keep randomly initialized labels that are upgraded from the out-of-sample
probabilities after each refinement and carried into the next iteration.
The loop stops early once the label vector stays unchanged for a configured
number of consecutive iterations; the final classifier is trained on all
samples with the last label vector.  ``UlfConfig`` adds p and the loop's limits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from wsdenoise.confidence import NO_LABEL, calibrate_rows
from wsdenoise.corpus import LabelVector, WeakDataset, majority_vote
from wsdenoise.pipeline import DenoiseResult, FoldConfig, finish, oos_evidence
from wsdenoise.seeding import derive_seed


@dataclass
class UlfConfig(FoldConfig):
    p: float = 0.5                       # mixing coefficient toward the estimated joint
    max_iters: int = 20
    stall_patience: int = 3

    def __post_init__(self):
        super().__post_init__()
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("p must lie in [0, 1]")
        if self.max_iters < 1 or self.stall_patience < 1:
            raise ValueError("max_iters and stall_patience must be >= 1")


def lf_confident_matrix(ds: WeakDataset, conf: np.ndarray) -> np.ndarray:
    """Count confident co-occurrences: c[l][j] = #{samples: LF l matches, label j}."""
    has = conf != NO_LABEL
    onehot = np.zeros((ds.n_samples, ds.num_classes), dtype=np.int64)
    onehot[has, conf[has]] = 1
    return np.asarray((ds.z.T @ onehot), dtype=np.int64)


def calibrate(c: np.ndarray, ds: WeakDataset) -> np.ndarray:
    """Rescale each informative row so its total equals the LF's match count."""
    matches = np.asarray(ds.z.sum(axis=0)).ravel().astype(float)
    return calibrate_rows(c, matches)


def refine_t(t: np.ndarray, q: np.ndarray, p: float) -> np.ndarray:
    """Mix evidence rows into the mapping: t_hat[l] = p * norm(q[l]) + (1-p) * t[l].

    Uninformative rows (all zero: no confident co-occurrence) keep their
    original allocation.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    t = np.asarray(t, dtype=float)
    out = t.copy()
    totals = q.sum(axis=1)
    rows = totals > 0
    out[rows] = p * (q[rows] / totals[rows, None]) + (1.0 - p) * t[rows]
    return out


def relabel_unmatched(conf: np.ndarray, mask: np.ndarray, current: LabelVector) -> LabelVector:
    """Give masked samples their confident label from ``conf`` when it is not ``NO_LABEL``.

    Every other label stays as in ``current``.
    """
    out = current.copy()
    adopt = mask & (conf != NO_LABEL)
    out.labels[adopt] = conf[adopt]
    return out


def _vote_seed(master: int, iteration: int) -> int:
    # iteration 1 reuses the master seed so the p=0 / single-iteration
    # configuration reproduces the majority baseline exactly
    return master if iteration <= 1 else derive_seed(master, 100, iteration)


def run_ulf(ds: WeakDataset, cfg: UlfConfig, train_final: bool = True) -> DenoiseResult:
    """Run the full refinement loop and train a classifier on the final labels."""
    unmatched = ~ds.matched_mask
    t_hat = np.asarray(ds.t, dtype=float).copy()

    # ``final`` is the latest vote; ``train_labels`` is that vote after its
    # unmatched samples adopted their confident labels, and the next vote
    # carries those labels over
    final = train_labels = majority_vote(ds, t_hat, _vote_seed(cfg.seed, 1))

    diagnostics: list[dict] = []
    stall = 0

    for it in range(1, cfg.max_iters + 1):
        try:
            plan, probs, th, conf = oos_evidence(ds, train_labels, cfg,
                                                 derive_seed(cfg.seed, 200, it),
                                                 derive_seed(cfg.seed, 300, it))
            counts = lf_confident_matrix(ds, conf)
            q = calibrate(counts, ds)
            t_hat = refine_t(t_hat, q, cfg.p)

            updated = majority_vote(ds, t_hat, _vote_seed(cfg.seed, it))
            # relabeling applies from the next iteration
            updated.labels[unmatched] = train_labels.labels[unmatched]
            frac = float((updated.labels != final.labels).mean())
            train_labels = relabel_unmatched(conf, unmatched, updated)
        except (RuntimeError, ValueError) as exc:
            raise RuntimeError(f"ULF iteration {it}: {exc}") from exc

        diagnostics.append({
            "iteration": it,
            "label_change_fraction": frac,
            "thresholds": th.tolist(),
            "t_hat": t_hat.tolist(),
        })
        final = updated

        stall = stall + 1 if frac == 0.0 else 0
        if stall >= cfg.stall_patience:
            break

    # the last iteration's plan and probabilities
    return finish(ds, final, train_final, cfg.feat, cfg.clf, refined_t=t_hat,
                  diagnostics=diagnostics, last_plan=plan, last_probs=probs)
