"""Class-expected thresholds and confident out-of-sample labels.

A class threshold t_j is the mean predicted probability of class j over the
samples whose noisy label is j.  A sample's confident label is the argmax
over the classes whose predicted probability clears their threshold; if no
class clears, the sample has no confident label (encoded as -1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from wsdenoise.corpus import as_labels

NO_LABEL = -1


@dataclass
class Thresholds:
    t: np.ndarray        # length K, entries in [0, 1]
    support: np.ndarray  # per-class count of noisy-label samples used


@dataclass
class ConfidentLabels:
    labels: np.ndarray   # length N; class id, or NO_LABEL where no threshold is met


def as_probs(probs) -> np.ndarray:
    """N x K probability array from an ``OOSProbs`` or an array."""
    return np.asarray(getattr(probs, "probs", probs), dtype=float)


def class_thresholds(probs, noisy) -> Thresholds:
    """Per-class mean self-confidence; classes with zero support fall back to 1/K.

    The fallback keeps zero-support classes claimable by a genuinely dominant
    prediction instead of locking them out.
    """
    p = as_probs(probs)
    y = as_labels(noisy)
    k = p.shape[1]
    t = np.empty(k)
    support = np.zeros(k, dtype=np.int64)
    for j in range(k):
        idx = np.flatnonzero(y == j)
        support[j] = idx.size
        t[j] = p[idx, j].mean() if idx.size else 1.0 / k
    return Thresholds(t, support)


def confident_labels(probs, th: Thresholds) -> ConfidentLabels:
    """Argmax over threshold-clearing classes; ties go to the lowest class index."""
    p = as_probs(probs)
    qualifies = p >= th.t[None, :]
    masked = np.where(qualifies, p, -np.inf)
    labels = np.argmax(masked, axis=1).astype(np.int64)  # first max: lowest index on ties
    labels[~qualifies.any(axis=1)] = NO_LABEL
    return ConfidentLabels(labels)
