"""Class-expected thresholds, confident out-of-sample labels, and row calibration.

A class threshold t_j is the mean predicted probability of class j over the
samples whose noisy label is j.  A sample's confident label is the argmax
over the classes whose predicted probability clears their threshold; if no
class clears, the sample has no confident label (``NO_LABEL``, -1).  Both
are plain arrays: K thresholds and N int64 labels.  ``calibrate_rows`` turns
confident counts per row (an LF in ULF, a noisy class in WSCL) into the
calibrated confident joint of Confident Learning.
"""

from __future__ import annotations

import numpy as np

from wsdenoise.corpus import as_labels

NO_LABEL = -1


def class_thresholds(probs: np.ndarray, noisy) -> np.ndarray:
    """Per-class mean self-confidence; classes with zero support fall back to 1/K.

    The fallback keeps zero-support classes claimable by a genuinely dominant
    prediction instead of locking them out.
    """
    y = as_labels(noisy)
    k = probs.shape[1]
    t = np.empty(k)
    for j in range(k):
        idx = np.flatnonzero(y == j)
        t[j] = probs[idx, j].mean() if idx.size else 1.0 / k
    return t


def confident_labels(probs: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """Argmax over threshold-clearing classes; ties go to the lowest class index."""
    qualifies = probs >= thresholds[None, :]
    masked = np.where(qualifies, probs, -np.inf)
    labels = np.argmax(masked, axis=1).astype(np.int64)  # first max: lowest index on ties
    labels[~qualifies.any(axis=1)] = NO_LABEL
    return labels


def calibrate_rows(counts: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Scale each row of ``counts`` with a positive sum to its target total; zero rows stay zero."""
    row_sums = counts.sum(axis=1).astype(float)
    nonzero = row_sums > 0
    q = np.zeros_like(counts, dtype=float)
    q[nonzero] = counts[nonzero] * (targets[nonzero] / row_sums[nonzero])[:, None]
    return q
