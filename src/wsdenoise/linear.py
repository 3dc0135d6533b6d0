"""Weighted multinomial logistic regression trained with mini-batch SGD.

The objective is weighted cross-entropy plus an L2 penalty:

    loss(W, b) = -sum_i w_i * ln softmax(x_i W + b)[y_i] / sum_i w_i
                 + l2 * ||W||^2

Weights are initialized to zero (the objective is convex, so initialization
is immaterial and this removes a randomness source).  Shuffling is keyed by
(seed, epoch); early stopping tracks the weighted mean loss on the training
set, and the parameters from the best epoch are returned.

One batch builds no scipy object.  ``train`` converts the features once to a
float64 CSR array and gathers each epoch's shuffled rows once.  A batch is
the slice ``indptr[start:stop + 1]`` of that gather: its offsets are
absolute, so it shares the ``indices`` and ``data`` arrays uncopied.  Its
logits come from ``csr_matvecs``, and its weight gradient from
``csc_matvecs`` on the same arrays, read as the CSC form of the transpose.
These are the kernels that ``x[idx] @ w`` and ``x[idx].T @ g`` call, so every
sum runs in the same order as with those expressions.  The kernels are
imported from the private ``scipy.sparse._sparsetools`` because the public
operators spend most of a small batch's time building and checking objects;
``tests/test_linear.py`` pins them against ``@``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse._sparsetools import csc_matvecs, csr_matvecs

from wsdenoise.corpus import as_labels


@dataclass
class ClassifierConfig:
    learning_rate: float = 1e-2
    epochs: int = 20
    patience: int = 5
    batch_size: int = 32
    l2: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.epochs < 1 or self.patience < 1 or self.batch_size < 1:
            raise ValueError("epochs, patience and batch_size must be >= 1")
        if self.l2 < 0:
            raise ValueError("l2 must be nonnegative")


@dataclass
class Model:
    weights: np.ndarray       # V x K
    bias: np.ndarray          # K
    training_log: list = field(default_factory=list)


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    m = logits.max(axis=1, keepdims=True)
    lse = m + np.log(np.exp(logits - m).sum(axis=1, keepdims=True))
    return logits - lse


def loss_and_grad(weights, bias, indptr, indices, data, y, sample_weights, l2):
    """Weighted cross-entropy loss with L2 penalty, plus analytic gradients.

    The batch is the CSR row block ``indptr`` (one more entry than rows,
    absolute offsets into ``indices`` and ``data``); ``y`` and
    ``sample_weights`` hold one entry per row.
    """
    n = len(indptr) - 1
    v, k = weights.shape
    logits = np.zeros((n, k))
    csr_matvecs(n, v, k, indptr, indices, data, weights.ravel(), logits.ravel())
    logits += bias
    logp = _log_softmax(logits)
    rows = np.arange(n)
    wsum = sample_weights.sum()
    loss = -(sample_weights * logp[rows, y]).sum() / wsum
    loss += l2 * (weights ** 2).sum()

    g = np.exp(logp)
    g[rows, y] -= 1.0
    g *= (sample_weights / wsum)[:, None]
    gw = np.zeros((v, k))
    csc_matvecs(v, n, k, indptr, indices, data, g.ravel(), gw.ravel())
    gw += 2.0 * l2 * weights
    gb = g.sum(axis=0)
    return loss, gw, gb


def _sgd_epoch(w, b, x, y, sw, cfg: ClassifierConfig, epoch: int):
    """One pass of mini-batch steps over rows already in shuffled order."""
    indptr, indices, data = x.indptr, x.indices, x.data
    for start in range(0, len(y), cfg.batch_size):
        stop = min(start + cfg.batch_size, len(y))
        bw = sw[start:stop]
        if bw.sum() == 0:
            continue
        loss, gw, gb = loss_and_grad(w, b, indptr[start:stop + 1], indices, data,
                                     y[start:stop], bw, cfg.l2)
        if not np.isfinite(loss):
            raise RuntimeError(f"non-finite loss at epoch {epoch}; learning rate too large?")
        w = w - cfg.learning_rate * gw
        b = b - cfg.learning_rate * gb
    return w, b


def _mean_loss(weights, bias, x, y, sample_weights, l2):
    n = x.shape[0]
    logp = _log_softmax(x @ weights + bias)
    wsum = sample_weights.sum()
    return float(
        -(sample_weights * logp[np.arange(n), y]).sum() / wsum + l2 * (weights ** 2).sum()
    )


def train(features, labels, sample_weights=None, cfg: ClassifierConfig | None = None,
          *, num_classes: int) -> Model:
    """Fit by mini-batch SGD and return the best-epoch parameters.

    Early stopping watches the weighted mean training loss after each epoch.
    Per-batch gradients are normalized by the batch weight sum, so uniformly
    scaling all sample weights leaves the trajectory unchanged and
    zero-weight samples are inert.  ``num_classes`` sets K, also for a class
    no training label carries.
    """
    cfg = cfg or ClassifierConfig()
    x = sp.csr_array(features, dtype=np.float64)
    y = as_labels(labels)
    n = x.shape[0]
    if len(y) != n:
        raise ValueError("feature and label lengths disagree")
    k = int(num_classes)
    if sample_weights is None:
        sw = np.ones(n)
    else:
        sw = np.asarray(sample_weights, dtype=float)
        if sw.shape != (n,):
            raise ValueError(f"{sw.size} sample weights for {n} feature rows")
        if (sw < 0).any():
            raise ValueError("sample weights must be nonnegative")
        if sw.sum() == 0:
            raise ValueError("sample weights must not all be zero")

    w = np.zeros((x.shape[1], k))
    b = np.zeros(k)
    best_loss = np.inf
    best_w, best_b = w.copy(), b.copy()
    bad_epochs = 0
    log: list[float] = []

    for epoch in range(cfg.epochs):
        perm = np.random.default_rng([cfg.seed, epoch]).permutation(n)
        w, b = _sgd_epoch(w, b, x[perm], y[perm], sw[perm], cfg, epoch)
        epoch_loss = _mean_loss(w, b, x, y, sw, cfg.l2)
        if not np.isfinite(epoch_loss):
            raise RuntimeError(f"non-finite loss at epoch {epoch}; learning rate too large?")
        log.append(epoch_loss)
        if epoch_loss < best_loss:
            best_loss = epoch_loss
            best_w, best_b = w.copy(), b.copy()
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= cfg.patience:
                break

    return Model(weights=best_w, bias=best_b, training_log=log)


def predict_proba(model: Model, features) -> np.ndarray:
    """Softmax class probabilities, one row per sample, rows summing to 1."""
    if features.shape[1] != model.weights.shape[0]:
        raise ValueError("feature width does not match model")
    return np.exp(_log_softmax(features @ model.weights + model.bias))
