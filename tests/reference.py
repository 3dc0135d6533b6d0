"""Textbook reference implementations, for tests only.

``ref_train`` is the plain per-model SGD loop that the ``linear`` module
docstring describes, written with public scipy and numpy operations: no
stacking, no fold groups, no bulk overflow check.  ``linear.train_group``
must fit every model of a group bit for bit as ``ref_train`` fits it alone.
"""

import numpy as np
import scipy.sparse as sp

from wsdenoise.linear import ClassifierConfig, Model


def _loss(x, w, b, y, sw, l2):
    """The objective on rows ``x`` with its log-probabilities: weighted cross-entropy plus L2."""
    logits = x @ w + b
    m = logits.max(axis=1, keepdims=True)
    logp = logits - (m + np.log(np.exp(logits - m).sum(axis=1, keepdims=True)))
    return -(sw * logp[np.arange(len(y)), y]).sum() / sw.sum() + l2 * (w ** 2).sum(), logp


def ref_train(features, labels, sample_weights, cfg: ClassifierConfig, *, num_classes: int):
    """Fit one model by mini-batch SGD; return its ``Model`` or the ``RuntimeError`` that stopped it.

    Weights start at zero.  Each epoch visits the rows in the permutation
    drawn from ``default_rng([seed, epoch])``, ``batch_size`` rows a batch,
    and skips a batch whose weights sum to zero.  A non-finite batch or epoch
    loss fails the fit at that epoch.  The best epoch by training loss is
    kept, and ``patience`` epochs without a new best stop the fit.
    """
    x = sp.csr_array(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    sw = np.ones(len(y)) if sample_weights is None else np.asarray(sample_weights, dtype=float)
    lr, l2 = cfg.learning_rate, cfg.l2
    w, b = np.zeros((x.shape[1], num_classes)), np.zeros(num_classes)
    best_loss, best, bad_epochs, log = np.inf, None, 0, []
    with np.errstate(all="ignore"):
        for epoch in range(cfg.epochs):
            failure = RuntimeError(f"non-finite loss at epoch {epoch}; learning rate too large?")
            perm = np.random.default_rng([cfg.seed, epoch]).permutation(len(y))
            for start in range(0, len(y), cfg.batch_size):
                rows = perm[start:start + cfg.batch_size]
                xb, yb, swb = x[rows], y[rows], sw[rows]
                wsum = swb.sum()
                if wsum == 0:
                    continue
                loss, logp = _loss(xb, w, b, yb, swb, l2)
                if not np.isfinite(loss):
                    return failure
                g = np.exp(logp)
                g[np.arange(len(rows)), yb] -= 1.0
                g *= (swb / wsum)[:, None]
                w -= lr * (xb.T @ g + 2.0 * l2 * w)
                b -= lr * g.sum(axis=0)
            loss = float(_loss(x, w, b, y, sw, l2)[0])
            if not np.isfinite(loss):
                return failure
            log.append(loss)
            if loss < best_loss:
                best_loss, best, bad_epochs = loss, (w.copy(), b.copy()), 0
            else:
                bad_epochs += 1
                if bad_epochs >= cfg.patience:
                    break
    return Model(*best, training_log=log)
