"""Weighted multinomial logistic regression trained with mini-batch SGD.

The objective is weighted cross-entropy plus an L2 penalty:

    loss(W, b) = -sum_i w_i * ln softmax(x_i W + b)[y_i] / sum_i w_i
                 + l2 * ||W||^2

Weights are initialized to zero (the objective is convex, so initialization
is immaterial and this removes a randomness source).  Shuffling is keyed by
(seed, epoch); early stopping tracks the weighted mean loss on the training
set, and the parameters from the best epoch are returned.

One SGD loop, ``train_group``, fits a group of models side by side; ``train``
is a group of one, and cross-validation trains its fold models as groups.
The models share a config, but each has its own rows, columns, labels,
sample weights and seed, and each comes out bit for bit as it would alone.

The group's features are stacked into one CSR array: model f's rows follow
model f-1's, and its columns are shifted past the widths of the models
before it, so its rows touch only its own block of the stacked weights.
Each epoch draws every model's permutation from (seed_f, epoch) and orders
the batches step-major: step s holds batch s of every model that has one,
in model order, leaving out batches whose weights sum to zero.  The rows of
``_BLOCK_STEPS`` steps at a time are gathered from the stacked array, so a
step is the contiguous slice ``indptr[a:b + 1]`` of a gather; its offsets
are absolute, so it shares the ``indices`` and ``data`` arrays uncopied.
The step's logits come from one ``csr_matvecs`` call and its weight
gradient from one ``csc_matvecs`` call on the same arrays, read as the CSC
form of the transpose.  These are the kernels that ``x[idx] @ w`` and
``x[idx].T @ g`` call, so every sum runs in the same order as with those
expressions.  The kernels are imported from the private
``scipy.sparse._sparsetools`` because the public operators spend most of a
small batch's time building and checking objects; ``tests/test_linear.py``
pins them against ``@``.

What stays per model: the permutation, the batch weight sum and the
zero-weight-batch skip, the bias gradient (a sum over the model's own rows),
the non-finite checks, the epoch loss, the best-epoch copy and patience.  A
model that stops early or fails drops out of later steps, and its failure
does not stop the others.  A step checks its losses in bulk: while its
weighted log-probabilities and the sum of squared weights are far from
overflow (``_SAFE``), no model's loss can be non-finite; otherwise each
model's loss is computed as a lone model computes it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse._sparsetools import csc_matvecs, csr_matvecs

from wsdenoise.corpus import as_labels

# a step's loss terms below this cannot add up to a non-finite loss: the
# float64 maximum is 1.8e308
_SAFE = 1e300
_BLOCK_STEPS = 16  # steps whose rows are gathered at once; bounds that copy


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


def _logit_grad(logp: np.ndarray, y: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """The loss gradient with respect to the logits: (softmax - one-hot) times ``scale``."""
    g = np.exp(logp)
    g[np.arange(len(y)), y] -= 1.0
    g *= scale[:, None]
    return g


def _logits(indptr, indices, data, w) -> np.ndarray:
    """``x @ w`` for the CSR rows ``indptr`` (absolute offsets into ``indices`` and ``data``)."""
    n, (v, k) = len(indptr) - 1, w.shape
    out = np.zeros((n, k))
    csr_matvecs(n, v, k, indptr, indices, data, w.ravel(), out.ravel())
    return out


def loss_and_grad(weights, bias, indptr, indices, data, y, sample_weights, l2):
    """Weighted cross-entropy loss with L2 penalty, plus analytic gradients.

    One SGD step of one model, written out: the batch is the CSR row block
    ``indptr`` (one more entry than rows, absolute offsets into ``indices``
    and ``data``); ``y`` and ``sample_weights`` hold one entry per row.
    ``train_group`` computes the same quantities for every model of a step.
    """
    n = len(indptr) - 1
    v, k = weights.shape
    logits = _logits(indptr, indices, data, weights)
    logits += bias
    logp = _log_softmax(logits)
    wsum = sample_weights.sum()
    loss = -(sample_weights * logp[np.arange(n), y]).sum() / wsum
    loss += l2 * (weights ** 2).sum()

    g = _logit_grad(logp, y, sample_weights / wsum)
    gw = np.zeros((v, k))
    csc_matvecs(v, n, k, indptr, indices, data, g.ravel(), gw.ravel())
    gw += 2.0 * l2 * weights
    gb = g.sum(axis=0)
    return loss, gw, gb


def _checked(features, labels, sample_weights):
    """One model's float64 CSR features, int labels and float sample weights, validated."""
    x = sp.csr_array(features, dtype=np.float64)
    y = as_labels(labels)
    n = x.shape[0]
    if n == 0:
        raise ValueError("cannot train on zero feature rows")
    if len(y) != n:
        raise ValueError("feature and label lengths disagree")
    if sample_weights is None:
        return x, y, np.ones(n)
    sw = np.asarray(sample_weights, dtype=float)
    if sw.shape != (n,):
        raise ValueError(f"{sw.size} sample weights for {n} feature rows")
    if (sw < 0).any():
        raise ValueError("sample weights must be nonnegative")
    if sw.sum() == 0:
        raise ValueError("sample weights must not all be zero")
    return x, y, sw


def _stack(xs: list) -> sp.csr_array:
    """The models' rows one after another, model f's columns shifted past the models before it.

    Empties ``xs`` as it copies, so a model's matrix that nothing else holds
    is freed before the next one is copied.
    """
    if len(xs) == 1:
        return xs.pop()
    n_rows = sum(x.shape[0] for x in xs)
    width = sum(x.shape[1] for x in xs)
    total = sum(int(x.indptr[-1] - x.indptr[0]) for x in xs)
    dtype = np.int32 if max(total, width) < 2 ** 31 else np.int64
    data, indices = np.empty(total), np.empty(total, dtype=dtype)
    indptr = np.zeros(n_rows + 1, dtype=dtype)
    at = row = col = 0
    for f in range(len(xs)):
        x, xs[f] = xs[f], None
        lo, hi = int(x.indptr[0]), int(x.indptr[-1])
        data[at:at + hi - lo] = x.data[lo:hi]
        np.add(x.indices[lo:hi], col, out=indices[at:at + hi - lo])
        np.add(x.indptr[1:], at - lo, out=indptr[row + 1:row + 1 + x.shape[0]])
        at, row, col = at + hi - lo, row + x.shape[0], col + x.shape[1]
    xs.clear()
    return sp.csr_array((data, indices, indptr), shape=(n_rows, width))


@dataclass
class _Fit:
    """One model's progress through the group loop."""
    rows: slice               # its rows of the stacked features
    cols: slice               # its columns: its block of the stacked weights
    seed: int
    best_loss: float = np.inf
    best: tuple = ()
    bad_epochs: int = 0
    log: list = field(default_factory=list)
    error: RuntimeError | None = None


class _Epoch:
    """An epoch's batches from step ``first`` on, in step-major order.

    ``perms`` maps each running model to its epoch permutation of its own
    rows.  Batch i (in step-major order) belongs to model ``model[i]``,
    weighs ``wsum[i]``, has ``length[i]`` rows and covers positions
    ``edge[i]:edge[i + 1]`` of ``order``, the stacked rows in step-major
    order.  The j-th step that has a batch left is epoch step ``steps[j]``
    and holds batches ``step_ptr[j]:step_ptr[j + 1]``; ``full[j]`` says all
    of them have ``batch_size`` rows, and ``tmax[j]`` bounds the step's
    weighted log-probabilities for the bulk loss check.
    """

    def __init__(self, sw, fits, perms, batch_size, first):
        order, model, step, wsum, length = [], [], [], [], []
        for f, perm in perms.items():
            g = perm + fits[f].rows.start
            w = sw[g]
            whole = len(g) // batch_size * batch_size
            ws = w[:whole].reshape(-1, batch_size).sum(axis=1)  # bitwise each batch's sum
            if whole < len(g):
                ws = np.append(ws, w[whole:].sum())
            j = np.arange(len(ws))
            order.append(g)
            model.append(np.full(len(ws), f))
            step.append(j)
            wsum.append(ws)
            length.append(np.minimum(batch_size, len(g) - j * batch_size))
        order, model, step, wsum, length = map(np.concatenate, (order, model, step, wsum, length))
        start = np.cumsum(length) - length
        # a batch whose weights sum to zero is skipped, as a lone model skips it
        keep = np.flatnonzero((wsum != 0) & (step >= first))
        keep = keep[np.argsort(step[keep], kind="stable")]
        model, step, wsum, length, start = (a[keep] for a in (model, step, wsum, length, start))
        edge = np.concatenate(([0], np.cumsum(length)))
        self.order = order[np.repeat(start - edge[:-1], length) + np.arange(edge[-1])]
        firsts = np.flatnonzero(np.diff(step, prepend=-1))
        self.steps = step[firsts].tolist()
        self.step_ptr = np.append(firsts, keep.size).tolist()
        if keep.size:
            self.full = (np.minimum.reduceat(length, firsts) == batch_size).tolist()
            # |weight x log-probability| below this keeps every batch's loss sum
            # and its quotient by the batch weight sum below _SAFE
            wcap = np.minimum(1.0, np.minimum.reduceat(wsum, firsts))
            self.tmax = (_SAFE / batch_size * wcap).tolist()
        else:
            self.full = self.tmax = []
        self.model, self.wsum, self.length, self.edge = model, wsum, length, edge.tolist()


def _run_steps(x, y, sw, ep: _Epoch, w, b, fits, n_live, cfg: ClassifierConfig):
    """Run the steps of ``ep`` on the stacked ``x``, ``y`` and ``sw``.

    Rows are gathered ``_BLOCK_STEPS`` steps at a time.  A model fails when
    its batch loss is non-finite; the step still updates the others.
    Returns ``([], None)`` when every step ran, else the failed models and
    the epoch step to resume at without them.
    """
    lr, l2, batch_size = cfg.learning_rate, cfg.l2, cfg.batch_size
    v, k = w.shape
    w_flat = w.ravel()
    sptr, edge, model = ep.step_ptr, ep.edge, ep.model
    gathered = 0  # the block holds positions [first_row, gathered) of ep.order
    for j in range(len(ep.steps)):
        p, q = sptr[j], sptr[j + 1]
        a, c = edge[p], edge[q]
        n = c - a
        m = model[p:q]
        if c > gathered:
            last = sptr[min(j + _BLOCK_STEPS, len(ep.steps))]
            first_row, gathered = a, edge[last]
            rows = ep.order[first_row:gathered]
            block = x[rows]
            indptr, indices, data = block.indptr, block.indices, block.data
            block_y, block_sw = y[rows], sw[rows]
            block_scale = block_sw / np.repeat(ep.wsum[p:last], ep.length[p:last])
            block_model = np.repeat(model[p:last], ep.length[p:last])
        r0, r1 = a - first_row, c - first_row
        ptr = indptr[r0:r1 + 1]
        logits = _logits(ptr, indices, data, w)
        logits += b[m[0]] if q - p == 1 else b[block_model[r0:r1]]
        logp = _log_softmax(logits)
        yb = block_y[r0:r1]
        t = block_sw[r0:r1] * logp[np.arange(n), yb]
        failed = []
        sq = w_flat @ w_flat
        if not (sq < _SAFE and l2 * sq < _SAFE and -t.min() < ep.tmax[j]):
            for i in range(p, q):  # some loss may be non-finite: compute each exactly
                f = int(model[i])
                loss = -t[edge[i] - a:edge[i + 1] - a].sum() / ep.wsum[i]
                loss += l2 * (w[fits[f].cols] ** 2).sum()
                if not np.isfinite(loss):
                    failed.append(f)
        g = _logit_grad(logp, yb, block_scale[r0:r1])
        gw = np.zeros((v, k))
        csc_matvecs(v, n, k, ptr, indices, data, g.ravel(), gw.ravel())
        if not l2:
            w -= lr * gw  # blocks no row touched have a zero gradient
        elif q - p == n_live:
            gw += 2.0 * l2 * w
            w -= lr * gw
        else:  # update only the models in this step: the others' L2 term must wait
            for f in m.tolist():
                cols = fits[f].cols
                gw[cols] += 2.0 * l2 * w[cols]
                w[cols] -= lr * gw[cols]
        if ep.full[j]:
            b[m] -= lr * g.reshape(q - p, batch_size, k).sum(axis=1)
        else:
            for i in range(p, q):
                b[model[i]] -= lr * g[edge[i] - a:edge[i + 1] - a].sum(axis=0)
        if failed:
            return failed, ep.steps[j] + 1
    return [], None


def _mean_loss(logits, y, sample_weights, weights, l2):
    logp = _log_softmax(logits)
    wsum = sample_weights.sum()
    return float(
        -(sample_weights * logp[np.arange(len(y)), y]).sum() / wsum
        + l2 * (weights ** 2).sum()
    )


def train_group(features, labels: list, sample_weights: list | None = None,
                cfg: ClassifierConfig | None = None, seeds: list | None = None, *,
                num_classes: int) -> list:
    """Fit one model per entry of ``features`` in one SGD loop.

    Model f has its own features, labels, sample weights (``None`` for all
    ones) and seed (``seeds[f]``, default ``cfg.seed``); every other setting
    comes from ``cfg``.  Returns, per model, the ``Model`` that ``train``
    returns for it alone, or the ``RuntimeError`` that stopped it (a
    non-finite loss).  A model that fails leaves the others running.
    ``features`` may be any iterable: a matrix nothing else holds is freed
    once it is stacked.
    """
    cfg = cfg or ClassifierConfig()
    features = list(features)
    count = len(features)
    weights = [None] * count if sample_weights is None else list(sample_weights)
    seeds = [cfg.seed] * count if seeds is None else list(seeds)
    if not len(labels) == len(weights) == len(seeds) == count:
        raise ValueError("need one feature matrix, label vector, weight vector and seed per model")
    xs, ys, sws = [], [], []
    for f in range(count):
        x, y, sw = _checked(features[f], labels[f], weights[f])
        features[f] = None  # from here on only xs holds the matrix
        xs.append(x)
        ys.append(y)
        sws.append(sw)
    rows = np.cumsum([0] + [x.shape[0] for x in xs]).tolist()
    cols = np.cumsum([0] + [x.shape[1] for x in xs]).tolist()
    y, sw = np.concatenate(ys), np.concatenate(sws)
    x = _stack(xs)
    fits = [_Fit(slice(rows[f], rows[f + 1]), slice(cols[f], cols[f + 1]), int(seeds[f]))
            for f in range(count)]

    w = np.zeros((x.shape[1], int(num_classes)))
    b = np.zeros((count, int(num_classes)))
    live = list(range(count))

    def drop(f):
        live.remove(f)
        w[fits[f].cols] = 0.0  # a dropped block stays zero and out of every check
        b[f] = 0.0

    def fail(f, epoch):
        fits[f].error = RuntimeError(f"non-finite loss at epoch {epoch}; learning rate too large?")
        drop(f)

    for epoch in range(cfg.epochs):
        if not live:
            break
        perms = {f: np.random.default_rng([fits[f].seed, epoch]).permutation(
                 fits[f].rows.stop - fits[f].rows.start) for f in live}
        first = 0
        while first is not None:
            failed, first = _run_steps(x, y, sw, _Epoch(sw, fits, perms, cfg.batch_size, first),
                                       w, b, fits, len(live), cfg)
            for f in failed:
                fail(f, epoch)
                del perms[f]
            if not perms:
                break
        for f in list(live):
            fit = fits[f]
            r = fit.rows
            logits = _logits(x.indptr[r.start:r.stop + 1], x.indices, x.data, w)
            logits += b[f]
            epoch_loss = _mean_loss(logits, y[r], sw[r], w[fit.cols], cfg.l2)
            if not np.isfinite(epoch_loss):
                fail(f, epoch)
                continue
            fit.log.append(epoch_loss)
            if epoch_loss < fit.best_loss:
                fit.best_loss = epoch_loss
                fit.best = (w[fit.cols].copy(), b[f].copy())
                fit.bad_epochs = 0
            else:
                fit.bad_epochs += 1
                if fit.bad_epochs >= cfg.patience:
                    drop(f)

    return [fit.error or Model(*fit.best, training_log=fit.log) for fit in fits]


def train(features, labels, sample_weights=None, cfg: ClassifierConfig | None = None,
          *, num_classes: int) -> Model:
    """Fit by mini-batch SGD and return the best-epoch parameters.

    Early stopping watches the weighted mean training loss after each epoch.
    Per-batch gradients are normalized by the batch weight sum, so uniformly
    scaling all sample weights leaves the trajectory unchanged and
    zero-weight samples are inert.  ``num_classes`` sets K, also for a class
    no training label carries.  This is ``train_group`` on one model.
    """
    (result,) = train_group([features], [labels], [sample_weights], cfg,
                            num_classes=num_classes)
    if isinstance(result, Exception):
        raise result
    return result


def predict_proba(model: Model, features) -> np.ndarray:
    """Softmax class probabilities, one row per sample, rows summing to 1."""
    if features.shape[1] != model.weights.shape[0]:
        raise ValueError("feature width does not match model")
    return np.exp(_log_softmax(features @ model.weights + model.bias))
