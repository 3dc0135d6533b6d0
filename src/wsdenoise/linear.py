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
``_stack``, the one writer, allocates them once at their exact size and
writes each model's row blocks (``featurize.RowBlocks``; a matrix is one
block) at its offsets as they are cut, so a group holds its features once.
Each model's bias is one more row of those weights: ``_stack`` ends each of
model f's rows, last in storage order, with 1.0 in column V + f (V is the
total feature width), a lone model's too.  The kernels below then treat the
bias as a feature, with the bits of a separate bias vector:

- ``csr_matvecs`` adds a row's entries in storage order, starting from 0, so
  a last entry 1.0 * b gives (sum of x * w) + b, as adding b afterwards does;
  the largest column index alone would not be enough.
- ``csc_matvecs`` sums the bias row's gradient over the model's rows of the
  step in row order, the order of an axis sum of the logit gradient.
- ``gw *= lr; w -= gw`` gives b - gsum * lr, the bits of b -= lr * gsum.

Each epoch draws every model's permutation from (seed_f, epoch) and orders
the batches step-major: step s holds batch s of every model that has one,
in model order, leaving out batches whose weights sum to zero.  The rows of
``_BLOCK_STEPS`` steps at a time are gathered from the stacked array by
``csr_row_index``, the kernel that ``x[rows]`` calls, so a step is the
contiguous slice ``indptr[a:b + 1]`` of a gather; its offsets are absolute,
so it shares the ``indices`` and ``data`` arrays uncopied.  Every step, of a
group or of ``loss_and_grad``, is one ``_step`` call: its logits come from
one ``csr_matvecs`` call and its weight gradient from one ``csc_matvecs``
call on the same arrays, read as the CSC form of the transpose.  These are
the kernels that ``x[idx] @ w`` and ``x[idx].T @ g`` call, so every sum runs
in the same order as with those expressions.  The kernels are imported from
the private ``scipy.sparse._sparsetools`` because the public operators spend
most of a small batch's time building and checking objects;
``tests/test_linear.py`` pins them against ``@`` and ``x[rows]``.

A step's logits buffer is its own, so the log-softmax runs in place on it
and the exponential then turns it into the logit gradient.  The row maximum
and the row sum of exponentials are left folds over the K columns
(``_row_reduce``): on a few hundred rows of a few classes that takes a few
calls where numpy's axis-1 reduction is several times slower, and gives the
same bits.  From K = 8 on, numpy's pairwise sum is no left fold, so there
the reduction itself runs.  One update, ``w -= gw``, follows for every
feature and bias row.  It adds the L2 term to the feature blocks (the first
V rows) of the models in the step only, never to a bias row: a lone model
adds it at its own steps and no others.  After the steps, one forward pass
over each live model's own stacked rows gives its epoch-loss terms; the rows
of a model that patience stopped or that failed are not computed.

What stays per model: the permutation, the batch weight sum and the
zero-weight-batch skip, the non-finite checks, the epoch loss sum, the
best-epoch copy and patience.  A step checks its losses in bulk: while its
weighted log-probabilities stay within one bound for the whole epoch and the
sum of squares of all of ``w`` (bias rows included, which only makes the
check stricter) is far from overflow (``_SAFE``), no model's loss can be
non-finite; otherwise each model's loss is computed as a lone model computes
it (``_loss``, on its feature block).
A model whose loss is non-finite has failed: its later batches of the epoch
still run, on its own block and bias row, and when the epoch ends it drops
out with both zeroed, as a model stopped by patience does, so its failure
does not touch the others.  The steps and the epoch-loss checks run with
numpy's overflow and invalid-value warnings off, so the recorded
``non-finite loss at epoch N`` is a failure's only report.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse._sparsetools import csc_matvecs, csr_matvecs, csr_row_index

from wsdenoise.corpus import as_labels
from wsdenoise.featurize import RowBlocks

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
        if not 0 < self.learning_rate < np.inf:
            raise ValueError("learning_rate must be positive and finite")
        if self.epochs < 1 or self.patience < 1 or self.batch_size < 1:
            raise ValueError("epochs, patience and batch_size must be >= 1")
        if not 0 <= self.l2 < np.inf:
            raise ValueError("l2 must be nonnegative and finite")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass
class Model:
    weights: np.ndarray       # V x K
    bias: np.ndarray          # K
    training_log: list = field(default_factory=list)


def _row_reduce(ufunc, a: np.ndarray) -> np.ndarray:
    """``ufunc.reduce(a, axis=1, keepdims=True)`` bit for bit, in fewer calls on narrow rows.

    For 2 <= K < 8 this folds the columns left to right, one call per column,
    which on a few hundred rows is several times faster than the axis-1
    reduction.  numpy's pairwise summation unrolls by 8, so at K >= 8 its sum
    is no left fold and the reduction itself runs.  The fold gives the
    reduction's bits for ``np.maximum``, and for ``np.add`` on every row but
    one of negative zeros only, whose fold is -0.0 where the reduction gives
    0.0; the sums of exponentials that ``_log_softmax`` folds have no such row.
    """
    k = a.shape[1]
    if not 2 <= k < 8:
        return ufunc.reduce(a, axis=1, keepdims=True)
    out = ufunc(a[:, :1], a[:, 1:2])
    for j in range(2, k):
        ufunc(out, a[:, j:j + 1], out=out)
    return out


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise log-softmax, written over ``logits``, which the caller owns."""
    m = _row_reduce(np.maximum, logits)
    e = logits - m
    lse = _row_reduce(np.add, np.exp(e, out=e))
    np.add(m, np.log(lse, out=lse), out=lse)
    logits -= lse
    return logits


def _forward(indptr, indices, data, w, y, sw):
    """Log-probabilities of CSR rows ``indptr``, the labels' flat positions and ``sw * logp[y]``.

    ``indptr`` has one more entry than rows and holds absolute offsets into
    ``indices`` and ``data``; each row ends with its bias entry (``_stack``).
    """
    n, (v, k) = len(indptr) - 1, w.shape
    logits = np.zeros((n, k))
    csr_matvecs(n, v, k, indptr, indices, data, w.ravel(), logits.ravel())
    logp = _log_softmax(logits)
    at = np.arange(0, n * k, k) + y
    return logp, at, sw * logp.ravel()[at]


def _step(indptr, indices, data, w, y, sw, scale):
    """One forward/backward pass over the CSR rows ``indptr``.

    Returns the terms ``sw * logp[y]`` and the gradient of the data term for
    every row of ``w``, bias rows included, from the logit gradient (softmax
    minus one-hot, times ``scale`` per row); the L2 term is the caller's.
    """
    logp, at, t = _forward(indptr, indices, data, w, y, sw)
    v, k = w.shape
    g = np.exp(logp, out=logp)
    g.ravel()[at] -= 1.0
    g *= scale[:, None]
    gw = np.zeros((v, k))
    csc_matvecs(v, len(y), k, indptr, indices, data, g.ravel(), gw.ravel())
    return t, gw


def _loss(t, wsum, weights, l2):
    """The objective from one model's terms ``sw * logp[y]`` and their weight sum."""
    return -t.sum() / wsum + l2 * (weights ** 2).sum()


def loss_and_grad(weights, bias, indptr, indices, data, y, sample_weights, l2):
    """Weighted cross-entropy loss with L2 penalty, plus analytic gradients.

    One SGD step of one model: the batch is the CSR row block ``indptr``
    (one more entry than rows, absolute offsets into ``indices`` and
    ``data``); ``y`` and ``sample_weights`` hold one entry per row.
    It runs ``_step`` as ``train_group`` does, the bias a last stacked column.
    """
    v, lo, hi = weights.shape[0], indptr[0], indptr[-1]
    x = _stack([sp.csr_array((data[lo:hi], indices[lo:hi], indptr - lo), shape=(len(y), v))])
    wsum = sample_weights.sum()
    t, gw = _step(x.indptr, x.indices, x.data, np.vstack([weights, bias]), y,
                  sample_weights, sample_weights / wsum)
    return _loss(t, wsum, weights, l2), gw[:v] + 2.0 * l2 * weights, gw[v]


def _as_blocks(features) -> RowBlocks:
    """``features`` as ``RowBlocks``; any other matrix is one float64 CSR block."""
    if isinstance(features, RowBlocks):
        return features
    x = sp.csr_array(features, dtype=np.float64)
    return RowBlocks(x.shape, x.nnz, iter((x,)))


def _checked(features, labels, sample_weights, num_classes):
    """One model's features as ``RowBlocks``, int labels and float sample weights, validated."""
    x = _as_blocks(features)
    y = as_labels(labels)
    n = x.shape[0]
    if n == 0:
        raise ValueError("cannot train on zero feature rows")
    if len(y) != n:
        raise ValueError("feature and label lengths disagree")
    bad = y[(y < 0) | (y >= num_classes)]
    if bad.size:
        raise ValueError(f"label {bad[0]} out of range for num_classes={num_classes}")
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
    """The models' rows one after another, each row ending with its model's bias entry.

    Each entry of ``xs`` is a matrix or ``RowBlocks``.  Model f's columns are
    shifted past the models before it, and its bias entry is 1.0 in column
    ``V + f``, ``V`` the total width.  The arrays are allocated once, and
    each block is written as it is read; ``xs`` is emptied as it goes.
    """
    xs[:] = map(_as_blocks, xs)
    count, n_rows = len(xs), sum(x.shape[0] for x in xs)
    width = sum(x.shape[1] for x in xs)
    total = n_rows + sum(x.nnz for x in xs)
    dtype = np.int32 if max(total, width + count) < 2 ** 31 else np.int64
    data, indices = np.empty(total), np.empty(total, dtype=dtype)
    indptr = np.zeros(n_rows + 1, dtype=dtype)
    at = row = col = 0
    for f in range(count):
        source, xs[f] = xs[f], None
        for x in source.blocks:
            n, nnz = x.shape[0], int(x.indptr[-1])
            ends = indptr[row + 1:row + 1 + n]  # row r's entries, then its bias entry, end here
            np.add(x.indptr[1:], np.arange(at + 1, at + 1 + n), out=ends)
            feature = np.ones(nnz + n, dtype=bool)
            feature[ends - at - 1] = False
            data[at:at + nnz + n][feature] = x.data[:nnz]
            indices[at:at + nnz + n][feature] = x.indices[:nnz] + col
            data[ends - 1], indices[ends - 1] = 1.0, width + f
            at, row = at + nnz + n, row + n
            del x  # before the next block is cut
        col += source.shape[1]
    if (at, row) != (total, n_rows):
        raise ValueError("row blocks disagree with their declared shape and entries")
    xs.clear()
    return sp.csr_array((data, indices, indptr), shape=(n_rows, width + count))


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
    """An epoch's batches in step-major order.

    ``perms`` maps each running model to its epoch permutation of its own
    rows.  Batch i (in step-major order) belongs to model ``model[i]``,
    weighs ``wsum[i]``, has ``length[i]`` rows and covers positions
    ``edge[i]:edge[i + 1]`` of ``order``, the stacked rows in step-major
    order.  The j-th step that has a batch holds batches
    ``step_ptr[j]:step_ptr[j + 1]``.  ``tmax`` bounds every step's weighted
    log-probabilities for the bulk loss check; being the bound of the
    epoch's lightest batch, it is never above a step's own.
    """

    def __init__(self, sw, fits, perms, batch_size):
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
        keep = np.flatnonzero(wsum != 0)
        keep = keep[np.argsort(step[keep], kind="stable")]
        model, step, wsum, length, start = (a[keep] for a in (model, step, wsum, length, start))
        edge = np.concatenate(([0], np.cumsum(length)))
        self.order = order[np.repeat(start - edge[:-1], length) + np.arange(edge[-1])]
        firsts = np.flatnonzero(np.diff(step, prepend=-1))
        self.step_ptr = np.append(firsts, keep.size).tolist()
        # |weight x log-probability| below this keeps every batch's loss sum
        # and its quotient by the batch weight sum below _SAFE
        self.tmax = _SAFE / batch_size * min(1.0, float(wsum.min()))
        self.model, self.wsum, self.length, self.edge = model, wsum, length, edge.tolist()


def _gather(x, rows):
    """The CSR arrays of ``x[rows]``.

    ``rows`` must have the dtype of ``x.indptr`` and ``x.indices``.  This is
    the kernel and the ``indptr`` that ``x[rows]`` builds, without its checks.
    """
    indptr = np.zeros(len(rows) + 1, dtype=rows.dtype)
    np.cumsum(x.indptr[rows + 1] - x.indptr[rows], out=indptr[1:])
    indices, data = np.empty(indptr[-1], dtype=rows.dtype), np.empty(indptr[-1])
    csr_row_index(len(rows), rows, x.indptr, x.indices, x.data, indices, data)
    return indptr, indices, data


def _run_steps(x, y, sw, ep: _Epoch, w, fits, widths, cfg: ClassifierConfig) -> set:
    """Run the steps of ``ep`` on the stacked ``x``, ``y`` and ``sw``; return the models that failed.

    Rows are gathered ``_BLOCK_STEPS`` steps at a time.  A model fails when
    its batch loss is non-finite; its later batches still run, on its own
    block and bias row of ``w``, so the other models never see it.
    ``widths`` counts each model's feature rows of ``w``: the L2 term
    reaches only those of the models in a step.
    """
    lr, l2 = cfg.learning_rate, cfg.l2
    v = len(w) - len(fits)  # the feature rows; the bias rows follow
    w_flat = w.ravel()
    sptr, edge, model = ep.step_ptr, ep.edge, ep.model
    failed = set()
    gathered = 0  # the block holds positions [first_row, gathered) of ep.order
    for j in range(len(sptr) - 1):
        p, q = sptr[j], sptr[j + 1]
        a, c = edge[p], edge[q]
        if c > gathered:
            last = sptr[min(j + _BLOCK_STEPS, len(sptr) - 1)]
            first_row, gathered = a, edge[last]
            rows = ep.order[first_row:gathered].astype(x.indptr.dtype, copy=False)
            indptr, indices, data = _gather(x, rows)
            block_y, block_sw = y[rows], sw[rows]
            block_scale = block_sw / np.repeat(ep.wsum[p:last], ep.length[p:last])
        r0, r1 = a - first_row, c - first_row
        t, gw = _step(indptr[r0:r1 + 1], indices, data, w, block_y[r0:r1],
                      block_sw[r0:r1], block_scale[r0:r1])
        sq = w_flat @ w_flat
        if not (sq < _SAFE and l2 * sq < _SAFE and -t.min() < ep.tmax):
            for i in range(p, q):  # some loss may be non-finite: compute each exactly
                f = int(model[i])
                if not np.isfinite(_loss(t[edge[i] - a:edge[i + 1] - a], ep.wsum[i],
                                         w[fits[f].cols], l2)):
                    failed.add(f)
        if l2:  # 2 * l2 * w, masked to the feature blocks of the models in this step
            coef = np.zeros(len(fits))
            coef[model[p:q]] = 2.0 * l2
            gw[:v] += w[:v] * np.repeat(coef, widths)[:, None]
        gw *= lr
        w -= gw  # blocks and bias rows no row touched have a zero gradient
    return failed


def train_group(features, labels: list, sample_weights: list | None = None,
                cfg: ClassifierConfig | None = None, seeds: list | None = None, *,
                num_classes: int) -> list:
    """Fit one model per entry of ``features`` in one SGD loop.

    Model f has its own features, labels, sample weights (``None`` for all
    ones) and seed (``seeds[f]``, default ``cfg.seed``); every other setting
    comes from ``cfg``.  Returns, per model, the ``Model`` that ``train``
    returns for it alone, or the ``RuntimeError`` that stopped it (a
    non-finite loss).  A model that fails leaves the others running.
    ``features`` may be any iterable of matrices and ``featurize.RowBlocks``;
    a model's blocks are cut as ``_stack`` writes them, so the group holds
    its features once, and a block nothing else holds is freed once written.
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
        x, y, sw = _checked(features[f], labels[f], weights[f], num_classes)
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
    v = cols[-1]  # model f's bias is row v + f of w
    w = np.zeros((x.shape[1], int(num_classes)))
    live = list(range(count))

    def drop(f):
        live.remove(f)
        w[fits[f].cols] = w[v + f] = 0.0  # a dropped model stays zero and out of every check

    def fail(f, epoch):
        fits[f].error = RuntimeError(f"non-finite loss at epoch {epoch}; learning rate too large?")
        drop(f)

    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.epochs):
            if not live:
                break
            perms = {f: np.random.default_rng([fits[f].seed, epoch]).permutation(
                     fits[f].rows.stop - fits[f].rows.start) for f in live}
            for f in _run_steps(x, y, sw, _Epoch(sw, fits, perms, cfg.batch_size), w, fits,
                                np.diff(cols), cfg):
                fail(f, epoch)  # its block ran on to the end of the epoch; now it is zeroed
            if not live:
                break
            for f in list(live):
                fit = fits[f]
                lo, hi = rows[f], rows[f + 1]
                _, _, t = _forward(x.indptr[lo:hi + 1], x.indices, x.data, w, y[lo:hi], sw[lo:hi])
                epoch_loss = float(_loss(t, sw[lo:hi].sum(), w[fit.cols], cfg.l2))
                if not np.isfinite(epoch_loss):
                    fail(f, epoch)
                    continue
                fit.log.append(epoch_loss)
                if epoch_loss < fit.best_loss:
                    fit.best_loss = epoch_loss
                    fit.best = (w[fit.cols].copy(), w[v + f].copy())
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
