"""Textbook reference implementations, for tests only.

``ref_train`` is the plain per-model SGD loop that the ``linear`` module
docstring describes, written with public scipy and numpy operations: no
stacking, no fold groups, no bulk overflow check.  ``linear.train_group``
must fit every model of a group bit for bit as ``ref_train`` fits it alone.

``ref_estimate_oos`` is the k-fold estimate run fold by fold: one vocabulary,
one ``ref_train`` fit and one prediction per fold, then a per-sample mean.
``crossval.estimate_oos``, which trains its folds in groups, must return the
same probabilities bit for bit.

``ref_ulf``, ``ref_wscl`` and ``ref_wscw`` are the three methods as plain
loops over their equations: thresholds, confident labels, ULF's LF-to-class
counts, their calibration and the mixed mapping, the confident joint,
pruning, and CrossWeigh's flags and weights are written out again, sample by
sample.  Each reads its evidence from ``ref_estimate_oos`` on the method's own
plan and classifier seeds.  ``ulf.run_ulf``, ``wscl.run_wscl`` and
``wscw.run_wscw`` must reproduce them bit for bit.

``ref_generate`` is ``synth.generate`` with the per-word loop it had before
its words were drawn in blocks: two scalar draws per word, document by
document.  ``generate`` must build the same dataset byte for byte.
"""

from dataclasses import replace

import numpy as np
import scipy.sparse as sp

from wsdenoise.corpus import LabelVector, WeakDataset, as_labels, majority_vote
from wsdenoise.crossval import FoldPlan, OOSProbs, build_plan, plan_by_lf
from wsdenoise.featurize import FeaturizeConfig, fit_rows, transform_rows
from wsdenoise.linear import ClassifierConfig, Model, predict_proba
from wsdenoise.seeding import derive_seed
from wsdenoise.synth import SynthConfig
from wsdenoise.ulf import UlfConfig
from wsdenoise.wscl import WsclConfig
from wsdenoise.wscw import WscwConfig


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


def ref_estimate_oos(ds: WeakDataset, labels, plan: FoldPlan, feat: FeaturizeConfig,
                     clf: ClassifierConfig) -> OOSProbs:
    """Out-of-sample probabilities, one fold after another; the first failing fold raises.

    Fold f fits a vocabulary on its train rows, trains ``ref_train`` on their
    TF-IDF rows with seed ``derive_seed(clf.seed, f)``, and predicts its test
    rows.  A sample tested by several folds gets the mean of their rows.
    """
    y = as_labels(labels)
    acc = np.zeros((ds.n_samples, ds.num_classes))
    cnt = np.zeros(ds.n_samples, dtype=np.int64)
    for f, (tr, te) in enumerate(plan.folds):
        try:
            vocab, columns, x = fit_rows(ds.term_counts, tr, feat)
            model = ref_train(sp.vstack(list(x.blocks)), y[tr], None,
                              replace(clf, seed=derive_seed(clf.seed, f)),
                              num_classes=ds.num_classes)
            if isinstance(model, Exception):
                raise model
            acc[te] += predict_proba(model, transform_rows(ds.term_counts, te, vocab, columns))
        except Exception as exc:
            raise RuntimeError(f"fold {f}: {exc}") from exc
        cnt[te] += 1
    return OOSProbs(acc / cnt[:, None], cnt)


def _ref_confident(probs: np.ndarray, noisy: np.ndarray) -> np.ndarray:
    """Each sample's confident label, or -1 when no class clears its threshold.

    Class j's threshold is the mean probability of j over the samples voted j,
    or 1/K when none is.  A sample's confident label is its most probable class
    among those at or above their threshold, the lowest on a tie.
    """
    n, k = probs.shape
    voted = [np.flatnonzero(noisy == j) for j in range(k)]
    threshold = [probs[v, j].mean() if v.size else 1.0 / k for j, v in enumerate(voted)]
    conf = np.full(n, -1, dtype=np.int64)
    for s in range(n):
        clear = [j for j in range(k) if probs[s, j] >= threshold[j]]
        if clear:
            conf[s] = max(clear, key=lambda j: (probs[s, j], -j))
    return conf


def ref_ulf(ds: WeakDataset, cfg: UlfConfig) -> tuple[np.ndarray, np.ndarray]:
    """ULF's refinement loop, LF by LF: the final vote and the refined mapping t_hat.

    Iteration ``it`` plans folds under ``derive_seed(seed, 200, it)`` and trains
    them under ``derive_seed(seed, 300, it)`` on the training labels.  C[l, j]
    counts the samples LF l matches whose confident label is j.  A nonzero row
    of C is scaled to LF l's match count, giving Q[l], and t_hat[l] becomes
    p * Q[l] / sum(Q[l]) + (1 - p) * t_hat[l].  The vote on t_hat is seeded with
    the master seed at iteration 1 and ``derive_seed(seed, 100, it)`` after it.
    Unmatched samples keep their training labels in the vote, then adopt their
    confident label, if any, for the next iteration's training labels.  The
    loop stops once ``stall_patience`` votes in a row equal the one before.
    """
    z = ds.z.toarray()
    unmatched = ~z.any(axis=1)
    t_hat = np.array(ds.t, dtype=float)
    final = train = majority_vote(ds, t_hat, cfg.seed).labels
    stall = 0
    for it in range(1, cfg.max_iters + 1):
        try:
            plan = build_plan(ds, cfg.strategy, cfg.k, cfg.lambda_rate,
                              derive_seed(cfg.seed, 200, it))
            probs = ref_estimate_oos(ds, train, plan, cfg.feat,
                                     replace(cfg.clf, seed=derive_seed(cfg.seed, 300, it))).probs
        except (RuntimeError, ValueError) as exc:
            raise RuntimeError(f"ULF iteration {it}: {exc}") from exc
        conf = _ref_confident(probs, train)
        c = np.zeros((ds.n_lfs, ds.num_classes), dtype=np.int64)
        for s in np.flatnonzero(conf >= 0):
            for l in np.flatnonzero(z[s]):
                c[l, conf[s]] += 1
        for l in range(ds.n_lfs):
            if c[l].sum() > 0:
                q = c[l] * (float(z[:, l].sum()) / float(c[l].sum()))
                t_hat[l] = cfg.p * (q / q.sum()) + (1.0 - cfg.p) * t_hat[l]
        vote_seed = cfg.seed if it == 1 else derive_seed(cfg.seed, 100, it)
        vote = majority_vote(ds, t_hat, vote_seed).labels
        vote[unmatched] = train[unmatched]
        stall = stall + 1 if (vote == final).all() else 0
        train = np.where(unmatched & (conf >= 0), conf, vote)
        final = vote
        if stall >= cfg.stall_patience:
            break
    return final, t_hat


def ref_wscl(ds: WeakDataset, cfg: WsclConfig) -> tuple[np.ndarray, dict]:
    """Confident Learning's prune step, sample by sample: the keep mask and the prune report.

    Confident labels are those of ``_ref_confident``.  The joint counts
    (vote, confident label) pairs; row i is scaled to the number of class-i
    votes, then all of it divided by N.  Cell (i, j), i != j, in row-major
    order, prunes the round-half-up N * q[i, j] samples voted i and not yet
    pruned with the largest p(j) - p(i), the lower id first on a tie.
    """
    noisy = majority_vote(ds, ds.t, cfg.seed).labels
    plan = build_plan(ds, cfg.strategy, cfg.k, cfg.lambda_rate, derive_seed(cfg.seed, 600))
    probs = ref_estimate_oos(ds, noisy, plan, cfg.feat,
                             replace(cfg.clf, seed=derive_seed(cfg.seed, 700))).probs
    n, k = probs.shape
    conf = _ref_confident(probs, noisy)
    joint = np.zeros((k, k), dtype=np.int64)
    for s in np.flatnonzero(conf >= 0):
        joint[noisy[s], conf[s]] += 1
    q = np.zeros((k, k))
    for i in range(k):
        if joint[i].sum() > 0:
            q[i] = joint[i] * (float((noisy == i).sum()) / float(joint[i].sum()))
    q /= n
    pruned = np.zeros(n, dtype=bool)
    counts, shortfall = np.zeros((k, k), dtype=np.int64), np.zeros((k, k), dtype=np.int64)
    for i in range(k):
        for j in range(k):
            want = int(np.floor(n * q[i, j] + 0.5))
            if i == j or want <= 0:
                continue
            cand = [s for s in range(n) if noisy[s] == i and not pruned[s]]
            take = sorted(cand, key=lambda s: (-(probs[s, j] - probs[s, i]), s))[:want]
            pruned[take] = True
            counts[i, j], shortfall[i, j] = len(take), want - len(take)
    return ~pruned, {"confident_joint": joint.tolist(), "joint_estimate": q.tolist(),
                     "pruned_counts": counts.tolist(), "shortfall": shortfall.tolist(),
                     "pruned_ids": np.flatnonzero(pruned).tolist()}


def ref_wscw(ds: WeakDataset, cfg: WscwConfig) -> tuple[np.ndarray, np.ndarray]:
    """CrossWeigh's flags, partition by partition: the sample weights and the flags.

    Partition p plans by-LF folds seeded ``derive_seed(seed, 400, p)`` and
    trains them under ``derive_seed(seed, 500, p)``.  A matched sample whose
    most probable out-of-sample class (the lowest on a tie) is not its vote
    gets a flag, and its weight is epsilon ** flags.
    """
    noisy = majority_vote(ds, ds.t, cfg.seed).labels
    matched = ds.z.toarray().any(axis=1)
    flags = np.zeros(ds.n_samples, dtype=np.int64)
    for part in range(cfg.partitions):
        plan = plan_by_lf(ds, cfg.k, 0.0, derive_seed(cfg.seed, 400, part))
        probs = ref_estimate_oos(ds, noisy, plan, cfg.feat,
                                 replace(cfg.clf, seed=derive_seed(cfg.seed, 500, part))).probs
        for s in range(ds.n_samples):
            if matched[s] and int(np.argmax(probs[s])) != noisy[s]:
                flags[s] += 1
    return cfg.epsilon ** flags.astype(float), flags


def ref_generate(cfg: SynthConfig) -> tuple[WeakDataset, LabelVector]:
    """``generate`` with its per-word loop: two scalar draws per word, in document order."""
    rng = np.random.default_rng(cfg.seed)
    n, k, l = cfg.n_samples, cfg.n_classes, cfg.n_lfs
    prec = cfg.lf_precision

    gold = rng.integers(k, size=n)
    true_class = np.arange(l) % k

    # per-LF marginal fire rate needed to hit the coverage target under
    # independence: (1 - r)^L = 1 - coverage
    r = 1.0 - (1.0 - cfg.coverage_target) ** (1.0 / l)
    q_hit = prec * r * k
    q_bg = (1.0 - prec) * r * k / (k - 1)
    if q_hit > 1.0 or q_bg > 1.0:
        raise ValueError(
            "infeasible coverage/precision combination: required trigger rates "
            f"q_hit={q_hit:.3f}, q_bg={q_bg:.3f} exceed 1"
        )

    own = true_class[None, :] == gold[:, None]           # (N, L)
    fire_p = np.where(own, q_hit, q_bg)
    fires = rng.random((n, l)) < fire_p
    z = sp.csr_array(fires.astype(np.int8))

    assigned = true_class.copy()
    for lf, wrong in cfg.misallocated_lfs:
        assigned[lf] = wrong
    t = np.zeros((l, k))
    t[np.arange(l), assigned] = 1.0

    # word pools: one cluster per class plus a shared pool
    shared_size = max(1, cfg.vocab_size // (k + 1))
    cluster_size = max(1, (cfg.vocab_size - shared_size) // k)
    shared = [f"common{m}" for m in range(shared_size)]
    clusters = [[f"w{c}x{m}" for m in range(cluster_size)] for c in range(k)]
    triggers = [f"lftrig{j}" for j in range(l)]

    texts = []
    for i in range(n):
        words = [triggers[j] for j in np.flatnonzero(fires[i])]
        cluster = clusters[gold[i]]
        for _ in range(cfg.words_per_doc):
            if rng.random() < 0.8:
                words.append(cluster[rng.integers(len(cluster))])
            else:
                words.append(shared[rng.integers(len(shared))])
        texts.append(" ".join(words))

    ds = WeakDataset(
        texts=texts,
        ids=[str(i) for i in range(n)],
        z=z,
        t=t,
        num_classes=k,
        gold=gold.astype(np.int64),
    )
    return ds, LabelVector(gold.astype(np.int64))
