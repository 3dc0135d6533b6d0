"""Frozen SGD fits: ``train`` must reproduce the recorded models bit for bit.

``tests/data/train_digests.json`` maps each case of a fixed grid to a SHA-256
digest of the fitted ``weights``, ``bias`` and ``training_log``.  The grid
covers K in {2, 4}, l2 in {0, 1e-3}, no / random / mostly-zero sample weights
(so that whole batches weigh nothing), batch sizes 1, 7 (a ragged tail) and 32,
rows with no in-vocabulary token, a run stopped early by patience, and TF-IDF
features in the shapes of the benchmark's ``ulf-short`` and ``wscl-longdoc``
workloads.  One more case digests the out-of-sample probabilities of
``estimate_oos`` on a ``by_signature`` plan.

``tests/data/group_digests.json`` digests sets of models that cross-validation
trains side by side: four models with their own rows, columns and seeds under
one config, with no / random / mostly-zero sample weights, l2 in {0, 1e-3},
ragged last batches, and one model stopped by patience while the others run
on.  It also digests ``estimate_oos`` on ``by_lf`` (overlapping test folds),
``random`` and ``by_signature`` with lambda > 0.  Every model of a set must
equal the model ``train`` fits on its own.

Regenerate both files only when a change to the fitted models is intended:

    PYTHONPATH=src python tests/test_train_parity.py
"""

import hashlib
import json
import os
from dataclasses import replace

import numpy as np
import scipy.sparse as sp

from wsdenoise.corpus import majority_vote
from wsdenoise.crossval import build_plan, estimate_oos
from wsdenoise.featurize import fit_vocabulary, transform
from wsdenoise.linear import ClassifierConfig, train, train_group
from wsdenoise.synth import SynthConfig, generate

FIXTURE = os.path.join(os.path.dirname(__file__), "data", "train_digests.json")
GROUP_FIXTURE = os.path.join(os.path.dirname(__file__), "data", "group_digests.json")


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a, dtype=np.float64)
        h.update(repr(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _model_digest(model) -> str:
    return _digest(model.weights, model.bias, np.asarray(model.training_log))


def _random_csr(rng, n, v, density, index_dtype=np.int32):
    """L2-normalized nonnegative rows, one in ten of them empty."""
    x = rng.random((n, v)) * (rng.random((n, v)) < density)
    x[::10] = 0.0
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    x = np.divide(x, norms, out=np.zeros_like(x), where=norms > 0)
    c = sp.csr_array(x)
    return sp.csr_array((c.data, c.indices.astype(index_dtype), c.indptr.astype(index_dtype)),
                        shape=c.shape)


def _synth_features(cfg: SynthConfig):
    ds, _ = generate(cfg)
    x = transform(ds.texts, fit_vocabulary(ds.texts))
    return x, majority_vote(ds, ds.t, cfg.seed).labels, ds.num_classes


def _small_cases():
    rng = np.random.default_rng(20121001)
    n, v = 90, 25
    x = _random_csr(rng, n, v, 0.2)
    sample_weights = {
        "none": None,
        "random": rng.uniform(0.05, 3.0, size=n),
        # most samples weigh nothing, so many batches sum to zero
        "sparse": rng.uniform(0.5, 2.0, size=n) * (rng.random(n) < 0.12),
    }
    for k in (2, 4):
        y = rng.integers(k, size=n)
        for l2 in (0.0, 1e-3):
            for wname, sw in sample_weights.items():
                for bs in (1, 7, 32):
                    cfg = ClassifierConfig(learning_rate=0.3, epochs=6, batch_size=bs,
                                           l2=l2, seed=11 + bs)
                    yield f"small/k{k}/l2{l2:g}/w{wname}/b{bs}", x, y, sw, cfg, k


def _special_cases():
    rng = np.random.default_rng(5)
    x = _random_csr(rng, 120, 30, 0.15, index_dtype=np.int64)
    y = rng.integers(3, size=120)
    yield ("int64_indices", x, y, None,
           ClassifierConfig(learning_rate=0.2, epochs=4, batch_size=16, seed=2), 3)
    yield ("csr_matrix_input", sp.csr_matrix(x), y, rng.uniform(0.1, 1.0, size=120),
           ClassifierConfig(learning_rate=0.2, epochs=4, batch_size=16, l2=1e-3, seed=3), 3)
    # a learning rate this large overshoots: the loss rises and patience stops the run
    yield ("early_stop", x, y, None,
           ClassifierConfig(learning_rate=60.0, epochs=40, patience=2, batch_size=8,
                            seed=4), 3)
    x, y, k = _synth_features(SynthConfig(n_samples=2000, n_classes=2, n_lfs=10,
                                          coverage_target=0.87, misallocated_lfs=[(0, 1)],
                                          seed=31))
    for l2 in (0.0, 1e-3):
        yield (f"ulf_short/l2{l2:g}", x, y, None,
               ClassifierConfig(learning_rate=0.1, l2=l2, seed=31), k)
    x, y, k = _synth_features(SynthConfig(n_samples=1000, n_classes=4, n_lfs=12,
                                          coverage_target=0.87,
                                          misallocated_lfs=[(0, 1), (5, 2)],
                                          vocab_size=2000, words_per_doc=300, seed=32))
    yield ("wscl_longdoc", x, y, None, ClassifierConfig(learning_rate=0.1, seed=32), k)


def _oos_digest() -> str:
    ds, _ = generate(SynthConfig(n_samples=300, n_classes=3, n_lfs=8, seed=33))
    labels = majority_vote(ds, ds.t, 33)
    plan = build_plan(ds, "by_signature", 5, 0.0, 33)
    oos = estimate_oos(ds, labels, plan, clf_cfg=ClassifierConfig(learning_rate=0.1, seed=33))
    return _digest(oos.probs, oos.prediction_count)


def train_digests() -> dict:
    out = {}
    for name, x, y, sw, cfg, k in (*_small_cases(), *_special_cases()):
        model = train(x, y, sample_weights=sw, cfg=cfg, num_classes=k)
        if name == "early_stop":
            assert len(model.training_log) < cfg.epochs, "early_stop case ran every epoch"
        out[name] = _model_digest(model)
    out["estimate_oos/by_signature"] = _oos_digest()
    return out


def _group_members(rng, n_classes, scale_last=1.0):
    """Four models' ``(features, labels, weights)``: own row counts, widths and weights.

    The row counts leave ragged last batches at batch sizes 7 and 32, and give
    the models different numbers of steps per epoch.  ``scale_last`` scales the
    last model's features.
    """
    members = []
    for i, (n, v) in enumerate([(70, 20), (95, 24), (41, 17), (88, 30)]):
        x = _random_csr(rng, n, v, 0.25)
        if i == 3:
            x = x * scale_last
        y = rng.integers(n_classes, size=n)
        weights = {
            "none": None,
            "random": rng.uniform(0.05, 3.0, size=n),
            "sparse": rng.uniform(0.5, 2.0, size=n) * (rng.random(n) < 0.12),
        }
        members.append((x, y, weights))
    return members


def _group_cases():
    """``(name, [(features, labels, weights)], cfg, seeds, num_classes)`` per case."""
    rng = np.random.default_rng(20260918)
    seeds = [101, 202, 303, 404]
    members = _group_members(rng, 3)
    for l2 in (0.0, 1e-3):
        for wname in ("none", "random", "sparse"):
            for bs in (7, 32):
                cfg = ClassifierConfig(learning_rate=0.3, epochs=6, batch_size=bs, l2=l2)
                yield (f"group/l2{l2:g}/w{wname}/b{bs}",
                       [(x, y, w[wname]) for x, y, w in members], cfg, seeds, 3)
    # the last model's features are 40 times larger, so it overshoots, its
    # loss rises and patience stops it while the other three run all epochs
    members = _group_members(rng, 2, scale_last=40.0)
    for l2 in (0.0, 1e-3):
        cfg = ClassifierConfig(learning_rate=0.5, epochs=12, patience=2, batch_size=16, l2=l2)
        yield (f"group/patience/l2{l2:g}",
               [(x, y, w["random"]) for x, y, w in members], cfg, seeds, 2)


def _fit_group(members, cfg, seeds, num_classes):
    features, labels, weights = zip(*members)
    models = train_group(list(features), list(labels), list(weights), cfg, seeds,
                         num_classes=num_classes)
    alone = [train(x, y, sample_weights=w, cfg=replace(cfg, seed=s), num_classes=num_classes)
             for (x, y, w), s in zip(members, seeds)]
    assert [_model_digest(m) for m in models] == [_model_digest(m) for m in alone]
    return models


def _oos_cases():
    """``estimate_oos`` digests on the three plan strategies."""
    ds, _ = generate(SynthConfig(n_samples=400, n_classes=3, n_lfs=9, seed=34))
    labels = majority_vote(ds, ds.t, 34)
    for strategy, lambda_rate, l2 in (("by_lf", 0.0, 0.0), ("random", 0.0, 1e-3),
                                      ("by_signature", 0.5, 0.0)):
        plan = build_plan(ds, strategy, 5, lambda_rate, 34)
        cfg = ClassifierConfig(learning_rate=0.2, l2=l2, seed=34)
        oos = estimate_oos(ds, labels, plan, clf_cfg=cfg)
        yield f"estimate_oos/{strategy}/lambda{lambda_rate:g}", oos


def group_digests() -> dict:
    out = {}
    for name, members, cfg, seeds, k in _group_cases():
        models = _fit_group(members, cfg, seeds, k)
        if "patience" in name:
            logs = [len(m.training_log) for m in models]
            assert logs[-1] < cfg.epochs and logs[:-1] == [cfg.epochs] * 3, logs
        out[name] = _digest(*(a for m in models
                              for a in (m.weights, m.bias, np.asarray(m.training_log))))
    for name, oos in _oos_cases():
        if "by_lf" in name:
            assert oos.prediction_count.max() > 1, "by_lf test folds do not overlap"
        out[name] = _digest(oos.probs, oos.prediction_count)
    return out


def _compare(fixture, got):
    with open(fixture, encoding="utf-8") as f:
        frozen = json.load(f)
    assert got.keys() == frozen.keys()
    diff = [key for key in frozen if got[key] != frozen[key]]
    assert not diff, f"{len(diff)} of {len(frozen)} fits changed, first: {diff[0]}"


def test_fits_match_frozen_digests():
    _compare(FIXTURE, train_digests())


def test_group_fits_match_frozen_digests():
    _compare(GROUP_FIXTURE, group_digests())


if __name__ == "__main__":
    os.makedirs(os.path.dirname(FIXTURE), exist_ok=True)
    for path, digests in ((FIXTURE, train_digests), (GROUP_FIXTURE, group_digests)):
        with open(path, "w", encoding="utf-8") as f:
            json.dump(digests(), f, indent=0, sort_keys=True)
            f.write("\n")
