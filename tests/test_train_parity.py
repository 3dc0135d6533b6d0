"""Frozen SGD fits: ``train`` must reproduce the recorded models bit for bit.

``tests/data/train_digests.json`` maps each case of a fixed grid to a SHA-256
digest of the fitted ``weights``, ``bias`` and ``training_log``.  The grid
covers K in {2, 4}, l2 in {0, 1e-3}, no / random / mostly-zero sample weights
(so that whole batches weigh nothing), batch sizes 1, 7 (a ragged tail) and 32,
rows with no in-vocabulary token, a run stopped early by patience, and TF-IDF
features in the shapes of the benchmark's ``ulf-short`` and ``wscl-longdoc``
workloads.  One more case digests the out-of-sample probabilities of
``estimate_oos`` on a ``by_signature`` plan.  Regenerate the file only when a
change to the fitted models is intended:

    PYTHONPATH=src python tests/test_train_parity.py
"""

import hashlib
import json
import os

import numpy as np
import scipy.sparse as sp

from wsdenoise.corpus import majority_vote
from wsdenoise.crossval import build_plan, estimate_oos
from wsdenoise.featurize import fit_vocabulary, transform
from wsdenoise.linear import ClassifierConfig, train
from wsdenoise.synth import SynthConfig, generate

FIXTURE = os.path.join(os.path.dirname(__file__), "data", "train_digests.json")


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


def test_fits_match_frozen_digests():
    with open(FIXTURE, encoding="utf-8") as f:
        frozen = json.load(f)
    got = train_digests()
    assert got.keys() == frozen.keys()
    diff = [key for key in frozen if got[key] != frozen[key]]
    assert not diff, f"{len(diff)} of {len(frozen)} fits changed, first: {diff[0]}"


if __name__ == "__main__":
    os.makedirs(os.path.dirname(FIXTURE), exist_ok=True)
    with open(FIXTURE, "w", encoding="utf-8") as f:
        json.dump(train_digests(), f, indent=0, sort_keys=True)
        f.write("\n")
