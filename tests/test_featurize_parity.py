"""Frozen featurization: TF-IDF features must reproduce the recorded digests.

``tests/data/featurize_digests.json`` maps each case to a SHA-256 digest of
what the featurizer produced, or to the text of the error it raised:

* ``folds/...``: the train and test matrices every fold of ``estimate_oos``
  hands to its classifier (the train matrix joined from the row blocks
  ``fit_rows`` cuts), captured on real plans over several
  ``FeaturizeConfig``s (the default, ``min_df=2``, ``max_features=40``, both,
  and a ``min_df`` that leaves the vocabulary empty);
* ``vocab/...`` and ``transform/...``: the public ``fit_vocabulary`` index,
  ``df`` and ``num_docs_fitted``, and the ``transform`` output of the fitted
  corpus and of held-out texts with unknown terms.

CSR digests cover ``data``, ``indices`` and ``indptr`` with their dtypes.
Without the fixture, one more test checks that the final model's features,
cut from a dataset's count matrix by ``fit_rows``, equal ``fit_vocabulary``
then ``transform`` of the same texts, and so does the model trained on them.
The corpora hold Unicode text, empty documents, punctuation-only documents
and documents with no in-vocabulary token.  Regenerate the file only when a
change to the features is intended:

    PYTHONPATH=src python tests/test_featurize_parity.py
"""

import hashlib
import json
import os
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp

from wsdenoise import crossval
from wsdenoise.corpus import majority_vote
from wsdenoise.crossval import build_plan, estimate_oos
from wsdenoise.featurize import FeaturizeConfig, fit_rows, fit_vocabulary, transform
from wsdenoise.linear import ClassifierConfig, train
from wsdenoise.pipeline import train_text_model
from wsdenoise.synth import SynthConfig, generate

from conftest import make_dataset

FIXTURE = os.path.join(os.path.dirname(__file__), "data", "featurize_digests.json")

CONFIGS = {
    "default": FeaturizeConfig(),
    "min_df2": FeaturizeConfig(min_df=2),
    "max40": FeaturizeConfig(max_features=40),
    "min_df2_max40": FeaturizeConfig(min_df=2, max_features=40),
    "min_df_too_high": FeaturizeConfig(min_df=10**6),
}

# Words whose lowercasing and tokenizing exercise Unicode: final sigma,
# sharp s, dotted capital I, full-width and Arabic-Indic digits, CJK, a
# ligature, precomposed vs combining accents, and underscores and emoji
# that split tokens.
UNICODE_WORDS = [
    "ΣΊΣΥΦΟΣ", "σίσυφος", "Straße", "STRASSE", "İstanbul", "istanbul", "ＡＢＣ", "ａｂｃ",
    "٣٤٥", "東京", "大阪", "ﬁle", "café", "café", "naïve", "snake_case", "x🙂y",
    "Ünïcödé", "ÆØÅ", "æøå", "Привет", "мир", "42", "4.2", "a-b", "ǅemal",
]


def _sha(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else repr(p).encode())
        h.update(b"|")
    return h.hexdigest()


def _csr_digest(x) -> str:
    return _sha(x.shape, *[(str(a.dtype), a.tobytes()) for a in (x.data, x.indices, x.indptr)])


def _joined(x):
    """The matrix of the ``RowBlocks`` ``x``, its blocks stacked."""
    return sp.vstack(list(x.blocks), format="csr")


def _vocab_digest(v) -> str:
    return _sha(sorted(v.index.items()), str(v.df.dtype), v.df.tobytes(), v.num_docs_fitted)


def _unicode_texts(rng, n):
    """Documents of Unicode words; one in seven empty, one in eleven only punctuation."""
    texts = []
    for i in range(n):
        if i % 7 == 3:
            texts.append("")
        elif i % 11 == 5:
            texts.append(" ... !!! — ¿? ")
        else:
            words = rng.choice(UNICODE_WORDS, size=int(rng.integers(1, 25)))
            texts.append(" ".join(words) + rng.choice(["", ".", " ,", "!"]))
    return texts


def _datasets():
    """Named (dataset, labels) pairs: synthetic corpora and a Unicode one."""
    out = {}
    for name, cfg in {
        "short": SynthConfig(n_samples=240, n_classes=3, n_lfs=8, seed=41),
        "longdoc": SynthConfig(n_samples=120, n_classes=4, n_lfs=10, vocab_size=2000,
                               words_per_doc=300, seed=42),
    }.items():
        ds, _ = generate(cfg)
        out[name] = (ds, majority_vote(ds, ds.t, cfg.seed))
    rng = np.random.default_rng(43)
    n = 70
    z = (rng.random((n, 5)) < 0.3).astype(np.int8)
    t = np.zeros((5, 2))
    t[np.arange(5), rng.integers(2, size=5)] = 1.0
    ds = make_dataset(z, t, texts=_unicode_texts(rng, n))
    out["unicode"] = (ds, majority_vote(ds, ds.t, 43))
    return out


PLANS = [("by_signature", 5, 0.0), ("by_lf", 3, 1.0), ("random", 4, 2.0)]


def _fold_digests(ds, labels, plan, feat) -> list:
    """Digests of the train and test features every fold model receives, fold by fold."""
    trains, tests = [], []

    def fake_train_group(features, labels, sample_weights=None, cfg=None, seeds=None, *,
                         num_classes):
        digests = [_csr_digest(_joined(x)) for x in features]
        trains.extend(digests)
        return [num_classes] * len(digests)

    def fake_predict(model, features):
        tests.append(_csr_digest(features))
        return np.full((features.shape[0], model), 1.0 / model)

    error = []
    with mock.patch.object(crossval, "train_group", fake_train_group), \
            mock.patch.object(crossval, "predict_proba", fake_predict):
        try:
            estimate_oos(ds, labels, plan, feat, ClassifierConfig(seed=1))
        except RuntimeError as exc:
            error.append(f"error: {exc}")
    # the train and the test digests each come in fold order; pair them up
    return [d for pair in zip(trains, tests) for d in pair] + error


def _public_cases():
    rng = np.random.default_rng(44)
    corpus = _unicode_texts(rng, 50)
    held_out = ["", "zebra quux ?!", "unknown ΣΊΣΥΦΟΣ zzz", "東京東京 東京", "🙂🙂", "ǅemal ǆemal",
                " ".join(UNICODE_WORDS)]
    synth, _ = generate(SynthConfig(n_samples=80, n_classes=2, n_lfs=6, vocab_size=300,
                                    words_per_doc=60, seed=45))
    corpora = {"unicode": (corpus, held_out), "synth": (synth.texts[:60], synth.texts[60:])}
    for cname, (fit_on, other) in corpora.items():
        for fname, feat in CONFIGS.items():
            yield f"{cname}/{fname}", fit_on, other, feat


def featurize_digests() -> dict:
    out = {}
    for dname, (ds, labels) in _datasets().items():
        for strategy, k, lam in PLANS:
            plan = build_plan(ds, strategy, k, lam, 7)
            for fname, feat in CONFIGS.items():
                out[f"folds/{dname}/{strategy}/{fname}"] = _fold_digests(ds, labels, plan, feat)
    for name, fit_on, other, feat in _public_cases():
        try:
            v = fit_vocabulary(fit_on, feat)
        except ValueError as exc:
            out[f"vocab/{name}"] = f"error: {exc}"
            continue
        out[f"vocab/{name}"] = _vocab_digest(v)
        out[f"transform/{name}/fitted"] = _csr_digest(transform(fit_on, v))
        out[f"transform/{name}/held_out"] = _csr_digest(transform(other, v))
        out[f"transform/{name}/none"] = _csr_digest(transform([], v))
    for name, texts in {"empty_corpus": [], "only_empty_docs": ["", " ", "?!"]}.items():
        try:
            fit_vocabulary(texts)
            out[f"vocab/{name}"] = "no error"
        except ValueError as exc:
            out[f"vocab/{name}"] = f"error: {exc}"
    return out


def test_features_match_frozen_digests():
    with open(FIXTURE, encoding="utf-8") as f:
        frozen = json.load(f)
    got = featurize_digests()
    assert got.keys() == frozen.keys()
    diff = [key for key in frozen if got[key] != frozen[key]]
    assert not diff, f"{len(diff)} of {len(frozen)} cases changed, first: {diff[0]}"


@pytest.mark.parametrize("fname", ["default", "min_df2", "max40"])
def test_final_model_matches_fit_vocabulary_then_transform(fname):
    """The final model's features, cut from the count matrix, equal the text path's."""
    feat, clf = CONFIGS[fname], ClassifierConfig(epochs=3, learning_rate=0.1, seed=9)
    for ds, labels in _datasets().values():
        for rows in (None, np.arange(1, ds.n_samples, 3)):
            texts = ds.texts if rows is None else [ds.texts[i] for i in rows]
            y = labels.labels if rows is None else labels.labels[rows]
            weights = None if rows is None else np.linspace(0.2, 1.0, len(rows))
            vocab = fit_vocabulary(texts, feat)
            x = transform(texts, vocab)
            got_vocab, _, got_x = fit_rows(ds.term_counts, rows, feat)
            assert _vocab_digest(got_vocab) == _vocab_digest(vocab)
            assert _csr_digest(_joined(got_x)) == _csr_digest(x)
            want = train(x, y, sample_weights=weights, cfg=clf, num_classes=ds.num_classes)
            got = train_text_model(ds, y, rows, weights, feat, clf)
            assert _vocab_digest(got.vocab) == _vocab_digest(vocab)
            assert got.model.weights.tobytes() == want.weights.tobytes()
            assert got.model.bias.tobytes() == want.bias.tobytes()
            assert got.model.training_log == want.training_log


if __name__ == "__main__":
    os.makedirs(os.path.dirname(FIXTURE), exist_ok=True)
    with open(FIXTURE, "w", encoding="utf-8") as f:
        json.dump(featurize_digests(), f, indent=0, sort_keys=True, ensure_ascii=False)
        f.write("\n")
