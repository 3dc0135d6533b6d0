"""The stages every method shares: ``FoldConfig``'s checks, ``pipeline.finish`` seen
through a harness repeat, and the final-model trainer ``train_text_models``."""

from dataclasses import fields

import numpy as np
import pytest

from wsdenoise import crossval, harness, pipeline
from wsdenoise.corpus import majority_vote
from wsdenoise.featurize import FeaturizeConfig
from wsdenoise.harness import RunConfig
from wsdenoise.linear import ClassifierConfig
from wsdenoise.pipeline import FoldConfig
from wsdenoise.synth import SynthConfig, generate
from wsdenoise.ulf import UlfConfig
from wsdenoise.wscl import WsclConfig
from wsdenoise.wscw import WscwConfig

METHODS = ["baseline_majority", "ulf", "wscl", "wscw"]


@pytest.fixture(scope="module")
def ds():
    return generate(SynthConfig(n_samples=150, seed=29, coverage_target=0.8,
                                lf_precision=0.7))[0]


@pytest.mark.parametrize("cls", [FoldConfig, UlfConfig, WsclConfig, WscwConfig])
@pytest.mark.parametrize("key, value, match", [
    ("k", 1, "k must be >= 2"),
    ("strategy", "bogus", "strategy must be"),
    ("lambda_rate", -1.0, "lambda_rate must be nonnegative"),
    ("lambda_rate", float("nan"), "lambda_rate must be nonnegative"),
    ("seed", -1, "seed must be >= 0"),
])
def test_every_method_config_runs_the_shared_checks(cls, key, value, match):
    assert issubclass(cls, FoldConfig)
    if key in {f.name for f in fields(cls) if f.init}:
        with pytest.raises(ValueError, match=match):
            cls(**{key: value})
    else:  # a setting the method fixes cannot be given at all
        with pytest.raises(TypeError, match=f"unexpected keyword argument '{key}'"):
            cls(**{key: value})


def _config(method):
    return RunConfig(method=method, epochs=3, k=3, iters=1, partitions=2, seed=0)


def _recipe(result):
    """The rows, labels and weights each method's final model trains on."""
    labels = result.final_labels.labels
    if result.keep_mask is not None:  # WSCL: the kept samples
        rows = np.flatnonzero(result.keep_mask)
        return rows, labels[rows], None
    if result.sample_weights is not None:  # WSCW: every sample, weighted epsilon ** flags
        return None, labels, result.sample_weights.w
    return None, labels, None  # ULF and the baseline: every sample


@pytest.mark.parametrize("method", METHODS)
def test_final_model_is_the_methods_recipe(ds, method):
    cfg, seed = _config(method), 11
    result = harness._execute_repeat(ds, cfg, seed, train_final=True)
    rows, labels, weights = _recipe(result)
    if method == "wscl":
        assert 0 < rows.size < ds.n_samples  # some samples are pruned
    if method == "wscw":
        assert (weights < 1).any() and (weights == 1).any()  # some samples are downweighted
    expected = pipeline.train_text_model(ds, labels, rows, weights, cfg.featurize_config(),
                                         cfg.classifier_config(seed)).model
    got = result.final_model.model
    assert got.weights.tobytes() == expected.weights.tobytes()
    assert got.bias.tobytes() == expected.bias.tobytes()


@pytest.mark.parametrize("method", METHODS)
def test_refined_t_is_the_results_own(ds, method):
    result = harness._execute_repeat(ds, _config(method), 11, train_final=False)
    assert result.final_model is None
    assert not np.shares_memory(result.refined_t, ds.t)
    if method != "ulf":
        np.testing.assert_array_equal(result.refined_t, ds.t)


@pytest.mark.parametrize("method", METHODS)
def test_final_fit_is_the_methods_recipe(ds, method):
    cfg, seed = _config(method), 11
    result = harness._execute_repeat(ds, cfg, seed, train_final=False)
    y, rows, w, feat, clf = pipeline.final_fit(result, cfg.featurize_config(),
                                               cfg.classifier_config(seed))
    expected_rows, expected_y, expected_w = _recipe(result)
    assert (rows is None) == (expected_rows is None) and (w is None) == (expected_w is None)
    for got, expected in [(rows, expected_rows), (y, expected_y), (w, expected_w)]:
        if expected is not None:
            np.testing.assert_array_equal(got, expected)
    assert (feat, clf) == (cfg.featurize_config(), cfg.classifier_config(seed))


def test_train_text_models_fits_each_entry_as_alone(ds, monkeypatch):
    labels = majority_vote(ds, ds.t, 0).labels
    rows = np.arange(0, ds.n_samples, 2)
    feat = FeaturizeConfig()
    fits = [(labels, None, None, feat, ClassifierConfig(seed=1)),
            (labels[rows], rows, np.linspace(0.5, 1.0, rows.size), feat, ClassifierConfig(seed=2)),
            (labels, None, None, FeaturizeConfig(min_df=ds.n_samples + 1), ClassifierConfig()),
            (labels, None, None, feat, ClassifierConfig(learning_rate=50.0, l2=1.0, batch_size=8)),
            (labels, None, None, FeaturizeConfig(max_features=5),
             ClassifierConfig(learning_rate=0.5, seed=3))]
    real, groups = crossval.train_group, []

    def recording(features, *args, **kwargs):
        groups.append(len(features))
        return real(features, *args, **kwargs)
    monkeypatch.setattr(crossval, "train_group", recording)
    got = pipeline.train_text_models(ds, fits)
    # entries 0 and 1 differ only in their seeds; entry 2 has no vocabulary
    assert groups == [2, 1, 1]
    # equal configs share a call even when another config lies between them
    groups.clear()
    pipeline.train_text_models(ds, [fits[0], fits[4], fits[1]])
    assert groups == [2, 1]
    # final models are bounded as folds are: each entry here holds the whole bound
    groups.clear()
    monkeypatch.setattr(crossval, "_GROUP_NNZ", ds.term_counts.counts.nnz)
    pipeline.train_text_models(ds, [fits[0]] * 3)
    assert groups == [1, 1, 1]
    monkeypatch.setattr(crossval, "train_group", real)
    assert [type(m).__name__ for m in got] == ["TextModel", "TextModel", "ValueError",
                                               "RuntimeError", "TextModel"]
    for fit, model in zip(fits, got):
        try:
            alone = pipeline.train_text_model(ds, *fit)
        except Exception as exc:
            assert (type(model), str(model)) == (type(exc), str(exc))
            continue
        assert alone.vocab.index == model.vocab.index
        np.testing.assert_array_equal(alone.vocab.df, model.vocab.df)
        assert alone.model.weights.tobytes() == model.model.weights.tobytes()
        assert alone.model.bias.tobytes() == model.model.bias.tobytes()
        assert alone.model.training_log == model.model.training_log
