"""``pipeline.finish``: the last step every method shares, seen through a harness repeat."""

import numpy as np
import pytest

from wsdenoise import harness, pipeline
from wsdenoise.harness import RunConfig
from wsdenoise.synth import SynthConfig, generate

METHODS = ["baseline_majority", "ulf", "wscl", "wscw"]


@pytest.fixture(scope="module")
def ds():
    return generate(SynthConfig(n_samples=150, seed=29, coverage_target=0.8,
                                lf_precision=0.7))[0]


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
