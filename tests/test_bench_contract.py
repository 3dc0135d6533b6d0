"""The names and call shapes the benchmark's span tracer relies on.

``perfbench/spans.py`` wraps the functions in its ``TARGETS`` and
``COUNT_ONLY`` lists by name and reads their bound arguments and results in
``_annotate``.  A rename or a changed signature there would only show when a
traced benchmark run fails; these checks make it fail here instead.  The
module is loaded from its file; its tracer is never installed.
"""

import importlib
import importlib.util
import inspect
import os

import numpy as np
import pytest
import scipy.sparse as sp

from wsdenoise import featurize, linear, ulf, wscl, wscw
from wsdenoise.synth import SynthConfig, generate

from conftest import echo_stub

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_spans():
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans_under_test", os.path.join(ROOT, "perfbench", "spans.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()


@pytest.mark.parametrize("target", spans.TARGETS + spans.COUNT_ONLY,
                         ids=lambda t: f"{t[0]}.{t[1]}")
def test_every_target_resolves(target):
    mod_name, attr = target
    owner = importlib.import_module(mod_name)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def test_train_binds_features_labels_weights_and_cfg():
    x = sp.csr_array(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
    y = np.array([0, 1, 1])
    w = np.array([1.0, 0.5, 1.0])
    cfg = linear.ClassifierConfig(epochs=2, batch_size=2)
    sig = inspect.signature(linear.train)
    for args, kwargs in [((x, y), dict(sample_weights=w, cfg=cfg, num_classes=2)),
                         ((x, y, w, cfg), dict(num_classes=2))]:
        bound = sig.bind(*args, **kwargs).arguments
        assert bound["features"] is x and bound["labels"] is y
        assert bound["sample_weights"] is w and bound["cfg"] is cfg
    span = {"name": "linear.train"}
    model = linear.train(x, y, sample_weights=w, cfg=cfg, num_classes=2)
    spans._annotate(span, sig.bind(x, y, sample_weights=w, cfg=cfg, num_classes=2).arguments,
                    model)
    assert span["epochs"] == len(model.training_log)
    assert span["steps"] == span["epochs"] * 2
    assert isinstance(span["fit_key"], bytes)


def test_transform_binds_texts():
    texts = ["alpha beta", "beta gamma"]
    vocab = featurize.fit_vocabulary(texts)
    bound = inspect.signature(featurize.transform).bind(texts, vocab).arguments
    assert bound["texts"] is texts
    span = {"name": "featurize.transform"}
    spans._annotate(span, bound, featurize.transform(texts, vocab))
    assert span["rows"] == 2


def test_methods_accept_train_final_false_and_annotate(fold_model):
    fold_model(echo_stub)
    ds, _ = generate(SynthConfig(n_samples=120, seed=5, coverage_target=0.8))
    calls = [
        ("ulf.run_ulf", ulf.run_ulf, ulf.UlfConfig(k=3, max_iters=2, seed=5), "iterations"),
        ("wscl.run_wscl", wscl.run_wscl, wscl.WsclConfig(k=3, seed=5), "pruned"),
        ("wscw.run_wscw", wscw.run_wscw, wscw.WscwConfig(k=3, partitions=1, seed=5),
         "flagged"),
    ]
    for name, fn, cfg, field in calls:
        bound = inspect.signature(fn).bind(ds, cfg, train_final=False)
        result = fn(*bound.args, **bound.kwargs)
        span = {"name": name}
        spans._annotate(span, bound.arguments, result)
        assert isinstance(span[field], int), name
