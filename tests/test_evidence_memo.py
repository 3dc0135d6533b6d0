"""The evidence memo: grid points reuse identical fold fits, and nothing else changes."""

import os
from dataclasses import replace

import numpy as np
import pytest

from wsdenoise import harness, pipeline
from wsdenoise.corpus import majority_vote
from wsdenoise.harness import RunConfig, grid_search, run
from wsdenoise.linear import ClassifierConfig
from wsdenoise.pipeline import FoldConfig, evidence_memo, oos_evidence
from wsdenoise.synth import SynthConfig, generate


def _grid_setup(tmp_path, method):
    ds, _ = generate(SynthConfig(n_samples=200, seed=30, coverage_target=0.85,
                                 misallocated_lfs=[(0, 1)]))
    dev, _ = generate(SynthConfig(n_samples=60, seed=31, coverage_target=0.85))
    doc, gold = tmp_path / "dev_docs.tsv", tmp_path / "dev_gold.tsv"
    doc.write_text("".join(f"{i}\t{t}\n" for i, t in enumerate(dev.texts)))
    gold.write_text("".join(f"{i}\t{g}\n" for i, g in enumerate(dev.gold)))
    base = RunConfig(method=method, strategy="lfs" if method == "wscw" else "sgn",
                     seed=30, repeats=2, epochs=3, lr=0.1, k=3, partitions=2, iters=2,
                     dump_folds=True, dev_doc_path=str(doc), dev_gold_path=str(gold),
                     out_dir=str(tmp_path / "grid"))
    return ds, base


def _artifacts(run_dir):
    """Every file of a run directory but the two that name the run or its timing."""
    out = {}
    for root, _, names in os.walk(run_dir):
        for name in names:
            if name not in ("config.txt", "timing.json"):
                path = os.path.join(root, name)
                with open(path, "rb") as f:
                    out[os.path.relpath(path, run_dir)] = f.read()
    return out


def _count_estimates(monkeypatch):
    real, calls = pipeline.estimate_oos, []

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)
    monkeypatch.setattr(pipeline, "estimate_oos", counting)
    return calls


@pytest.mark.parametrize("method,space,expected", [
    ("wscw", {"epsilon": [0.5, 0.9]}, {"weights.tsv"}),
    ("ulf", {"p": [0.3, 0.7], "iters": [2, 3]}, {"diagnostics/iter_002.json"}),
], ids=["wscw_epsilon", "ulf_p_iters"])
def test_grid_points_equal_standalone_runs(tmp_path, method, space, expected):
    ds, base = _grid_setup(tmp_path, method)
    _, results = grid_search(base, space, ds=ds)
    for r in results:
        point = _artifacts(os.path.join(base.out_dir, f"grid_{r['grid_index']:04d}"))
        solo_dir = str(tmp_path / f"solo_{r['grid_index']}")
        run(replace(base, **r["params"], out_dir=solo_dir), ds=ds)
        assert {"labels_corrected.tsv", "t_refined.tsv", "metrics.json",
                "fold_audit.tsv"} | expected <= point.keys()
        assert point == _artifacts(solo_dir)


def test_grid_sweeps_skip_repeated_fits(tmp_path, monkeypatch):
    calls = _count_estimates(monkeypatch)
    ds, base = _grid_setup(tmp_path, "wscw")
    grid_search(replace(base, repeats=1), {"epsilon": [0.5, 0.9]}, ds=ds)
    assert len(calls) == 2  # one per partition, shared by both epsilons

    calls.clear()
    ds, base = _grid_setup(tmp_path, "ulf")
    grid_search(replace(base, repeats=1), {"p": [0.3, 0.7]}, ds=ds)
    assert len(calls) == 3  # iteration 1 shared, iteration 2 differs with p


def test_plain_run_fits_every_partition_of_every_repeat(tmp_path, monkeypatch):
    calls = _count_estimates(monkeypatch)
    ds, base = _grid_setup(tmp_path, "wscw")
    run(replace(base, dev_doc_path=None, dev_gold_path=None), ds=ds)
    assert len(calls) == base.repeats * base.partitions


def _evidence_args(ds, labels):
    return ds, labels, FoldConfig(k=3, strategy="by_lf", clf=ClassifierConfig(epochs=2)), 1, 2


def test_a_hit_needs_the_same_dataset_and_equal_labels(monkeypatch):
    calls = _count_estimates(monkeypatch)
    ds, _ = generate(SynthConfig(n_samples=120, seed=8, coverage_target=0.85))
    twin, _ = generate(SynthConfig(n_samples=120, seed=8, coverage_target=0.85))
    labels = majority_vote(ds, ds.t, 0)
    flipped = labels.copy()
    flipped.labels[0] = 1 - flipped.labels[0]
    with evidence_memo():
        for d, lab in [(ds, labels), (ds, labels.copy()), (ds, flipped), (ds, labels),
                       (twin, labels)]:
            oos_evidence(*_evidence_args(d, lab))
    # equal copies hit; other labels or another dataset refit and replace the entry
    assert len(calls) == 4


def test_cached_arrays_are_read_only():
    ds, _ = generate(SynthConfig(n_samples=120, seed=8, coverage_target=0.85))
    args = _evidence_args(ds, majority_vote(ds, ds.t, 0))
    with evidence_memo():
        first = oos_evidence(*args)[1]
        again = oos_evidence(*args)[1]
    assert again is first
    for a in (first.probs, first.prediction_count):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0
    outside = oos_evidence(*args)[1]
    assert outside is not first and outside.probs.flags.writeable
    np.testing.assert_array_equal(outside.probs, first.probs)


def test_no_memo_outlives_the_sweep(tmp_path, monkeypatch):
    ds, base = _grid_setup(tmp_path, "ulf")
    base = replace(base, repeats=1, dump_folds=False)
    grid_search(base, {"p": [0.5]}, ds=ds)
    assert pipeline._MEMO.get() is None
    with pytest.raises(RuntimeError, match="every grid point failed"):
        grid_search(base, {"k": [4000, 5000]}, ds=ds)
    assert pipeline._MEMO.get() is None

    def interrupted(cfg, ds, splits):
        assert pipeline._MEMO.get() == {}
        raise KeyboardInterrupt
    monkeypatch.setattr(harness, "_Point", interrupted)
    with pytest.raises(KeyboardInterrupt):
        grid_search(base, {"p": [0.5]}, ds=ds)
    assert pipeline._MEMO.get() is None
