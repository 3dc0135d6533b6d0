import json
import os
import subprocess
import sys
import types
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from wsdenoise import cli, harness, pipeline
from wsdenoise.corpus import dataset_stats, save_dataset
from wsdenoise.harness import (
    RunConfig,
    evaluate,
    grid_search,
    run,
)
from wsdenoise.linear import ClassifierConfig
from wsdenoise.pipeline import FoldConfig
from wsdenoise.synth import SynthConfig, generate
from wsdenoise.ulf import UlfConfig
from wsdenoise.wscl import WsclConfig
from wsdenoise.wscw import WscwConfig


def _snapshot(root) -> dict:
    """Relative path -> bytes of every file under ``root``."""
    out = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as f:
                out[os.path.relpath(path, root)] = f.read()
    return out


class TestEvaluate:
    def test_accuracy_hand(self):
        assert evaluate(np.array([0, 1, 1, 0]), np.array([0, 1, 0, 0]), "accuracy") == 0.75

    def test_binary_f1_hand(self):
        # tp=2, fp=1, fn=1 -> f1 = 4/6
        pred = np.array([1, 1, 1, 0, 0])
        gold = np.array([1, 1, 0, 1, 0])
        assert np.isclose(evaluate(pred, gold, "binary_f1"), 2 / 3)

    def test_binary_f1_rejects_multiclass(self):
        with pytest.raises(ValueError, match="K = 2"):
            evaluate(np.array([0, 2]), np.array([0, 2]), "binary_f1")

    def test_macro_f1_hand(self):
        pred = np.array([0, 0, 1, 1])
        gold = np.array([0, 1, 1, 1])
        # class 0: tp=1 fp=1 fn=0 -> 2/3; class 1: tp=2 fp=0 fn=1 -> 4/5
        assert np.isclose(evaluate(pred, gold, "macro_f1"), (2 / 3 + 4 / 5) / 2)

    def test_macro_f1_averages_present_classes_only(self):
        # classes 0 and 2 only: class 0 -> 2/3, class 2 -> 4/5; class 1 is in
        # neither array and so has no F1, as class 2 has none on labels {0, 1}
        gold, pred = np.array([0, 0, 2, 2]), np.array([0, 2, 2, 2])
        assert np.isclose(evaluate(pred, gold, "macro_f1"), (2 / 3 + 4 / 5) / 2)
        gold01, pred01 = np.array([0, 0, 1, 1]), np.array([0, 1, 1, 1])
        assert np.isclose(evaluate(pred01, gold01, "macro_f1"), (2 / 3 + 4 / 5) / 2)

    def test_macro_f1_counts_a_class_only_predicted(self):
        # class 1 appears only among predictions: it scores 0 and is averaged
        gold, pred = np.array([0, 0, 0]), np.array([0, 0, 1])
        assert np.isclose(evaluate(pred, gold, "macro_f1"), (4 / 5 + 0.0) / 2)

    def test_zero_denominator_class_scores_zero(self):
        pred = np.array([0, 0])
        gold = np.array([1, 1])
        # class 0: tp=0 fp=2 fn=0; class 1: tp=0 fp=0 fn=2 -> both 0
        assert evaluate(pred, gold, "macro_f1") == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="lengths"):
            evaluate(np.array([0]), np.array([0, 1]), "accuracy")

    def test_unknown_metric(self):
        with pytest.raises(ValueError, match="unknown metric 'auc'"):
            evaluate(np.array([0, 1]), np.array([0, 1]), "auc")

    def test_brute_force_confusion_oracle(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 100))
            k = int(rng.integers(2, 5))
            pred = rng.integers(k, size=n)
            gold = rng.integers(k, size=n)
            conf = np.zeros((k, k), dtype=int)
            for a, b in zip(gold, pred):
                conf[a, b] += 1
            acc = np.trace(conf) / n
            assert np.isclose(evaluate(pred, gold, "accuracy"), acc)
            f1s = []
            for c in range(k):
                tp = conf[c, c]
                fp = conf[:, c].sum() - tp
                fn = conf[c, :].sum() - tp
                d = 2 * tp + fp + fn
                f1s.append(2 * tp / d if d else 0.0)
            present = np.union1d(pred, gold)  # macro F1 skips classes in neither
            assert np.isclose(evaluate(pred, gold, "macro_f1"), np.mean([f1s[c] for c in present]))
            if k == 2:
                assert np.isclose(evaluate(pred, gold, "binary_f1"), f1s[1])


class TestRunConfig:
    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError, match="method"):
            RunConfig(method="nope")

    def test_rejects_unknown_metric(self):
        with pytest.raises(ValueError, match="metric"):
            RunConfig(metric="auc")

    def test_rejects_unknown_strategy(self):
        with pytest.raises(ValueError, match="strategy"):
            RunConfig(strategy="stratified")

    @pytest.mark.parametrize("method,key,value,match", [
        ("wscl", "strategy", "rndm", "strategy"),
        ("ulf", "p", 2.0, "p must"),
        ("wscw", "epsilon", 0.0, "epsilon"),
        ("wscl", "lambda_rate", -2.0, "lambda_rate"),
        ("baseline_majority", "lr", 0.0, "learning_rate"),
        ("ulf", "k", 1, "k must be >= 2"),
        ("wscw", "k", 1, "k must be >= 2"),
        ("wscl", "k", 1, "k must be >= 2"),
        ("baseline_majority", "max_features", 0, "max_features must be >= 1"),
        ("ulf", "max_features", -1, "max_features must be >= 1"),
        ("ulf", "lambda_rate", float("nan"), "lambda_rate must be nonnegative"),
        ("wscl", "lambda_rate", float("nan"), "lambda_rate must be nonnegative"),
        ("wscw", "lr", float("nan"), "learning_rate must be positive and finite"),
        ("ulf", "lr", float("inf"), "learning_rate must be positive and finite"),
        ("wscl", "l2", float("nan"), "l2 must be nonnegative and finite"),
        ("baseline_majority", "l2", float("inf"), "l2 must be nonnegative and finite"),
        ("ulf", "epochs", 0, "epochs, patience and batch_size must be >= 1"),
        ("wscl", "patience", 0, "epochs, patience and batch_size must be >= 1"),
        ("baseline_majority", "batch_size", 0, "epochs, patience and batch_size must be >= 1"),
        ("ulf", "iters", 0, "max_iters and stall_patience must be >= 1"),
        ("wscw", "partitions", 0, "partitions must be >= 1"),
        ("ulf", "repeats", 0, "repeats must be >= 1"),
        # a setting the method does not read is checked too: config.txt records it
        ("wscw", "p", 7, "p must lie in"),
        ("wscw", "lambda_rate", float("nan"), "lambda_rate must be nonnegative"),
        ("wscw", "stall_patience", 0, "max_iters and stall_patience must be >= 1"),
        ("baseline_majority", "p", 7, "p must lie in"),
        ("baseline_majority", "epsilon", 5, "epsilon must lie in"),
        ("baseline_majority", "partitions", 0, "partitions must be >= 1"),
        ("baseline_majority", "iters", 0, "max_iters and stall_patience must be >= 1"),
        ("baseline_majority", "lambda_rate", -1, "lambda_rate must be nonnegative"),
        ("wscl", "p", -1, "p must lie in"),
        ("wscl", "iters", 0, "max_iters and stall_patience must be >= 1"),
        ("wscl", "epsilon", 0, "epsilon must lie in"),
        ("ulf", "epsilon", 2, "epsilon must lie in"),
        ("ulf", "partitions", -3, "partitions must be >= 1"),
    ])
    def test_rejects_bad_method_value(self, method, key, value, match):
        with pytest.raises(ValueError, match=match):
            RunConfig(method=method, **{key: value})

    @pytest.mark.parametrize("cls", [ClassifierConfig, SynthConfig, UlfConfig, WsclConfig,
                                     WscwConfig, RunConfig])
    def test_every_config_with_a_seed_rejects_a_negative_one(self, cls):
        with pytest.raises(ValueError, match="seed must be >= 0"):
            cls(seed=-1)

    @pytest.mark.parametrize("method", ["baseline_majority", "ulf", "wscw"])
    def test_random_strategy_is_refused_by_wscl_only(self, method):
        assert RunConfig(method=method, strategy="rndm").strategy == "rndm"

    @pytest.mark.parametrize("given", ["dev_doc_path", "dev_gold_path", "test_doc_path",
                                       "test_gold_path"])
    def test_rejects_half_a_held_out_split(self, given):
        split = given.split("_")[0]
        with pytest.raises(ValueError, match=f"needs both {split}_doc_path and {split}_gold_path"):
            RunConfig(**{given: "x.tsv"})

    def test_k_fold_defaults_are_fold_configs(self):
        cfg = RunConfig()
        assert (cfg.k, cfg.lambda_rate) == (FoldConfig.k, FoldConfig.lambda_rate)
        for method in ("ulf", "wscl", "wscw"):
            assert cfg.method_config(0, method).k == FoldConfig.k

    def test_method_config_per_method(self):
        assert RunConfig(method="baseline_majority").method_config(3) is None
        ulf = RunConfig(method="ulf", strategy="lfs", iters=4, lr=0.2).method_config(7)
        assert (ulf.strategy, ulf.max_iters, ulf.seed) == ("by_lf", 4, 7)
        assert (ulf.clf.learning_rate, ulf.clf.seed) == (0.2, 7)
        assert RunConfig(method="wscw", epsilon=0.5).method_config(1).epsilon == 0.5
        assert RunConfig(method="wscl").method_config(1).strategy == "by_signature"


class TestRun:
    def _fast(self, **kw):
        base = dict(epochs=3, k=3, iters=1, repeats=1, seed=0)
        base.update(kw)
        return base

    def test_baseline_on_clean_synth_is_perfect(self, tmp_path):
        ds, _ = generate(SynthConfig(n_samples=300, seed=20, lf_precision=1.0,
                                     coverage_target=0.99))
        cfg = RunConfig(method="baseline_majority",
                        out_dir=str(tmp_path / "run"), **self._fast())
        report = run(cfg, ds=ds)
        assert report["mean"] >= 0.98  # only uncovered samples can miss

    def test_repeat_bookkeeping_and_sem(self, tmp_path):
        ds, _ = generate(SynthConfig(n_samples=200, seed=21, coverage_target=0.8))
        cfg = RunConfig(method="baseline_majority", out_dir=str(tmp_path / "run"),
                        **self._fast(repeats=5))
        report = run(cfg, ds=ds)
        assert len(report["values"]) == 5
        assert np.isclose(report["mean"], np.mean(report["values"]))
        expect_sem = np.std(report["values"], ddof=1) / np.sqrt(5)
        assert np.isclose(report["sem"], expect_sem)
        assert not report["partial"]

    def test_artifacts_written(self, tmp_path):
        ds, _ = generate(SynthConfig(n_samples=150, seed=22, coverage_target=0.8))
        out = tmp_path / "run"
        cfg = RunConfig(method="ulf", out_dir=str(out), strategy="sgn",
                        **self._fast())
        run(cfg, ds=ds)
        for name in ("config.txt", "id_mapping.tsv", "labels_corrected.tsv",
                     "t_refined.tsv", "metrics.json", "timing.json"):
            assert (out / name).exists()
        payload = json.loads((out / "metrics.json").read_text())
        assert payload["method"] == "ulf"
        assert "wall_clock" not in json.dumps(payload)

    @pytest.mark.parametrize("case", ["dev_split", "failed_repeat"])
    def test_returns_the_metrics_json_record(self, tmp_path, monkeypatch, case):
        ds, _ = generate(SynthConfig(n_samples=120, seed=24, coverage_target=0.8))
        split = {}
        if case == "dev_split":
            (tmp_path / "docs.tsv").write_text("".join(f"h{i}\t{t}\n"
                                                       for i, t in enumerate(ds.texts[:30])))
            (tmp_path / "gold.tsv").write_text("".join(f"h{i}\t{g}\n"
                                                       for i, g in enumerate(ds.gold[:30])))
            split = {"dev_doc_path": str(tmp_path / "docs.tsv"),
                     "dev_gold_path": str(tmp_path / "gold.tsv")}
        else:
            self._flaky_repeats(monkeypatch, KeyError("boom"))
        out = tmp_path / "run"
        metrics = run(RunConfig(method="wscw", partitions=1, out_dir=str(out), **split,
                                **self._fast(repeats=2)), ds=ds)
        text = (out / "metrics.json").read_text()
        assert json.dumps(metrics, indent=1, sort_keys=True) == text
        assert json.loads(text) == metrics
        assert metrics["partial"] == (case == "failed_repeat")
        assert (metrics["dev_mean"] is None) == (case == "failed_repeat")
        assert list(json.loads((out / "timing.json").read_text())) == ["wall_clock_sec"]

    def test_wscl_writes_prune_report_and_wscw_weights(self, tmp_path):
        ds, _ = generate(SynthConfig(n_samples=150, seed=23, coverage_target=0.8))
        out1 = tmp_path / "wscl"
        run(RunConfig(method="wscl", out_dir=str(out1), strategy="sgn",
                      **self._fast()), ds=ds)
        assert (out1 / "prune_report.json").exists()
        out2 = tmp_path / "wscw"
        run(RunConfig(method="wscw", out_dir=str(out2), partitions=1,
                      **self._fast()), ds=ds)
        assert (out2 / "weights.tsv").exists()

    def test_wscl_rejects_random_strategy(self, tmp_path):
        with pytest.raises(ValueError, match="strategy must be 'by_lf' or 'by_signature'"):
            RunConfig(method="wscl", strategy="rndm", out_dir=str(tmp_path / "r"),
                      **self._fast())

    def test_test_split_preferred_over_gold(self, tmp_path):
        ds, _ = generate(SynthConfig(n_samples=300, seed=25, lf_precision=1.0,
                                     coverage_target=0.95))
        held, _ = generate(SynthConfig(n_samples=80, seed=26, lf_precision=1.0,
                                       coverage_target=0.95))
        doc = tmp_path / "test_docs.tsv"
        gold = tmp_path / "test_gold.tsv"
        doc.write_text("".join(f"{i}\t{t}\n" for i, t in enumerate(held.texts)))
        gold.write_text("".join(f"{i}\t{g}\n" for i, g in enumerate(held.gold)))
        cfg = RunConfig(method="baseline_majority", out_dir=str(tmp_path / "run"),
                        test_doc_path=str(doc), test_gold_path=str(gold),
                        **self._fast(epochs=25, lr=0.1))
        report = run(cfg, ds=ds)
        # the classifier generalizes to the held-out documents
        assert report["mean"] >= 0.9

    @pytest.mark.parametrize("docs, gold, match", [
        ("a\tx y\nb\ty z\n", "a\t0\n", r"gold\.tsv: missing gold label for sample id 'b'"),
        ("a\tx y\na\ty z\n", "a\t0\n", r"docs\.tsv line 2: duplicate sample id 'a'"),
        ("a\tx y\nb\ty z\n", "a\t0\nb\t1\na\t1\n", r"gold\.tsv line 3: duplicate sample id 'a'"),
        ("a\tx y\nb\ty z\n", "a\t0\nb 1\n", r"gold\.tsv line 2: expected 'id<TAB>class_id'"),
        ("a\tx y\nb\ty z\n", "a\t0\nb\tone\n", r"gold\.tsv line 2: class_id must be an integer"),
    ], ids=["missing_id", "duplicate_doc_id", "duplicate_gold_id", "malformed_line",
            "non_integer_class"])
    def test_bad_heldout_split_names_file_line_and_cause(self, tmp_path, docs, gold, match):
        ds, _ = generate(SynthConfig(n_samples=60, seed=27, coverage_target=0.8))
        (tmp_path / "docs.tsv").write_text(docs)
        (tmp_path / "gold.tsv").write_text(gold)
        cfg = RunConfig(method="baseline_majority", out_dir=str(tmp_path / "run"),
                        test_doc_path=str(tmp_path / "docs.tsv"),
                        test_gold_path=str(tmp_path / "gold.tsv"), **self._fast())
        with pytest.raises(ValueError, match=match):
            run(cfg, ds=ds)

    def test_needs_a_test_split_or_training_gold(self, tmp_path):
        ds, _ = generate(SynthConfig(n_samples=60, seed=27, coverage_target=0.8))
        ds = replace(ds, gold=None)
        cfg = RunConfig(method="baseline_majority", out_dir=str(tmp_path / "run"),
                        **self._fast())
        with pytest.raises(ValueError, match="no evaluation target: provide a test split"):
            run(cfg, ds=ds)
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("split", ["dev", "test"])
    def test_empty_heldout_split_is_rejected_before_the_run_directory_is_touched(
            self, tmp_path, split):
        ds, _ = generate(SynthConfig(n_samples=60, seed=27, coverage_target=0.8))
        out = tmp_path / "run"
        run(RunConfig(method="baseline_majority", out_dir=str(out), **self._fast()), ds=ds)
        before = _snapshot(out)
        (tmp_path / "docs.tsv").write_text("")
        (tmp_path / "gold.tsv").write_text("")
        cfg = RunConfig(method="baseline_majority", out_dir=str(out),
                        **{f"{split}_doc_path": str(tmp_path / "docs.tsv"),
                           f"{split}_gold_path": str(tmp_path / "gold.tsv")}, **self._fast())
        with pytest.raises(ValueError, match=r"docs\.tsv: no documents"):
            run(cfg, ds=ds)
        assert _snapshot(out) == before

    def test_empty_training_file_is_rejected_before_the_run_directory_is_touched(
            self, tmp_path):
        ds, _ = generate(SynthConfig(n_samples=60, seed=27, coverage_target=0.8))
        out = tmp_path / "run"
        run(RunConfig(method="baseline_majority", out_dir=str(out), **self._fast()), ds=ds)
        before = _snapshot(out)
        files = {"doc": ("docs.tsv", "\n"), "z": ("z.tsv", "0 2\n"),
                 "t": ("t.tsv", "2 2\n0\t0\n1\t1\n"), "gold": ("gold.tsv", "")}
        for name, text in files.values():
            (tmp_path / name).write_text(text)
        cfg = RunConfig(method="baseline_majority", out_dir=str(out),
                        **{f"{key}_path": str(tmp_path / name)
                           for key, (name, _) in files.items()}, **self._fast())
        with pytest.raises(ValueError, match=r"docs\.tsv: no documents"):
            run(cfg)
        assert _snapshot(out) == before

    @pytest.mark.parametrize("method", ["ulf", "wscw", "wscl"])
    def test_fold_audit_covers_every_sample(self, tmp_path, method):
        ds, _ = generate(SynthConfig(n_samples=150, seed=28, coverage_target=0.8))
        out = tmp_path / method
        run(RunConfig(method=method, out_dir=str(out), partitions=1, dump_folds=True,
                      **self._fast()), ds=ds)
        rows = [line.split("\t") for line in
                (out / "fold_audit.tsv").read_text().splitlines()[1:]]
        assert [int(r[0]) for r in rows] == list(range(ds.n_samples))
        assert all(int(r[2]) >= 1 for r in rows)
        sums = np.array([sum(float(v) for v in r[3:]) for r in rows])
        np.testing.assert_allclose(sums, 1.0, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("method", ["baseline_majority", "ulf", "wscw", "wscl"])
    def test_final_model_trained_only_for_a_held_out_split(self, tmp_path, monkeypatch,
                                                           method):
        ds, _ = generate(SynthConfig(n_samples=150, seed=29, coverage_target=0.8))
        real, calls = pipeline.train_text_model, []

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)
        monkeypatch.setattr(pipeline, "train_text_model", counting)
        fast = self._fast(repeats=2)
        run(RunConfig(method=method, out_dir=str(tmp_path / "gold"), partitions=1, **fast),
            ds=ds)
        assert calls == []  # training gold alone never needs the model
        (tmp_path / "docs.tsv").write_text("".join(f"h{i}\t{t}\n"
                                                   for i, t in enumerate(ds.texts[:30])))
        (tmp_path / "gold.tsv").write_text("".join(f"h{i}\t{g}\n"
                                                   for i, g in enumerate(ds.gold[:30])))
        run(RunConfig(method=method, out_dir=str(tmp_path / "test"), partitions=1,
                      test_doc_path=str(tmp_path / "docs.tsv"),
                      test_gold_path=str(tmp_path / "gold.tsv"), **fast), ds=ds)
        assert len(calls) == 2  # one per repeat

    @pytest.mark.parametrize("dev_scores, chosen", [([0.2, 0.7, 0.5, 0.7, 0.1], 1),
                                                    ([0.3, 0.3, 0.3], 0), (None, 2)])
    def test_writes_the_first_best_dev_repeat_and_holds_no_other(self, tmp_path, monkeypatch,
                                                                 dev_scores, chosen):
        ds, _ = generate(SynthConfig(n_samples=60, seed=21, coverage_target=0.8))

        class Result:  # a repeat's result, whose model "predicts" the repeat's index
            def __init__(self, r):
                self.repeat, self.final_labels = r, "labels"
                self.final_model = types.SimpleNamespace(predict=lambda texts: r)

        held, still_held, written = weakref.WeakSet(), [], []

        def fake_repeat(ds_, cfg, seed, train_final):
            still_held.append(len(held))  # earlier repeats alive as this one starts
            res = Result(len(still_held) - 1)
            held.add(res)
            return res
        monkeypatch.setattr(harness, "_execute_repeat", fake_repeat)
        monkeypatch.setattr(harness, "_load_split", lambda *a: (["x"], np.array([0])))
        monkeypatch.setattr(harness, "evaluate",
                            lambda pred, gold, metric: 0.5 if pred == "labels"
                            else dev_scores[pred])
        monkeypatch.setattr(harness, "_write_artifacts",
                            lambda run_dir, cfg, ds_, result, *a: written.append(result.repeat))
        dev = {} if dev_scores is None else {"dev_doc_path": "d", "dev_gold_path": "g"}
        repeats = 3 if dev_scores is None else len(dev_scores)
        run(RunConfig(method="baseline_majority", out_dir=str(tmp_path / "run"), **dev,
                      **self._fast(repeats=repeats)), ds=ds)
        assert written == [chosen]
        assert max(still_held) <= 1  # at most the chosen one

    def _flaky_repeats(self, monkeypatch, exc):
        """Make the first repeat raise ``exc``; later repeats run for real."""
        real, calls = harness._execute_repeat, []

        def flaky(*args):
            calls.append(1)
            if len(calls) == 1:
                raise exc
            return real(*args)
        monkeypatch.setattr(harness, "_execute_repeat", flaky)

    def test_any_exception_in_a_repeat_is_recorded(self, tmp_path, monkeypatch):
        ds, _ = generate(SynthConfig(n_samples=200, seed=21, coverage_target=0.8))
        self._flaky_repeats(monkeypatch, KeyError("boom"))
        cfg = RunConfig(method="baseline_majority", out_dir=str(tmp_path / "run"),
                        **self._fast(repeats=3))
        report = run(cfg, ds=ds)
        assert len(report["values"]) == 2 and report["partial"]
        assert report["failures"] == ["repeat 0: KeyError: 'boom'"]

    def test_keyboard_interrupt_stops_the_run(self, tmp_path, monkeypatch):
        ds, _ = generate(SynthConfig(n_samples=200, seed=21, coverage_target=0.8))
        self._flaky_repeats(monkeypatch, KeyboardInterrupt())
        cfg = RunConfig(method="baseline_majority", out_dir=str(tmp_path / "run"),
                        **self._fast(repeats=3))
        with pytest.raises(KeyboardInterrupt):
            run(cfg, ds=ds)


class TestGridSearch:
    def _setup(self, tmp_path, n=200):
        ds, _ = generate(SynthConfig(n_samples=n, seed=30, coverage_target=0.85,
                                     misallocated_lfs=[(0, 1)]))
        dev, _ = generate(SynthConfig(n_samples=60, seed=31, coverage_target=0.85))
        doc = tmp_path / "dev_docs.tsv"
        gold = tmp_path / "dev_gold.tsv"
        doc.write_text("".join(f"{i}\t{t}\n" for i, t in enumerate(dev.texts)))
        gold.write_text("".join(f"{i}\t{g}\n" for i, g in enumerate(dev.gold)))
        base = RunConfig(method="ulf", strategy="sgn", seed=30, repeats=1,
                         epochs=3, k=3, iters=1,
                         dev_doc_path=str(doc), dev_gold_path=str(gold),
                         out_dir=str(tmp_path / "grid"))
        return ds, base

    def test_requires_dev_split(self, tmp_path):
        base = RunConfig(method="ulf", out_dir=str(tmp_path / "g"))
        with pytest.raises(ValueError, match="dev split"):
            grid_search(base, {"p": [0.1, 0.5]})

    def test_empty_space_rejected(self, tmp_path):
        ds, base = self._setup(tmp_path)
        with pytest.raises(ValueError, match="empty grid"):
            grid_search(base, {}, ds=ds)

    def test_singleton_grid(self, tmp_path):
        ds, base = self._setup(tmp_path)
        best, results = grid_search(base, {"p": [0.5]}, ds=ds)
        assert best.p == 0.5 and len(results) == 1
        assert os.path.exists(os.path.join(base.out_dir, "grid_results.json"))

    def test_budget_truncates(self, tmp_path):
        ds, base = self._setup(tmp_path)
        _, results = grid_search(base, {"p": [0.1, 0.3, 0.5, 0.7]}, budget=2, ds=ds)
        assert len(results) == 2

    @pytest.mark.parametrize("budget", [0, -1])
    def test_budget_below_one_rejected(self, tmp_path, budget):
        ds, base = self._setup(tmp_path)
        with pytest.raises(ValueError, match="budget"):
            grid_search(base, {"p": [0.1, 0.3, 0.5]}, budget=budget, ds=ds)

    @pytest.mark.parametrize("budget", [None, 1])
    def test_a_sweep_replaces_the_previous_one(self, tmp_path, budget):
        ds, base = self._setup(tmp_path)
        grid_search(base, {"p": [0.1, 0.3, 0.5]}, ds=ds)
        kept = ["notes.txt", "grid_0007", "grid_12", "grid_0001x", "grid_0009.txt"]
        for name in kept:
            open(os.path.join(base.out_dir, name), "w").close()
        os.mkdir(os.path.join(base.out_dir, "grid_extra"))
        _, results = grid_search(base, {"p": [0.1, 0.3]}, budget=budget, ds=ds)
        points = [f"grid_{r['grid_index']:04d}" for r in results]
        assert sorted(os.listdir(base.out_dir)) == sorted(
            points + kept + ["grid_extra", "grid_results.json"])
        written = json.loads(Path(base.out_dir, "grid_results.json").read_text())
        assert written["results"] == results

    def test_bad_value_keeps_the_previous_sweep(self, tmp_path):
        ds, base = self._setup(tmp_path)
        grid_search(base, {"p": [0.1, 0.3]}, ds=ds)
        before = _snapshot(base.out_dir)
        with pytest.raises(ValueError, match="p must lie in"):
            grid_search(base, {"p": [0.3, 2.0]}, ds=ds)
        assert _snapshot(base.out_dir) == before

    def test_binary_f1_on_four_classes_keeps_the_previous_sweep(self, tmp_path):
        ds, base = self._setup(tmp_path)
        grid_search(base, {"p": [0.1, 0.3]}, ds=ds)
        before = _snapshot(base.out_dir)
        ds4, _ = generate(SynthConfig(n_samples=200, n_classes=4, seed=30))
        with pytest.raises(ValueError, match="binary_f1 requires K = 2"):
            grid_search(replace(base, metric="binary_f1"), {"p": [0.1, 0.3]}, ds=ds4)
        with pytest.raises(ValueError, match="binary_f1 requires K = 2"):
            grid_search(base, {"metric": ["accuracy", "binary_f1"]}, ds=ds4)
        assert _snapshot(base.out_dir) == before

    def test_selects_highest_dev_mean(self, tmp_path):
        ds, base = self._setup(tmp_path)
        best, results = grid_search(base, {"p": [0.0, 0.5], "k": [3, 4]}, ds=ds)
        assert len(results) == 4
        top = max(results, key=lambda r: r["dev_mean"])
        assert best.p == top["params"]["p"] and best.k == top["params"]["k"]

    def test_failed_point_is_recorded_and_sweep_continues(self, tmp_path):
        ds, base = self._setup(tmp_path, n=300)
        best, results = grid_search(base, {"k": [3, 5000]}, ds=ds)
        assert best.k == 3
        ok, failed = results
        assert "error" not in ok and ok["dev_mean"] is not None
        assert failed["dev_mean"] is None and "all repeats failed" in failed["error"]
        written = json.loads(Path(base.out_dir, "grid_results.json").read_text())
        assert written == {"best_index": 0, "results": results}

    def test_all_points_failing_raises_after_writing_results(self, tmp_path):
        ds, base = self._setup(tmp_path, n=300)
        with pytest.raises(RuntimeError, match="every grid point failed"):
            grid_search(base, {"k": [4000, 5000]}, ds=ds)
        written = json.loads(Path(base.out_dir, "grid_results.json").read_text())
        assert written["best_index"] is None
        assert [r["dev_mean"] for r in written["results"]] == [None, None]

    def _failing_point(self, monkeypatch, k, exc):
        """Make the grid point with ``k`` raise ``exc``; other points run for real."""
        real = harness.run

        def run_or_raise(cfg, ds=None):
            if cfg.k == k:
                raise exc
            return real(cfg, ds=ds)
        monkeypatch.setattr(harness, "run", run_or_raise)

    def test_any_exception_at_a_point_is_recorded(self, tmp_path, monkeypatch):
        ds, base = self._setup(tmp_path)
        self._failing_point(monkeypatch, 4, ZeroDivisionError("division by zero"))
        best, results = grid_search(base, {"k": [4, 3]}, ds=ds)
        assert best.k == 3
        assert results[0]["error"] == "ZeroDivisionError: division by zero"
        assert results[1]["dev_mean"] is not None

    def test_keyboard_interrupt_stops_the_sweep(self, tmp_path, monkeypatch):
        ds, base = self._setup(tmp_path)
        self._failing_point(monkeypatch, 4, KeyboardInterrupt())
        with pytest.raises(KeyboardInterrupt):
            grid_search(base, {"k": [4, 3]}, ds=ds)


class TestStatsReport:
    def test_fields(self):
        ds, _ = generate(SynthConfig(n_samples=200, seed=40, coverage_target=0.85))
        out = dataset_stats(ds)
        assert out["n_samples"] == 200 and out["n_lfs"] == 10
        assert abs(out["coverage"] - ds.matched_mask.mean()) < 1e-12
        assert "majority_accuracy_mean" in out


class TestCli:
    def _synth(self, tmp_path, **extra):
        out = str(tmp_path / "data")
        args = ["synth", "--n_samples", "150", "--seed", "3", "--out_dir", out]
        for k, v in extra.items():
            args += [f"--{k}", str(v)]
        assert cli.main(args) == 0
        return out

    def test_synth_then_stats(self, tmp_path, capsys):
        data = self._synth(tmp_path)
        capsys.readouterr()
        assert cli.main([
            "stats",
            "--doc_path", f"{data}/docs.tsv", "--z_path", f"{data}/z.tsv",
            "--t_path", f"{data}/t.tsv", "--gold_path", f"{data}/gold.tsv",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_samples"] == 150

    def test_baseline_verb(self, tmp_path, capsys):
        data = self._synth(tmp_path)
        capsys.readouterr()
        out = str(tmp_path / "run")
        assert cli.main([
            "baseline",
            "--doc_path", f"{data}/docs.tsv", "--z_path", f"{data}/z.tsv",
            "--t_path", f"{data}/t.tsv", "--gold_path", f"{data}/gold.tsv",
            "--out_dir", out, "--epochs", "2", "--seed", "1",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["method"] == "baseline_majority"
        assert 0.0 <= payload["mean"] <= 1.0

    def test_config_file_plus_override(self, tmp_path, capsys):
        data = self._synth(tmp_path)
        capsys.readouterr()
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# comment\n"
            f"doc_path={data}/docs.tsv\n"
            f"z_path={data}/z.tsv\n"
            f"t_path={data}/t.tsv\n"
            f"gold_path={data}/gold.tsv\n"
            "epochs=2\nseed=5\n"
            f"out_dir={tmp_path / 'runA'}\n"
        )
        assert cli.main(["ulf", "--config", str(cfg), "--iters=1", "--k", "3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["method"] == "ulf"

    def test_config_file_skips_a_byte_order_mark(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("\ufeffseed=5\nk=3\n", encoding="utf-8")
        assert cli.parse_config_file(str(cfg)) == {"seed": "5", "k": "3"}

    def test_config_value_may_hold_a_line_separator(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed=5\nout_dir=runs/a\u2028b\n", encoding="utf-8")
        assert cli.parse_config_file(str(cfg)) == {"seed": "5", "out_dir": "runs/a\u2028b"}
        cfg.write_text("seed=5\nout_dir=runs/a\u2028b\nno equals sign\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 3: expected 'key=value'"):
            cli.parse_config_file(str(cfg))

    def test_grid_verb(self, tmp_path, capsys):
        data = self._synth(tmp_path)
        dev = self._synth(tmp_path / "devdir", n_samples=50, seed=4)
        capsys.readouterr()
        assert cli.main([
            "grid", "--method", "ulf",
            "--doc_path", f"{data}/docs.tsv", "--z_path", f"{data}/z.tsv",
            "--t_path", f"{data}/t.tsv", "--gold_path", f"{data}/gold.tsv",
            "--dev_doc_path", f"{dev}/docs.tsv", "--dev_gold_path", f"{dev}/gold.tsv",
            "--out_dir", str(tmp_path / "grid"),
            "--epochs", "2", "--iters", "1", "--k", "3",
            "--p", "0.1,0.5",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["points_evaluated"] == 2
        assert payload["best_params"]["p"] in (0.1, 0.5)

    def test_misallocated_lfs_parsing(self, tmp_path):
        data = self._synth(tmp_path, misallocated_lfs="0:1")
        t = (tmp_path / "data" / "t.tsv").read_text().splitlines()
        # first data row after the "L K" header maps LF 0 to class 1
        assert t[1] == "0\t1"
        assert t[2] == "1\t1"  # LF 1's natural class is 1

    @pytest.mark.parametrize("raw, bad", [("0-1", "0-1"), ("0:x", "0:x"), ("1:0,0:x", "0:x")])
    def test_malformed_misallocated_lfs_names_the_option(self, tmp_path, raw, bad):
        with pytest.raises(ValueError, match=f"--misallocated_lfs: .*{bad!r}"):
            self._synth(tmp_path, misallocated_lfs=raw)

    def test_reruns_are_byte_identical(self, tmp_path):
        data = self._synth(tmp_path)
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert cli.main([
                "ulf",
                "--doc_path", f"{data}/docs.tsv", "--z_path", f"{data}/z.tsv",
                "--t_path", f"{data}/t.tsv", "--gold_path", f"{data}/gold.tsv",
                "--out_dir", str(out), "--epochs", "2", "--iters", "2",
                "--k", "3", "--seed", "7", "--repeats", "2",
            ]) == 0
            outs.append(out)
        for name in ("metrics.json", "labels_corrected.tsv", "t_refined.tsv"):
            a = (outs[0] / name).read_bytes()
            b = (outs[1] / name).read_bytes()
            assert a == b, name

    def _data_args(self, data):
        return ["--doc_path", f"{data}/docs.tsv", "--z_path", f"{data}/z.tsv",
                "--t_path", f"{data}/t.tsv", "--gold_path", f"{data}/gold.tsv"]

    @pytest.mark.parametrize("token", ["ture", "flase"])
    def test_unknown_boolean_token_rejected(self, tmp_path, token):
        data = self._synth(tmp_path)
        with pytest.raises(ValueError, match=repr(token)):
            cli.main(["ulf", "--dump_folds", token, *self._data_args(data),
                      "--out_dir", str(tmp_path / "run"), "--epochs", "1",
                      "--iters", "1", "--k", "3"])

    def test_rerun_leaves_no_stale_artifacts(self, tmp_path):
        data = self._synth(tmp_path)
        out = tmp_path / "run"
        (out / "grid_0000").mkdir(parents=True)
        (out / "grid_results.json").write_text("{}")
        common = ["ulf", *self._data_args(data), "--out_dir", str(out), "--epochs", "1",
                  "--k", "3", "--stall_patience", "10"]
        assert cli.main(common + ["--iters", "4", "--dump_folds", "true"]) == 0
        assert (out / "diagnostics" / "iter_004.json").exists()
        assert (out / "fold_audit.tsv").exists()
        assert cli.main(common + ["--iters", "2"]) == 0
        assert sorted(os.listdir(out / "diagnostics")) == ["iter_001.json", "iter_002.json"]
        assert not (out / "fold_audit.tsv").exists()
        assert (out / "grid_0000").is_dir() and (out / "grid_results.json").read_text() == "{}"

    @pytest.mark.parametrize("verb, key, value, match", [
        ("wscl", "strategy", "rndm", "strategy must be"),
        ("ulf", "p", "2", "p must lie in"),
        ("wscw", "epsilon", "0", "epsilon must lie in"),
        ("wscl", "lr", "0", "learning_rate must be positive"),
        ("ulf", "k", "1", "k must be >= 2"),
        ("wscw", "k", "1", "k must be >= 2"),
        ("wscl", "k", "1", "k must be >= 2"),
        ("wscw", "test_doc_path", "docs.tsv", "needs both test_doc_path and test_gold_path"),
        ("ulf", "lambda_rate", "nan", "lambda_rate must be nonnegative"),
        ("wscl", "lr", "nan", "learning_rate must be positive and finite"),
        ("wscw", "l2", "inf", "l2 must be nonnegative and finite"),
        ("wscw", "p", "7", "p must lie in"),
        ("ulf", "seed", "-1", "seed must be >= 0"),
        ("baseline", "seed", "-1", "seed must be >= 0"),
    ])
    def test_bad_value_keeps_the_previous_run(self, tmp_path, verb, key, value, match):
        data = self._synth(tmp_path)
        args = [verb, *self._data_args(data), "--out_dir", str(tmp_path / "run"),
                "--epochs", "1", "--iters", "1", "--k", "3", "--partitions", "1"]
        assert cli.main(args) == 0
        before = _snapshot(tmp_path / "run")
        with pytest.raises(ValueError, match=match):
            cli.main(args + [f"--{key}", value])
        assert _snapshot(tmp_path / "run") == before

    def test_binary_f1_on_four_classes_keeps_the_previous_run(self, tmp_path):
        data = self._synth(tmp_path, n_classes=4)
        args = ["baseline", *self._data_args(data), "--out_dir", str(tmp_path / "run"),
                "--epochs", "1"]
        assert cli.main(args) == 0
        before = _snapshot(tmp_path / "run")
        with pytest.raises(ValueError, match="binary_f1 requires K = 2, and the dataset has K = 4"):
            cli.main(args + ["--metric", "binary_f1"])
        assert _snapshot(tmp_path / "run") == before

    def test_run_whose_every_repeat_fails_keeps_the_previous_run(self, tmp_path, monkeypatch):
        data = self._synth(tmp_path)
        args = ["baseline", *self._data_args(data), "--out_dir", str(tmp_path / "run"),
                "--epochs", "1", "--repeats", "2"]
        assert cli.main(args) == 0
        before = _snapshot(tmp_path / "run")

        def failing(*args):
            raise ZeroDivisionError("division by zero")
        monkeypatch.setattr(harness, "_execute_repeat", failing)
        with pytest.raises(RuntimeError, match="all repeats failed"):
            cli.main(args)
        assert _snapshot(tmp_path / "run") == before

    def test_synth_rejects_a_negative_seed(self, tmp_path):
        with pytest.raises(ValueError, match="seed must be >= 0"):
            self._synth(tmp_path / "neg", seed=-5)
        assert not (tmp_path / "neg").exists()

    def _stats_rejects(self, monkeypatch, key, value):
        monkeypatch.setattr(cli, "load_dataset", lambda *a: pytest.fail("loaded"))
        with pytest.raises(ValueError, match=f"the stats verb does not take --{key}; "
                                             "it reads only doc_path, z_path, t_path, gold_path"):
            cli.main(["stats", "--doc_path", "d", "--z_path", "z", "--t_path", "t",
                      f"--{key}", value])

    def test_stats_takes_no_repeats_and_reads_no_seed(self, monkeypatch):
        self._stats_rejects(monkeypatch, "stats_repeats", "3")
        self._stats_rejects(monkeypatch, "seed", "9")

    @pytest.mark.parametrize("key, value", [("lr", "0"), ("out_dir", "runs/x"), ("k", "3")])
    def test_stats_rejects_a_setting_it_does_not_read(self, monkeypatch, key, value):
        self._stats_rejects(monkeypatch, key, value)

    def test_stats_takes_its_paths_and_its_own_method(self, tmp_path, capsys):
        data = self._synth(tmp_path)
        capsys.readouterr()
        assert cli.main(["stats", *self._data_args(data), "--method", "baseline_majority"]) == 0
        assert json.loads(capsys.readouterr().out)["n_samples"] == 150

    def test_empty_test_split_keeps_the_previous_run(self, tmp_path):
        data = self._synth(tmp_path)
        args = ["baseline", *self._data_args(data), "--out_dir", str(tmp_path / "run"),
                "--epochs", "1"]
        assert cli.main(args) == 0
        before = _snapshot(tmp_path / "run")
        (tmp_path / "empty.tsv").write_text("\n")
        with pytest.raises(ValueError, match=r"empty\.tsv: no documents"):
            cli.main(args + ["--test_doc_path", str(tmp_path / "empty.tsv"),
                             "--test_gold_path", str(tmp_path / "empty.tsv")])
        assert _snapshot(tmp_path / "run") == before

    @pytest.mark.parametrize("key", ["repeats", "k", "seed"])
    def test_none_rejected_for_non_optional_field(self, key):
        with pytest.raises(ValueError, match=f"--{key}.*'none'"):
            cli.main(["baseline", f"--{key}", "none"])

    def test_none_rejected_in_grid_axis(self):
        with pytest.raises(ValueError, match="--k.*'none'"):
            cli.main(["grid", "--k", "3,none"])

    def test_none_rejected_for_synth_field(self, tmp_path):
        with pytest.raises(ValueError, match="--n_samples.*'none'"):
            cli.main(["synth", "--n_samples", "none", "--out_dir", str(tmp_path)])

    def test_synth_with_negative_words_per_doc_exits_non_zero_and_writes_nothing(self, tmp_path):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [os.path.dirname(os.path.dirname(cli.__file__)),
                          os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-m", "wsdenoise.cli", "synth",
                               "--words_per_doc", "-1", "--out_dir", "data"],
                              cwd=tmp_path, env=env, capture_output=True, text=True)
        assert proc.returncode != 0
        assert "words_per_doc must be >= 0" in proc.stderr
        assert not os.listdir(tmp_path)

    @pytest.mark.parametrize("raw, budget", [("none", None), ("", None), ("1", 1)])
    def test_budget_none_means_no_limit(self, monkeypatch, raw, budget):
        seen = {}

        def fake_grid_search(base, space, budget=None):
            seen["budget"] = budget
            return base, []
        monkeypatch.setattr(cli, "grid_search", fake_grid_search)
        assert cli.main(["grid", "--budget", raw, "--p", "0.1,0.5",
                         "--dev_doc_path", "d", "--dev_gold_path", "g"]) == 0
        assert seen == {"budget": budget}

    @pytest.mark.parametrize("key, raw, axis", [
        ("patience", "2,5", [2, 5]), ("min_df", "1,2", [1, 2]),
        ("max_features", "20,none", [20, None]),
    ])
    def test_every_int_or_float_setting_is_a_grid_axis(self, monkeypatch, key, raw, axis):
        seen = {}

        def fake_grid_search(base, space, budget=None):
            seen.update(space=space, out_dir=base.out_dir)
            return base, []
        monkeypatch.setattr(cli, "grid_search", fake_grid_search)
        assert cli.main(["grid", f"--{key}", raw, "--out_dir", "runs/a,b",
                         "--dev_doc_path", "d", "--dev_gold_path", "g"]) == 0
        # a comma in a string setting is part of its value
        assert seen == {"space": {key: axis}, "out_dir": "runs/a,b"}

    @pytest.mark.parametrize("argv, key, raw", [
        (["grid", "--budget", "two", "--p", "0.1,0.5"], "budget", "two"),
    ])
    def test_bad_verb_option_names_its_key(self, argv, key, raw):
        with pytest.raises(ValueError, match=f"--{key}: expected int, got {raw!r}"):
            cli.main(argv)

    def test_types_follow_annotations(self):
        cfg = cli._build(RunConfig, {"k": "3", "lr": "0.5", "dump_folds": "yes",
                                     "out_dir": "none", "max_features": "none",
                                     "gold_path": ""}, method="ulf")
        assert (cfg.k, cfg.lr, cfg.dump_folds) == (3, 0.5, True)
        assert cfg.out_dir == "none"
        assert cfg.max_features is None and cfg.gold_path is None
        with pytest.raises(ValueError, match="--lr.*'fast'"):
            cli._build(RunConfig, {"lr": "fast"}, method="ulf")

    @pytest.mark.parametrize("verb, method", [
        ("ulf", "wscl"), ("wscw", "ulf"), ("wscl", "baseline_majority"), ("baseline", "ulf"),
        ("stats", "wscw"),
    ])
    def test_method_that_disagrees_with_the_verb_rejected(self, monkeypatch, verb, method):
        monkeypatch.setattr(cli, "run", lambda cfg: pytest.fail("ran"))
        with pytest.raises(ValueError, match=f"--method {method!r} disagrees with the {verb} verb"):
            cli.main([verb, "--method", method])

    @pytest.mark.parametrize("verb, method", [("ulf", "ulf"), ("wscl", "wscl"),
                                              ("baseline", "baseline_majority")])
    def test_config_method_that_names_the_verb_accepted(self, tmp_path, monkeypatch, capsys,
                                                        verb, method):
        seen = []

        def fake_run(cfg):
            seen.append(cfg.method)
            return {"method": cfg.method, "metric": cfg.metric, "mean": 0.5, "sem": 0.0,
                    "dev_mean": None, "partial": False}
        monkeypatch.setattr(cli, "run", fake_run)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"method={method}\nk=3\n")
        assert cli.main([verb, "--config", str(cfg)]) == 0
        assert seen == [method]
        assert json.loads(capsys.readouterr().out)["method"] == method

    @pytest.mark.parametrize("argv, key, owner", [
        (["ulf", "--budget", "3"], "budget", "grid"),
        (["stats", "--budget", "none"], "budget", "grid"),
        (["synth", "--budget", "1"], "budget", "grid"),
    ])
    def test_option_of_another_verb_rejected(self, monkeypatch, argv, key, owner):
        monkeypatch.setattr(cli, "run", lambda cfg: pytest.fail("ran"))
        monkeypatch.setattr(cli, "grid_search", lambda *a, **k: pytest.fail("ran"))
        with pytest.raises(ValueError,
                           match=f"--{key} is a {owner} option; the {argv[0]} verb does not"):
            cli.main(argv)

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown config key"):
            cli.main(["baseline", "--bogus", "1"])
        with pytest.raises(ValueError, match="unknown config key 'bogus'"):
            cli.main(["synth", "--bogus", "1", "--out_dir", str(tmp_path / "data")])
        assert not (tmp_path / "data").exists()

    @pytest.mark.parametrize("argv, match", [
        (["ulf", "extra"], "unexpected argument 'extra'"),
        (["ulf", "--seed", "1", "--k"], "missing value for --k"),
        (["grid", "--p", "0.3", "--dev_doc_path", "d", "--dev_gold_path", "g"],
         "grid verb needs at least one comma-valued hyperparameter"),
    ])
    def test_malformed_command_line_rejected(self, monkeypatch, argv, match):
        monkeypatch.setattr(cli, "run", lambda cfg: pytest.fail("ran"))
        monkeypatch.setattr(cli, "grid_search", lambda *a, **k: pytest.fail("ran"))
        with pytest.raises(ValueError, match=match):
            cli.main(argv)
