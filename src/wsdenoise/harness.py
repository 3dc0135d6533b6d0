"""Experiment harness: run configuration, metrics, artifacts, grid search.

A run executes one method (majority baseline, mapping refinement, sample
downweighting, or confident-joint pruning) ``repeats`` times with seeds
derived from the master seed, evaluates either the final classifier on a
held-out test split or the corrected labels against training gold, writes
the ``metrics.json`` record plus per-method diagnostics into the run
directory, and returns that record.  The development split, when present,
is used only for model selection and grid search, never inside denoising.
``run`` and ``grid_search`` share one sweep driver, which trains the final
models of consecutive repeats, across grid points, in one lockstep.

Everything written to ``metrics.json`` and the label outputs is
deterministic under a fixed config and seed; wall-clock timing goes to a
separate ``timing.json`` so repeated runs stay byte-identical.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import os
import re
import shutil
import time
from dataclasses import dataclass, fields, replace

import numpy as np

from wsdenoise.corpus import (
    WeakDataset,
    _write_lines,
    as_labels,
    load_dataset,
    majority_vote,
    read_documents,
    read_gold,
)
from wsdenoise.crossval import _groups
from wsdenoise.featurize import FeaturizeConfig, count_terms
from wsdenoise.linear import ClassifierConfig
from wsdenoise.pipeline import (DenoiseResult, FoldConfig, evidence_memo, final_fit, finish,
                                train_text_models)
from wsdenoise.seeding import derive_seed
from wsdenoise.ulf import UlfConfig, run_ulf
from wsdenoise.wscl import WsclConfig, run_wscl
from wsdenoise.wscw import WscwConfig, run_wscw

METHODS = ("baseline_majority", "ulf", "wscw", "wscl")
METRICS = ("accuracy", "binary_f1", "macro_f1")
STRATEGY_ALIASES = {
    "rndm": "random", "random": "random",
    "lfs": "by_lf", "by_lf": "by_lf",
    "sgn": "by_signature", "by_signature": "by_signature",
}
# the files ``run`` writes into a run directory, besides ``diagnostics/``;
# a finished rerun removes these before it writes its own
ARTIFACT_FILES = ("config.txt", "id_mapping.tsv", "labels_corrected.tsv", "t_refined.tsv",
                  "metrics.json", "timing.json", "weights.tsv", "prune_report.json",
                  "fold_audit.tsv")


@dataclass
class RunConfig:
    method: str = "baseline_majority"
    strategy: str = "sgn"
    doc_path: str = ""
    z_path: str = ""
    t_path: str = ""
    gold_path: str | None = None
    dev_doc_path: str | None = None
    dev_gold_path: str | None = None
    test_doc_path: str | None = None
    test_gold_path: str | None = None
    out_dir: str = "runs/run"
    seed: int = 0
    repeats: int = 1
    metric: str = "accuracy"
    # ULF, and the k-fold k and lambda_rate (field order is config.txt's line order)
    p: float = UlfConfig.p
    k: int = FoldConfig.k
    iters: int = UlfConfig.max_iters
    stall_patience: int = UlfConfig.stall_patience
    lambda_rate: float = FoldConfig.lambda_rate
    # WSCW
    partitions: int = WscwConfig.partitions
    epsilon: float = WscwConfig.epsilon
    # classifier / featurizer
    lr: float = ClassifierConfig.learning_rate
    epochs: int = ClassifierConfig.epochs
    patience: int = ClassifierConfig.patience
    batch_size: int = ClassifierConfig.batch_size
    l2: float = ClassifierConfig.l2
    min_df: int = FeaturizeConfig.min_df
    max_features: int | None = FeaturizeConfig.max_features
    dump_folds: bool = False

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}")
        if self.metric not in METRICS:
            raise ValueError(f"metric must be one of {METRICS}")
        if self.strategy not in STRATEGY_ALIASES:
            raise ValueError(f"strategy must be one of {sorted(STRATEGY_ALIASES)}")
        if self.repeats < 1:
            raise ValueError("repeats must be >= 1")
        for s in ("dev", "test"):
            if bool(getattr(self, f"{s}_doc_path")) != bool(getattr(self, f"{s}_gold_path")):
                raise ValueError(f"a {s} split needs both {s}_doc_path and {s}_gold_path")
        for method in dict.fromkeys((self.method, "ulf", "wscw")):
            self.method_config(self.seed, method)

    def method_config(self, seed: int,
                      method: str = "") -> UlfConfig | WsclConfig | WscwConfig | None:
        """The config of ``method`` (default: the run's) for a repeat seeded ``seed``, or None.

        Building it checks every setting that method reads; ``ulf`` and ``wscw`` read them all.
        """
        shared = dict(k=self.k, seed=seed, clf=self.classifier_config(seed),
                      feat=self.featurize_config())
        planned = dict(strategy=STRATEGY_ALIASES[self.strategy], lambda_rate=self.lambda_rate)
        method = method or self.method
        if method == "ulf":
            return UlfConfig(p=self.p, max_iters=self.iters, stall_patience=self.stall_patience,
                             **planned, **shared)
        if method == "wscl":
            return WsclConfig(**planned, **shared)
        if method == "wscw":
            return WscwConfig(partitions=self.partitions, epsilon=self.epsilon, **shared)
        return None

    def classifier_config(self, seed: int) -> ClassifierConfig:
        return ClassifierConfig(learning_rate=self.lr, epochs=self.epochs,
                                patience=self.patience, batch_size=self.batch_size,
                                l2=self.l2, seed=seed)

    def featurize_config(self) -> FeaturizeConfig:
        return FeaturizeConfig(min_df=self.min_df, max_features=self.max_features)


# ---------------------------------------------------------------------------
# metrics


def _f1(p: np.ndarray, g: np.ndarray, c) -> float:
    """F1 of class ``c`` against the rest; 0 when ``c`` has no true or predicted sample."""
    tp = int(((p == c) & (g == c)).sum())
    fp = int(((p == c) & (g != c)).sum())
    fn = int(((p != c) & (g == c)).sum())
    denom = 2 * tp + fp + fn
    return 2 * tp / denom if denom else 0.0


def evaluate(pred, gold, metric: str) -> float:
    """Accuracy, binary F1 (class 1 positive, K=2), or macro F1.

    Macro F1 averages over the classes present in ``pred`` or ``gold``.
    """
    p = as_labels(pred)
    g = as_labels(gold)
    if len(p) != len(g):
        raise ValueError("prediction and gold lengths disagree")
    if metric == "accuracy":
        return float((p == g).mean())
    if metric == "binary_f1":
        if max(p.max(initial=0), g.max(initial=0)) > 1:
            raise ValueError("binary_f1 requires K = 2")
        return _f1(p, g, 1)
    if metric == "macro_f1":
        return float(np.mean([_f1(p, g, c) for c in np.union1d(p, g)]))
    raise ValueError(f"unknown metric {metric!r}")


def _check_metric(metric: str, ds: WeakDataset) -> None:
    """Reject a metric the dataset cannot be scored by, before a run touches its directory."""
    if metric == "binary_f1" and ds.num_classes != 2:
        raise ValueError(f"binary_f1 requires K = 2, and the dataset has K = {ds.num_classes}")


# ---------------------------------------------------------------------------
# split loading


def _load_split(doc_path, gold_path, num_classes, splits: dict):
    """A split's ``count_terms`` and gold, validated like the training set; read once per
    ``splits``, a sweep's record of the splits it has read."""
    if (doc_path, gold_path) not in splits:
        ids, texts, seen = read_documents(doc_path)
        gold = read_gold(gold_path, ids, seen, num_classes)
        splits[doc_path, gold_path] = count_terms(texts), gold
    return splits[doc_path, gold_path]


# ---------------------------------------------------------------------------
# single repeat


def _execute_repeat(ds: WeakDataset, cfg: RunConfig, seed: int,
                    train_final: bool) -> DenoiseResult:
    """Run one repeat of the configured method; ``train_final`` asks for the final model."""
    method_cfg = cfg.method_config(seed)
    if cfg.method == "ulf":
        return run_ulf(ds, method_cfg, train_final=train_final)
    if cfg.method == "wscl":
        return run_wscl(ds, method_cfg, train_final=train_final)
    labels = majority_vote(ds, ds.t, seed)
    if cfg.method == "baseline_majority":
        return finish(ds, labels, train_final, cfg.featurize_config(), cfg.classifier_config(seed))
    result = DenoiseResult(final_labels=labels, refined_t=np.array(ds.t, dtype=float))

    def _collect(plan, probs):
        result.last_plan, result.last_probs = plan, probs

    result.sample_weights, result.final_model = run_wscw(
        ds, method_cfg, train_final=train_final, collect_audit=_collect, noisy=labels)
    return result


# ---------------------------------------------------------------------------
# artifacts


def _fold_audit_lines(plan, probs):
    """Fold assignment and probability dump, one sample per line."""
    fold_of_test = {}
    for fi, (_, te) in enumerate(plan.folds):
        for i in te:
            fold_of_test.setdefault(int(i), []).append(fi)
    yield "# sample\ttest_folds\tprediction_count\tprobs"
    for i in range(probs.probs.shape[0]):
        folds = ",".join(str(v) for v in fold_of_test.get(i, []))
        row = "\t".join(repr(float(v)) for v in probs.probs[i])
        yield f"{i}\t{folds}\t{int(probs.prediction_count[i])}\t{row}"


def _clear_artifacts(run_dir) -> None:
    """Remove what an earlier run wrote here; every other entry is left alone."""
    for name in ARTIFACT_FILES:
        with contextlib.suppress(FileNotFoundError):
            os.remove(os.path.join(run_dir, name))
    shutil.rmtree(os.path.join(run_dir, "diagnostics"), ignore_errors=True)


def _clear_grid(grid_dir) -> None:
    """Remove what an earlier sweep wrote here: ``grid_results.json`` and ``grid_NNNN/``."""
    with contextlib.suppress(FileNotFoundError):
        os.remove(os.path.join(grid_dir, "grid_results.json"))
    with contextlib.suppress(FileNotFoundError), os.scandir(grid_dir) as entries:
        for entry in entries:
            if re.fullmatch(r"grid_\d{4,}", entry.name) and entry.is_dir(follow_symlinks=False):
                shutil.rmtree(entry.path)


def _write_artifacts(run_dir, cfg: RunConfig, ds: WeakDataset, result: DenoiseResult,
                     metrics: dict, wall_clock_sec: float) -> None:
    os.makedirs(run_dir, exist_ok=True)
    _write_lines(os.path.join(run_dir, "config.txt"),
                 [*(f"{fld.name}={getattr(cfg, fld.name)}" for fld in fields(RunConfig)),
                  f"derived_seeds={','.join(str(s) for s in metrics['seeds'])}"])
    _write_lines(os.path.join(run_dir, "id_mapping.tsv"),
                 (f"{sid}\t{dense}" for dense, sid in enumerate(ds.ids)))
    _write_lines(os.path.join(run_dir, "labels_corrected.tsv"),
                 (f"{sid}\t{int(lab)}" for sid, lab in zip(ds.ids, result.final_labels.labels)))
    _write_lines(os.path.join(run_dir, "t_refined.tsv"),
                 (f"{l}\t" + "\t".join(repr(float(v)) for v in row)
                  for l, row in enumerate(result.refined_t)))

    if result.diagnostics:
        diag_dir = os.path.join(run_dir, "diagnostics")
        os.makedirs(diag_dir, exist_ok=True)
        for d in result.diagnostics:
            with open(os.path.join(diag_dir, f"iter_{d['iteration']:03d}.json"), "w",
                      encoding="utf-8") as f:
                json.dump(d, f, indent=1)
    if result.prune_report is not None:
        with open(os.path.join(run_dir, "prune_report.json"), "w", encoding="utf-8") as f:
            json.dump(result.prune_report, f, indent=1)
    if result.sample_weights is not None:
        w = result.sample_weights
        _write_lines(os.path.join(run_dir, "weights.tsv"),
                     (f"{sid}\t{repr(float(wv))}\t{int(fl)}"
                      for sid, wv, fl in zip(ds.ids, w.w, w.flags)))
    if cfg.dump_folds and result.last_plan is not None:
        _write_lines(os.path.join(run_dir, "fold_audit.tsv"),
                     _fold_audit_lines(result.last_plan, result.last_probs))

    with open(os.path.join(run_dir, "metrics.json"), "w", encoding="utf-8") as f:
        json.dump(metrics, f, indent=1, sort_keys=True)
    with open(os.path.join(run_dir, "timing.json"), "w", encoding="utf-8") as f:
        json.dump({"wall_clock_sec": wall_clock_sec}, f)


# ---------------------------------------------------------------------------
# the sweep driver, and run and grid search on it


class _Point:
    """One run of a sweep, a grid point or a lone ``run``: its splits and its repeats' tally."""

    def __init__(self, cfg: RunConfig, ds: WeakDataset, splits: dict):
        """Read the held-out splits and make the checks that come before any repeat."""
        self.cfg, self.ds, self.start = cfg, ds, time.monotonic()
        self.dev = self.test = None
        if cfg.dev_doc_path:
            self.dev = _load_split(cfg.dev_doc_path, cfg.dev_gold_path, ds.num_classes, splits)
        if cfg.test_doc_path:
            self.test = _load_split(cfg.test_doc_path, cfg.test_gold_path, ds.num_classes, splits)
        if self.test is None and ds.gold is None:
            raise ValueError("no evaluation target: provide a test split or training gold")
        _check_metric(cfg.metric, ds)
        self.seeds = [derive_seed(cfg.seed, 800, r) for r in range(cfg.repeats)]
        self.values, self.dev_values, self.failures = [], [], []
        self.best = None  # (dev value, result) of the repeat whose artifacts are written
        self.outcome = None  # the metrics record, or the exception that stopped the point

    def score(self, r: int, result) -> None:
        """Tally repeat ``r``'s result, or the exception that stopped it; after the last
        repeat, write the run directory.  An exception raised here is the point's outcome."""
        cfg, dev, test = self.cfg, self.dev, self.test
        try:
            if isinstance(result, Exception):
                self.failures.append(f"repeat {r}: {type(result).__name__}: {result}")
            else:
                if test is not None:
                    value = evaluate(result.final_model.predict(test[0]), test[1], cfg.metric)
                else:
                    value = evaluate(result.final_labels, self.ds.gold, cfg.metric)
                dev_value = None
                if dev is not None:
                    dev_value = evaluate(result.final_model.predict(dev[0]), dev[1], cfg.metric)
                    self.dev_values.append(dev_value)
                self.values.append(value)
                if self.best is None or dev is None or dev_value > self.best[0]:
                    self.best = (dev_value, result)
            if r == cfg.repeats - 1:
                self.outcome = self._write()
        except Exception as exc:
            self.outcome = exc

    def _write(self) -> dict:
        values, dev_values, failures = self.values, self.dev_values, self.failures
        if not values:
            raise RuntimeError("all repeats failed: " + "; ".join(failures))
        cfg = self.cfg
        sem = float(np.std(values, ddof=1) / math.sqrt(len(values))) if len(values) > 1 else 0.0
        metrics = {"method": cfg.method, "strategy": cfg.strategy, "metric": cfg.metric,
                   "repeats": cfg.repeats, "seeds": self.seeds, "failures": failures,
                   "partial": bool(failures), "values": values, "mean": float(np.mean(values)),
                   "sem": sem, "dev_values": dev_values if self.dev is not None else None,
                   "dev_mean": float(np.mean(dev_values)) if dev_values else None}
        _clear_artifacts(cfg.out_dir)
        _write_artifacts(cfg.out_dir, cfg, self.ds, self.best[1], metrics,
                         time.monotonic() - self.start)
        return metrics


def _sweep(ds: WeakDataset, cfgs: list) -> list:
    """Run each config's repeats in order; return per config its ``metrics.json`` record or
    the exception that stopped it.  A repeat that raises is recorded; KeyboardInterrupt stops.

    Each repeat's method runs without its final model.  Results wait in chunks
    of consecutive repeats, planned by ``crossval._groups`` from the whole
    dataset's stored counts to bound the results held; then the chunk's final
    models train (``train_text_models``, in ``crossval.train_fits``' groups) and
    its repeats are scored in order.  A repeat without a held-out split needs
    no model and is scored as soon as its method returns.
    """
    points, splits = [None] * len(cfgs), {}
    jobs = [(i, r) for i, cfg in enumerate(cfgs) for r in range(cfg.repeats)]
    for chunk in _groups([ds.term_counts.counts.nnz] * len(jobs)):
        pending = []  # (point, repeat, result or exception) of the chunk's final models
        for i, r in (jobs[j] for j in chunk):
            if r == 0:
                try:
                    points[i] = _Point(cfgs[i], ds, splits)
                except Exception as exc:
                    points[i] = exc
            point = points[i]
            if isinstance(point, Exception) or point.outcome is not None:
                continue
            try:
                result = _execute_repeat(ds, point.cfg, point.seeds[r], False)
            except Exception as exc:
                result = exc
            if point.dev is None and point.test is None:
                point.score(r, result)
            else:
                pending.append((point, r, result))
            del result  # ``pending``, or the point that chose it, holds it now
        models = iter(train_text_models(ds, [
            final_fit(res, p.cfg.featurize_config(), p.cfg.classifier_config(p.seeds[r]))
            for p, r, res in pending if not isinstance(res, Exception)]))
        while pending:  # a result is dropped once scored, unless its point chose it
            point, r, result = pending.pop(0)
            if not isinstance(result, Exception):
                result.final_model = next(models)
                if isinstance(result.final_model, Exception):
                    result = result.final_model
            point.score(r, result)
            del result
    return [p if isinstance(p, Exception) else p.outcome for p in points]


def run(cfg: RunConfig, ds: WeakDataset | None = None) -> dict:
    """Execute the configured method ``repeats`` times; return the ``metrics.json`` record.

    The wall-clock time goes to ``timing.json`` only.  Evaluation source, in
    order of preference: final-classifier predictions on the test split;
    otherwise corrected labels against training gold.  The final classifier
    is trained only when a dev or test split needs its predictions.  When a
    dev split is provided, the first repeat with the best dev score supplies
    the written artifacts; otherwise the last repeat does.  A repeat that
    raises is recorded in ``failures`` with its exception type and skipped;
    the run raises only when every repeat fails.  What an earlier run wrote in
    ``out_dir`` is removed only after every repeat has run and been scored, so
    a run that raises leaves it in place.  A run is a sweep of one point.
    """
    if ds is None:
        ds = load_dataset(cfg.doc_path, cfg.z_path, cfg.t_path, cfg.gold_path or None)
    (outcome,) = _sweep(ds, [cfg])
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def grid_search(base: RunConfig, space: dict, budget: int | None = None,
                ds: WeakDataset | None = None):
    """Sweep hyperparameter value-lists; select the best dev-mean config.

    The sweep is exhaustive in first-in-grid order, or truncated to
    ``budget`` (>= 1) points chosen by a seeded shuffle.  Ties break toward
    the earlier grid point.  A point whose run fails is recorded with its
    ``error`` and a null ``dev_mean``, and the sweep goes on; it raises only
    when every point fails, after writing ``grid_results.json``.  Returns
    ``(best RunConfig, results list)``.

    Before the sweep, ``grid_results.json`` and the ``grid_NNNN/`` directories
    of an earlier sweep are removed from ``base.out_dir``, so the directory
    never mixes two sweeps; a value no ``RunConfig`` accepts (``p=2``, say) or
    ``binary_f1`` on a dataset with K != 2 raises before that, leaving the
    earlier sweep in place.  The points run as one ``_sweep``, which reads
    each held-out split once and trains the final models of consecutive
    repeats, across points, together, and inside one
    ``pipeline.evidence_memo``: a point reuses the out-of-sample
    probabilities of an earlier point whose fold fits had equal inputs (a
    ``wscw`` epsilon sweep refits no partition, a ``ulf`` p sweep shares
    iteration 1), and every point's artifacts equal those of a standalone
    ``run``.  The memo holds about N x (K + 2) x 8 bytes per distinct stage
    and is dropped when the sweep ends.
    """
    if not base.dev_doc_path:
        raise ValueError("grid search requires a dev split for selection")
    if budget is not None and budget < 1:
        raise ValueError(f"budget must be >= 1 or None, got {budget}")
    keys = list(space.keys())
    if not keys or any(len(space[k]) == 0 for k in keys):
        raise ValueError("empty grid space")
    points = [dict(zip(keys, combo)) for combo in itertools.product(*(space[k] for k in keys))]
    indices = list(range(len(points)))
    if budget is not None and budget < len(points):
        rng = np.random.default_rng([base.seed, 900])
        indices = sorted(rng.permutation(len(points))[:budget].tolist())

    cfgs = [replace(base, **points[i], out_dir=os.path.join(base.out_dir, f"grid_{i:04d}"))
            for i in indices]
    if ds is None:
        ds = load_dataset(base.doc_path, base.z_path, base.t_path, base.gold_path or None)
    for cfg in cfgs:
        _check_metric(cfg.metric, ds)
    _clear_grid(base.out_dir)
    with evidence_memo():
        outcomes = _sweep(ds, cfgs)
    results = []
    best_cfg, best_score, best_idx = None, -np.inf, None
    for idx, cfg, metrics in zip(indices, cfgs, outcomes):
        if isinstance(metrics, Exception):
            results.append({"grid_index": idx, "params": points[idx],
                            "error": f"{type(metrics).__name__}: {metrics}",
                            "dev_mean": None, "test_mean": None})
            continue
        score = metrics["dev_mean"]
        results.append({"grid_index": idx, "params": points[idx],
                        "dev_mean": score, "test_mean": metrics["mean"]})
        if score > best_score:
            best_cfg, best_score, best_idx = cfg, score, idx
    os.makedirs(base.out_dir, exist_ok=True)
    with open(os.path.join(base.out_dir, "grid_results.json"), "w", encoding="utf-8") as f:
        json.dump({"best_index": best_idx, "results": results}, f, indent=1, sort_keys=True)
    if best_cfg is None:
        raise RuntimeError("every grid point failed: "
                           + "; ".join(f"point {r['grid_index']}: {r['error']}" for r in results))
    return best_cfg, results
