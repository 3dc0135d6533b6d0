"""Spans around calls into wsdenoise's public functions, recorded from outside.

``Tracer.install`` wraps each function in ``TARGETS`` and swaps the wrapper
in by identity: every attribute of a loaded ``wsdenoise`` module (or of a
class defined there) that *is* the original function is replaced, which also
catches ``from ... import`` copies such as ``crossval.transform`` and
``pipeline.train``.  The package itself is not modified on disk.

A span records its name, its parent span, its start and its duration; the
tracer keeps a stack so a span's self time is its duration minus the
durations of its direct children.  Spans are held in memory and written out
once, at the end of the run.  Functions listed in ``COUNT_ONLY`` are called
far too often for a span each (``tokenize`` runs once per document per fold);
they only bump a counter.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import itertools
import json
import math
import sys
import time

import numpy as np

from wsdenoise.linear import ClassifierConfig

# (module, attribute) -> span name; "Class.method" attributes name methods
TARGETS = [
    ("wsdenoise.featurize", "fit_vocabulary"),
    ("wsdenoise.featurize", "transform"),
    ("wsdenoise.linear", "train"),
    ("wsdenoise.linear", "predict_proba"),
    ("wsdenoise.crossval", "build_plan"),
    ("wsdenoise.crossval", "plan_random"),
    ("wsdenoise.crossval", "plan_by_lf"),
    ("wsdenoise.crossval", "plan_by_signature"),
    ("wsdenoise.crossval", "estimate_oos"),
    ("wsdenoise.corpus", "load_dataset"),
    ("wsdenoise.corpus", "majority_vote"),
    ("wsdenoise.synth", "generate"),
    ("wsdenoise.confidence", "class_thresholds"),
    ("wsdenoise.confidence", "confident_labels"),
    ("wsdenoise.ulf", "lf_confident_matrix"),
    ("wsdenoise.ulf", "calibrate"),
    ("wsdenoise.ulf", "refine_t"),
    ("wsdenoise.ulf", "relabel_unmatched"),
    ("wsdenoise.ulf", "run_ulf"),
    ("wsdenoise.wscl", "class_confident_joint"),
    ("wsdenoise.wscl", "calibrate_joint"),
    ("wsdenoise.wscl", "prune"),
    ("wsdenoise.wscl", "run_wscl"),
    ("wsdenoise.wscw", "run_wscw"),
    ("wsdenoise.pipeline", "train_text_model"),
    ("wsdenoise.pipeline", "TextModel.predict_proba"),
    ("wsdenoise.harness", "run"),
    ("wsdenoise.harness", "grid_search"),
]
COUNT_ONLY = [("wsdenoise.featurize", "tokenize")]

# per-layer time metric -> (spans it sums, "total" or "self").  A "total"
# metric counts a span only when no enclosing span feeds the same metric,
# so nested calls (build_plan -> plan_by_signature) are not counted twice.
TIME_METRICS = {
    "featurize.fit_vocabulary_s": (["featurize.fit_vocabulary"], "total"),
    "featurize.transform_s": (["featurize.transform"], "total"),
    "linear.train_s": (["linear.train"], "total"),
    "linear.predict_proba_s": (["linear.predict_proba"], "total"),
    "crossval.plan_s": (["crossval.build_plan", "crossval.plan_random",
                         "crossval.plan_by_lf", "crossval.plan_by_signature"], "total"),
    "crossval.estimate_oos_self_s": (["crossval.estimate_oos"], "self"),
    "corpus.load_dataset_s": (["corpus.load_dataset"], "total"),
    "corpus.majority_vote_s": (["corpus.majority_vote"], "total"),
    "synth.generate_s": (["synth.generate"], "total"),
    "confidence.thresholds_s": (["confidence.class_thresholds",
                                 "confidence.confident_labels"], "total"),
    "ulf.refine_s": (["ulf.lf_confident_matrix", "ulf.calibrate", "ulf.refine_t",
                      "ulf.relabel_unmatched"], "total"),
    "wscl.joint_prune_s": (["wscl.class_confident_joint", "wscl.calibrate_joint",
                            "wscl.prune"], "total"),
    "pipeline.final_model_s": (["pipeline.train_text_model"], "total"),
    "pipeline.predict_s": (["pipeline.TextModel.predict_proba"], "total"),
    "harness.run_self_s": (["harness.run"], "self"),
}

UNITS = {
    "featurize.transform_rows": "count",
    "featurize.docs_tokenized": "count",
    "featurize.tokenize_per_doc": "ratio",
    "linear.train_calls": "count",
    "linear.epochs_run": "count",
    "linear.sgd_steps": "count",
    "linear.us_per_step": "us",
    "crossval.fold_fits": "count",
    "crossval.distinct_fit_share": "share",
    "ulf.iterations": "count",
    "wscl.pruned": "count",
    "wscw.flagged": "count",
    "harness.grid_points": "count",
    "trace.overhead_s": "s",
}
UNITS.update({name: "s" for name in TIME_METRICS})
PER_LAYER = sorted(UNITS)


def _digest(*arrays) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        h.update(b"|" if a is None else memoryview(a.ravel()).cast("B"))
    return h.digest()


class Tracer:
    """Span stack plus the finished spans of the current and past rounds."""

    def __init__(self):
        self.stack: list[dict] = []
        self.spans: list[dict] = []
        self.counts = {"tokenize": 0}
        self.round = 0
        self._ids = itertools.count()

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        swaps = {}
        for mod_name, attr in TARGETS + COUNT_ONLY:
            owner = sys.modules[mod_name]
            *cls, fn_name = attr.split(".")
            if cls:
                owner = getattr(owner, cls[0])
            fn = getattr(owner, fn_name)
            name = f"{mod_name.rsplit('.', 1)[1]}.{attr}"
            counted = (mod_name, attr) in COUNT_ONLY
            swaps[id(fn)] = (fn, self._counter(fn) if counted else self._span(name, fn))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "wsdenoise" and not mod_name.startswith("wsdenoise."):
                continue
            owners = [mod] + [v for v in vars(mod).values()
                              if inspect.isclass(v) and v.__module__ == mod_name]
            for owner in owners:
                for key, value in list(vars(owner).items()):
                    hit = swaps.get(id(value))
                    if hit is not None and hit[0] is value:
                        setattr(owner, key, hit[1])

    def _counter(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts["tokenize"] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _span(self, name, fn):
        sig = inspect.signature(fn)
        stack, spans = self.stack, self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {"name": name, "round": self.round, "id": next(self._ids),
                    "parent": stack[-1]["id"] if stack else None, "child_s": 0.0,
                    "ancestors": {s["name"] for s in stack}}
            stack.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["dur_s"] = time.perf_counter() - span["start"]
                stack.pop()
            _annotate(span, sig.bind(*args, **kwargs).arguments, result)
            spans.append(span)
            if stack:
                # the parent's self time excludes this span and its bookkeeping
                stack[-1]["child_s"] += time.perf_counter() - span["start"]
            return result
        return wrapper

    # -- reporting ----------------------------------------------------------

    def start_round(self, rnd: int) -> None:
        self.round = rnd
        self.counts["tokenize"] = 0

    def round_metrics(self, distinct_docs: int) -> dict:
        """Per-layer metrics of the current round."""
        spans = [s for s in self.spans if s["round"] == self.round]
        out = {}
        for metric, (names, mode) in TIME_METRICS.items():
            own = set(names)
            total = 0.0
            for s in spans:
                if s["name"] not in own:
                    continue
                if mode == "self":
                    total += s["dur_s"] - s["child_s"]
                elif not (s["ancestors"] & own):
                    total += s["dur_s"]
            out[metric] = total

        def tagged(name):
            return [s for s in spans if s["name"] == name]

        trains = tagged("linear.train")
        oos_ids = {s["id"] for s in tagged("crossval.estimate_oos")}
        fold_keys = [s["fit_key"] for s in trains if s["parent"] in oos_ids]
        out["featurize.transform_rows"] = sum(s["rows"] for s in tagged("featurize.transform"))
        out["featurize.docs_tokenized"] = self.counts["tokenize"]
        out["featurize.tokenize_per_doc"] = self.counts["tokenize"] / distinct_docs
        out["linear.train_calls"] = len(trains)
        out["linear.epochs_run"] = sum(s["epochs"] for s in trains)
        out["linear.sgd_steps"] = sum(s["steps"] for s in trains)
        out["linear.us_per_step"] = (out["linear.train_s"] / out["linear.sgd_steps"] * 1e6
                                     if out["linear.sgd_steps"] else 0.0)
        out["crossval.fold_fits"] = len(fold_keys)
        out["crossval.distinct_fit_share"] = (len(set(fold_keys)) / len(fold_keys)
                                              if fold_keys else 0.0)
        out["ulf.iterations"] = sum(s["iterations"] for s in tagged("ulf.run_ulf"))
        out["wscl.pruned"] = sum(s["pruned"] for s in tagged("wscl.run_wscl"))
        out["wscw.flagged"] = sum(s["flagged"] for s in tagged("wscw.run_wscw"))
        out["harness.grid_points"] = sum(1 for s in tagged("harness.run")
                                         if "harness.grid_search" in s["ancestors"])
        return out

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for s in self.spans:
                rec = {k: v for k, v in s.items() if k not in ("ancestors", "fit_key")}
                f.write(json.dumps(rec, sort_keys=True) + "\n")


def _annotate(span: dict, args: dict, result) -> None:
    """Attach the counts a span's layer metrics need, read from its call."""
    name = span["name"]
    if name == "featurize.transform":
        span["rows"] = len(args["texts"])
    elif name == "linear.train":
        x, labels = args["features"], args["labels"]
        cfg = args.get("cfg") or ClassifierConfig()
        weights = args.get("sample_weights")
        span["epochs"] = len(result.training_log)
        span["steps"] = span["epochs"] * math.ceil(x.shape[0] / cfg.batch_size)
        span["fit_key"] = _digest(
            x.indptr, x.indices, x.data, np.asarray(getattr(labels, "labels", labels)),
            None if weights is None else np.asarray(weights, dtype=float),
            np.frombuffer(repr(cfg).encode(), dtype=np.uint8),
        )
    elif name == "ulf.run_ulf":
        span["iterations"] = result.iterations_run
    elif name == "wscl.run_wscl":
        span["pruned"] = int((~result.keep_mask).sum())
    elif name == "wscw.run_wscw":
        span["flagged"] = int((result[0].flags > 0).sum())
