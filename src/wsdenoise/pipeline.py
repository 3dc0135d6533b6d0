"""The stages every denoising method shares.

All three methods run weak labels -> fold plan -> out-of-sample
probabilities -> class thresholds -> confident labels, then a repair of their
own.  ``oos_evidence`` is that common stage and ``FoldConfig`` its settings,
which each method's config extends.  ``DenoiseResult`` is the one result type
every method is reported as, and ``finish`` the last step, which builds that
result and trains the ``TextModel`` (a vocabulary plus a classifier) on the
repaired labels.  ``evidence_memo`` scopes the reuse of out-of-sample
probabilities between ``oos_evidence`` calls whose fold fits would be
identical.
"""

from __future__ import annotations

import contextlib
import contextvars
from dataclasses import astuple, dataclass, field, replace

import numpy as np

from wsdenoise.confidence import class_thresholds, confident_labels
from wsdenoise.corpus import LabelVector, WeakDataset, as_labels
from wsdenoise.crossval import STRATEGIES, FoldPlan, OOSProbs, build_plan, estimate_oos
from wsdenoise.featurize import FeaturizeConfig, Vocabulary, fit_rows, transform
from wsdenoise.linear import ClassifierConfig, Model, predict_proba, train

# stage key -> (dataset, labels, OOSProbs) of the last estimate under that key;
# None outside an ``evidence_memo`` block
_MEMO: contextvars.ContextVar[dict | None] = contextvars.ContextVar("evidence_memo",
                                                                    default=None)


@dataclass
class FoldConfig:
    """The k-fold settings and checks of every method's config; ``seed`` is its master seed."""

    k: int = 5
    strategy: str = "by_signature"
    lambda_rate: float = 0.0
    seed: int = 0
    clf: ClassifierConfig = field(default_factory=ClassifierConfig)
    feat: FeaturizeConfig = field(default_factory=FeaturizeConfig)

    def __post_init__(self):
        if self.k < 2:
            raise ValueError("k must be >= 2")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"strategy must be one of {STRATEGIES}")
        if not self.lambda_rate >= 0:
            raise ValueError("lambda_rate must be nonnegative")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass
class TextModel:
    vocab: Vocabulary
    model: Model

    def predict_proba(self, texts: list[str]) -> np.ndarray:
        return predict_proba(self.model, transform(texts, self.vocab))

    def predict(self, texts: list[str]) -> np.ndarray:
        return np.argmax(self.predict_proba(texts), axis=1)


def train_text_model(ds: WeakDataset, labels, rows: np.ndarray | None = None,
                     sample_weights=None, feat_cfg: FeaturizeConfig | None = None,
                     clf_cfg: ClassifierConfig | None = None) -> TextModel:
    """Fit a vocabulary and a classifier on ``rows`` of ``ds`` (all rows for None).

    ``labels`` and ``sample_weights`` are aligned with those rows.  The
    features are cut from the dataset's count matrix, so no text is
    tokenized again.
    """
    vocab, _, features = fit_rows(ds.term_counts, rows, feat_cfg or FeaturizeConfig())
    model = train(features, labels, sample_weights=sample_weights,
                  cfg=clf_cfg or ClassifierConfig(), num_classes=ds.num_classes)
    return TextModel(vocab, model)


@dataclass
class DenoiseResult:
    """What one denoising run produced; fields a method does not fill keep their defaults."""

    final_labels: LabelVector
    refined_t: np.ndarray
    final_model: TextModel | None = None
    diagnostics: list = field(default_factory=list)  # ULF, per iteration
    sample_weights: object = None            # wscw.SampleWeights
    keep_mask: np.ndarray | None = None      # WSCL
    prune_report: dict | None = None         # WSCL
    last_plan: FoldPlan | None = None
    last_probs: OOSProbs | None = None

    @property
    def iterations_run(self) -> int:
        """ULF refinement passes, one ``diagnostics`` record each (0 for other methods)."""
        return len(self.diagnostics)


def finish(ds: WeakDataset, labels: LabelVector, train_final: bool, feat: FeaturizeConfig,
           clf: ClassifierConfig, **fields) -> DenoiseResult:
    """Build a method's result from ``fields`` and, when ``train_final``, its final model.

    ``refined_t`` defaults to a copy of ``ds.t``.  The model trains on
    ``labels`` at the rows ``keep_mask`` keeps (all rows without one), each
    weighted by ``sample_weights.w`` when the result has weights.
    """
    fields.setdefault("refined_t", np.array(ds.t, dtype=float))
    result = DenoiseResult(labels, **fields)
    if train_final:
        rows = None if result.keep_mask is None else np.flatnonzero(result.keep_mask)
        y = labels.labels if rows is None else labels.labels[rows]
        w = None if result.sample_weights is None else result.sample_weights.w
        result.final_model = train_text_model(ds, y, rows, w, feat, clf)
    return result


@contextlib.contextmanager
def evidence_memo():
    """Share out-of-sample probabilities between the ``oos_evidence`` calls in the block.

    ``grid_search`` opens one per sweep, so grid points reuse the fold fits
    their hyperparameters do not change.  The memo holds one entry per
    stage key and is dropped when the block exits, even by an exception.
    """
    token = _MEMO.set({})
    try:
        yield
    finally:
        _MEMO.reset(token)


def oos_evidence(ds: WeakDataset, labels: LabelVector, cfg: FoldConfig, plan_seed: int,
                 clf_seed: int) -> tuple[FoldPlan, OOSProbs, np.ndarray, np.ndarray]:
    """Plan folds, estimate out-of-sample probabilities, and read confident labels off them.

    The plan follows ``cfg``'s strategy, k and lambda under ``plan_seed``; fold
    models train with ``cfg.clf`` under ``clf_seed`` on ``cfg.feat`` features.
    Returns the plan, the probabilities, and two arrays: K class thresholds
    judged against ``labels`` and N int64 confident labels.

    A fold fit is a pure function of its inputs.  Inside an
    ``evidence_memo`` block, a call whose stage key (strategy, k, lambda,
    plan seed, classifier config with its seed, featurizer config) and
    dataset match the previous estimate under that key, and whose labels are
    equal to its labels, reuses its probabilities instead of refitting the
    folds; the plan, thresholds and confident labels are recomputed.  A
    method's own settings, ULF's ``p`` say, are not in the key.  A miss
    estimates as usual and replaces the entry, so the memo holds at most one
    labels copy and one ``OOSProbs``, about N x (K + 2) x 8 bytes, per stage
    key.  Cached arrays are read-only.
    """
    plan = build_plan(ds, cfg.strategy, cfg.k, cfg.lambda_rate, plan_seed)
    clf = replace(cfg.clf, seed=clf_seed)
    memo = _MEMO.get()
    y = as_labels(labels)
    key = (cfg.strategy, cfg.k, cfg.lambda_rate, plan_seed, astuple(clf), astuple(cfg.feat))
    entry = memo.get(key) if memo is not None else None
    if entry is not None and entry[0] is ds and np.array_equal(entry[1], y):
        probs = entry[2]
    else:
        probs = estimate_oos(ds, labels, plan, cfg.feat, clf)
        if memo is not None:
            y = y.copy()
            for a in (y, probs.probs, probs.prediction_count):
                a.flags.writeable = False
            memo[key] = (ds, y, probs)
    th = class_thresholds(probs.probs, labels)
    return plan, probs, th, confident_labels(probs.probs, th)
