"""The stages every denoising method shares.

All three methods run weak labels -> fold plan -> out-of-sample
probabilities -> class thresholds -> confident labels, then a repair of their
own.  ``oos_evidence`` is that common stage, ``DenoiseResult`` the one result
type every method is reported as, and ``TextModel`` the vocabulary plus
classifier trained on the repaired labels.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from wsdenoise.confidence import ConfidentLabels, Thresholds, class_thresholds, confident_labels
from wsdenoise.corpus import LabelVector, WeakDataset
from wsdenoise.crossval import FoldPlan, OOSProbs, build_plan, estimate_oos
from wsdenoise.featurize import FeaturizeConfig, Vocabulary, fit_vocabulary, transform
from wsdenoise.linear import ClassifierConfig, Model, predict_proba, train


@dataclass
class TextModel:
    vocab: Vocabulary
    model: Model

    def predict_proba(self, texts: list[str]) -> np.ndarray:
        return predict_proba(self.model, transform(texts, self.vocab))

    def predict(self, texts: list[str]) -> np.ndarray:
        return np.argmax(self.predict_proba(texts), axis=1)


def train_text_model(texts, labels, num_classes, sample_weights=None,
                     feat_cfg: FeaturizeConfig | None = None,
                     clf_cfg: ClassifierConfig | None = None) -> TextModel:
    vocab = fit_vocabulary(texts, feat_cfg or FeaturizeConfig())
    features = transform(texts, vocab)
    model = train(features, labels, sample_weights=sample_weights,
                  cfg=clf_cfg or ClassifierConfig(), num_classes=num_classes)
    return TextModel(vocab, model)


@dataclass
class DenoiseResult:
    """What one denoising run produced; fields a method does not fill keep their defaults."""

    final_labels: LabelVector
    refined_t: np.ndarray
    iterations_run: int = 1                  # ULF refinement passes
    label_change_fractions: list = field(default_factory=list)  # ULF, per iteration
    final_model: TextModel | None = None
    diagnostics: list = field(default_factory=list)             # ULF, per iteration
    sample_weights: object = None            # wscw.SampleWeights
    keep_mask: np.ndarray | None = None      # WSCL
    prune_report: dict | None = None         # WSCL
    last_plan: FoldPlan | None = None
    last_probs: OOSProbs | None = None


def oos_evidence(ds: WeakDataset, labels: LabelVector, strategy: str, k: int,
                 lambda_rate: float, plan_seed: int, clf: ClassifierConfig, clf_seed: int,
                 feat: FeaturizeConfig, fold_predict=None,
                 ) -> tuple[FoldPlan, OOSProbs, Thresholds, ConfidentLabels]:
    """Plan folds, estimate out-of-sample probabilities, and read confident labels off them.

    The plan is seeded by ``plan_seed``; fold models train with ``clf`` under
    ``clf_seed``.  Thresholds are judged against ``labels``.
    """
    plan = build_plan(ds, strategy, k, lambda_rate, plan_seed)
    probs = estimate_oos(ds, labels, plan, feat, replace(clf, seed=clf_seed), fold_predict)
    th = class_thresholds(probs, labels)
    return plan, probs, th, confident_labels(probs, th)
