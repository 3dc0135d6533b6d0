"""Denoising of weakly supervised labels via k-fold cross-validation.

The package takes raw documents, a binary LF-match matrix Z (N x L) and an
LF-to-class mapping matrix T (L x K), and produces corrected training labels
plus a final TF-IDF + logistic-regression classifier.  Three denoising
methods are provided:

* ``ulf``  -- iterative refinement of the LF-to-class matrix itself,
* ``wscw`` -- repeated by-LF cross-validation that downweights samples whose
  out-of-sample prediction disagrees with their weak label,
* ``wscl`` -- confident-joint estimation and pruning of likely-mislabeled
  samples.
"""

from wsdenoise.corpus import (
    WeakDataset,
    LabelVector,
    load_dataset,
    save_dataset,
    majority_vote,
    dataset_stats,
)
from wsdenoise.featurize import FeaturizeConfig, Vocabulary, fit_vocabulary, transform
from wsdenoise.linear import ClassifierConfig, Model, train, predict_proba
from wsdenoise.crossval import (
    FoldPlan,
    OOSProbs,
    plan_random,
    plan_by_lf,
    plan_by_signature,
    estimate_oos,
)
from wsdenoise.confidence import class_thresholds, confident_labels
from wsdenoise.pipeline import DenoiseResult
from wsdenoise.ulf import (
    UlfConfig,
    lf_confident_matrix,
    calibrate,
    refine_t,
    relabel_unmatched,
    run_ulf,
)
from wsdenoise.wscw import WscwConfig, SampleWeights, run_wscw
from wsdenoise.wscl import (
    WsclConfig,
    PruneMask,
    class_confident_joint,
    calibrate_joint,
    prune,
    run_wscl,
)
from wsdenoise.synth import SynthConfig, generate, inject_label_noise
from wsdenoise.harness import RunConfig, evaluate, run, grid_search

__version__ = "0.1.0"
