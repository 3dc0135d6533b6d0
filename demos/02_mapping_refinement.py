"""Repair a misallocated labeling function by refining the LF-to-class matrix.

The iterative procedure (CLI verb ``ulf``) estimates out-of-sample class
probabilities with k-fold cross-validation, counts how often each LF's
matches receive each *confident* label, calibrates those counts to the LF's
match total, and mixes the normalized evidence back into the mapping matrix.
Labels are then re-derived by majority vote under the refined mapping, and
the loop repeats until the labels stop changing.
"""

import numpy as np

from wsdenoise import (
    ClassifierConfig,
    SynthConfig,
    UlfConfig,
    generate,
    majority_vote,
    run_ulf,
)

# LF 0's true topic is class 0, but its mapping row says class 1.
ds, _ = generate(SynthConfig(n_samples=2000, n_classes=2, n_lfs=10,
                             coverage_target=0.87,
                             misallocated_lfs=[(0, 1)], seed=0))

baseline = majority_vote(ds, ds.t, seed=0)
base_acc = (baseline.labels == ds.gold).mean()
print(f"majority-vote accuracy before refinement: {base_acc:.3f}")
print(f"mapping row for LF 0 before: {ds.t[0].tolist()}")

cfg = UlfConfig(
    p=0.5,                    # evidence weight in the convex mixing step
    k=5,                      # folds per iteration
    strategy="by_signature",  # hold out whole LF-signature groups
    max_iters=5,
    seed=0,
    clf=ClassifierConfig(learning_rate=1e-1, seed=0),
)
res = run_ulf(ds, cfg, train_final=False)

acc = (res.final_labels.labels == ds.gold).mean()
print(f"corrected-label accuracy after refinement: {acc:.3f}")
print(f"mapping row for LF 0 after:  "
      f"{np.round(res.refined_t[0], 3).tolist()}")
print(f"iterations run: {res.iterations_run}, "
      f"label-change fractions: "
      f"{[round(d['label_change_fraction'], 4) for d in res.diagnostics]}")
