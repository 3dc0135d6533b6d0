"""Two sample-level alternatives to mapping refinement.

* ``wscw`` keeps every sample but downweights the ones whose out-of-sample
  prediction repeatedly disagrees with their weak label (weight =
  epsilon ** number-of-disagreements).
* ``wscl`` estimates a class-to-class confident joint, converts its
  off-diagonal mass into per-cell prune budgets, and drops the most
  suspicious samples entirely.

Here we inject 15% random label flips into an otherwise clean corpus and
check how well each method's suspicion aligns with the true flips.
"""

import numpy as np

from wsdenoise import (
    ClassifierConfig,
    LabelVector,
    SynthConfig,
    WsclConfig,
    WscwConfig,
    generate,
    inject_label_noise,
    run_wscl,
    run_wscw,
)

ds, _ = generate(SynthConfig(n_samples=800, seed=1, lf_precision=1.0,
                             coverage_target=0.95))
flipped, flip_mask = inject_label_noise(ds.gold, 0.15, ds.num_classes, seed=1)
noisy = LabelVector(flipped)
print(f"injected flips: {int(flip_mask.sum())} of {ds.n_samples} labels")

clf = ClassifierConfig(learning_rate=1e-1, seed=1)

# --- downweighting -----------------------------------------------------
wcfg = WscwConfig(k=4, partitions=2, epsilon=0.7, seed=1, clf=clf)
weights, _ = run_wscw(ds, wcfg, train_final=False, noisy=noisy)
flagged = weights.flags > 0
precision = flip_mask[flagged].mean()
print(f"\nwscw flagged {int(flagged.sum())} samples; "
      f"{precision:.0%} of them are true flips (base rate 15%)")
print(f"weight histogram: "
      f"{dict(zip(*map(list, np.unique(np.round(weights.w, 2), return_counts=True))))}")

# --- pruning ------------------------------------------------------------
pcfg = WsclConfig(k=4, strategy="by_signature", seed=1, clf=clf)
res = run_wscl(ds, pcfg, train_final=False, noisy=noisy)
pruned = ~res.keep_mask
precision = flip_mask[pruned].mean()
recall = pruned[flip_mask].mean()
print(f"\nwscl pruned {int(pruned.sum())} samples; "
      f"precision {precision:.0%}, recall {recall:.0%} against true flips")
print("confident joint (rows = weak label, cols = confident label):")
print(np.array(res.prune_report["confident_joint"]))
