"""Build a synthetic weakly labeled corpus and look at its basic statistics.

Labeling functions (LFs) are keyword triggers: each one fires on the
documents containing its trigger word and votes for a single class.  The
generator knows the gold labels, so we can measure exactly how good the
plain majority vote over LF votes is before any denoising.
"""

import numpy as np

from wsdenoise import SynthConfig, dataset_stats, generate, majority_vote

# A two-class corpus of 1000 documents covered by 10 LFs.  LF 0 is
# deliberately rewired to vote for the wrong class: a systematic labeling
# mistake, exactly the kind of noise the denoising methods target.
cfg = SynthConfig(n_samples=1000, n_classes=2, n_lfs=10,
                  coverage_target=0.87, misallocated_lfs=[(0, 1)], seed=0)
ds, gold = generate(cfg)

# With gold, the report holds the vote's exact mean accuracy and its spread
# over tie-break seeds.
stats = dataset_stats(ds)
print(f"samples:          {ds.n_samples}")
print(f"labeling funcs:   {ds.n_lfs}")
print(f"classes:          {ds.num_classes}")
print(f"coverage:         {stats['coverage']:.3f}  (fraction matched by >= 1 LF)")
print(f"avg LF hits:      {stats['avg_lf_hits']:.2f} per sample")
print(f"majority vote:    {stats['majority_accuracy_mean']:.3f} "
      f"+/- {stats['majority_accuracy_std']:.3f} accuracy vs gold")

# The majority vote assigns each sample the class with the largest summed
# LF vote; ties and uncovered samples are resolved from a seeded stream,
# so the result is reproducible.
labels = majority_vote(ds, ds.t, seed=0)
per_class = np.bincount(labels.labels, minlength=ds.num_classes)
print(f"label balance:    {per_class.tolist()}")
print(f"unmatched:        {int((~ds.matched_mask).sum())} samples got a random class")
