"""Synthetic weak-supervision datasets with known gold labels.

LFs are keyword triggers: LF j fires exactly on the documents containing its
trigger word, and the trigger's class-conditional frequency is tuned so the
empirical per-LF precision and the overall coverage land near their targets.
Documents are otherwise filled with words from the gold class's own cluster
plus a shared pool, so a TF-IDF classifier can genuinely learn the signal
the LFs exploit.  Deliberate misallocations rewire selected rows of the
LF-to-class matrix to a wrong class, creating the systematic label noise the
denoising methods are meant to repair.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from wsdenoise.corpus import LabelVector, WeakDataset


@dataclass
class SynthConfig:
    n_samples: int = 1000
    n_classes: int = 2
    n_lfs: int = 10
    lf_precision: float = 0.9            # of every LF
    coverage_target: float = 0.87
    misallocated_lfs: list = field(default_factory=list)  # (lf index, wrong class)
    vocab_size: int = 60
    words_per_doc: int = 12
    seed: int = 0

    def __post_init__(self):
        if self.n_samples < 1 or self.n_classes < 2 or self.n_lfs < 1:
            raise ValueError("n_samples, n_classes, n_lfs out of range")
        if not 0.0 < self.coverage_target <= 1.0:
            raise ValueError("coverage_target must lie in (0, 1]")
        if not 0.0 < self.lf_precision <= 1.0:
            raise ValueError("lf_precision must lie in (0, 1]")
        for lf, cls in self.misallocated_lfs:
            if not 0 <= lf < self.n_lfs:
                raise ValueError(f"misallocated LF index {lf} out of range")
            if not 0 <= cls < self.n_classes:
                raise ValueError(f"misallocated class {cls} out of range")


def generate(cfg: SynthConfig) -> tuple[WeakDataset, LabelVector]:
    """Build a dataset plus its gold labels; reproducible under the seed."""
    rng = np.random.default_rng(cfg.seed)
    n, k, l = cfg.n_samples, cfg.n_classes, cfg.n_lfs
    prec = cfg.lf_precision

    gold = rng.integers(k, size=n)
    true_class = np.arange(l) % k

    # per-LF marginal fire rate needed to hit the coverage target under
    # independence: (1 - r)^L = 1 - coverage
    r = 1.0 - (1.0 - cfg.coverage_target) ** (1.0 / l)
    q_hit = prec * r * k
    q_bg = (1.0 - prec) * r * k / (k - 1)
    if q_hit > 1.0 or q_bg > 1.0:
        raise ValueError(
            "infeasible coverage/precision combination: required trigger rates "
            f"q_hit={q_hit:.3f}, q_bg={q_bg:.3f} exceed 1"
        )

    own = true_class[None, :] == gold[:, None]           # (N, L)
    fire_p = np.where(own, q_hit, q_bg)
    fires = rng.random((n, l)) < fire_p
    z = sp.csr_array(fires.astype(np.int8))

    assigned = true_class.copy()
    for lf, wrong in cfg.misallocated_lfs:
        assigned[lf] = wrong
    t = np.zeros((l, k))
    t[np.arange(l), assigned] = 1.0

    # word pools: one cluster per class plus a shared pool
    shared_size = max(1, cfg.vocab_size // (k + 1))
    cluster_size = max(1, (cfg.vocab_size - shared_size) // k)
    shared = [f"common{m}" for m in range(shared_size)]
    clusters = [[f"w{c}x{m}" for m in range(cluster_size)] for c in range(k)]
    triggers = [f"lftrig{j}" for j in range(l)]

    texts = []
    for i in range(n):
        words = [triggers[j] for j in np.flatnonzero(fires[i])]
        cluster = clusters[gold[i]]
        for _ in range(cfg.words_per_doc):
            if rng.random() < 0.8:
                words.append(cluster[rng.integers(len(cluster))])
            else:
                words.append(shared[rng.integers(len(shared))])
        texts.append(" ".join(words))

    ds = WeakDataset(
        texts=texts,
        ids=[str(i) for i in range(n)],
        z=z,
        t=t,
        num_classes=k,
        gold=gold.astype(np.int64),
    )
    return ds, LabelVector(gold.astype(np.int64))


def inject_label_noise(labels: np.ndarray, rate: float, num_classes: int,
                       seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Flip round(rate * N) labels to a different uniformly chosen class.

    Returns the noised labels and the boolean flip mask (the oracle for
    noise-detection tests).
    """
    if not 0.0 <= rate <= 1.0:
        raise ValueError("rate must lie in [0, 1]")
    y = np.asarray(labels, dtype=np.int64).copy()
    n = len(y)
    rng = np.random.default_rng(seed)
    count = int(round(rate * n))
    idx = rng.choice(n, size=count, replace=False)
    y[idx] = (y[idx] + rng.integers(1, num_classes, size=count)) % num_classes
    mask = np.zeros(n, dtype=bool)
    mask[idx] = True
    return y, mask
