"""Synthetic weak-supervision datasets with known gold labels.

LFs are keyword triggers: LF j fires exactly on the documents containing its
trigger word, and the trigger's class-conditional frequency is tuned so the
empirical per-LF precision and the overall coverage land near their targets.
Documents are otherwise filled with words from the gold class's own cluster
plus a shared pool, so a TF-IDF classifier can genuinely learn the signal
the LFs exploit.  Deliberate misallocations rewire selected rows of the
LF-to-class matrix to a wrong class, creating the systematic label noise the
denoising methods are meant to repair.

Draw order.  ``generate`` seeds one PCG64 ``default_rng`` and draws, in this
order: the gold labels (``integers(K, size=N)``), the LF fire matrix
(``random((N, L))``), then, document by document and word by word,
``random()`` to pick the gold cluster (below 0.8) or the shared pool, and
``integers(pool size)`` for the word within it.  ``random()`` takes one
64-bit output ``u`` and returns ``(u >> 11) * 2**-53``.  ``integers(n)``
takes a 32-bit half through the bit generator's one-slot buffer (the low half
of a fresh output, keeping the high half for the next call) and returns
Lemire's ``(half * n) >> 32``; it redraws when ``(half * n) mod 2**32 <
(2**32 - n) mod n``, and ``integers(1)`` draws nothing.  The words are drawn
in blocks of whole documents, about ``_BLOCK_WORDS`` words each, from
``random_raw`` outputs with numpy, reproducing that order bit for bit and
leaving the buffer as the scalar calls would.  A block that holds a redraw,
or whose pools include one of a single word (or of more than 2**32), is drawn
again from its starting state by the scalar calls themselves.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from wsdenoise.corpus import LabelVector, WeakDataset

_BLOCK_WORDS = 2**14


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
        if self.words_per_doc < 0:
            raise ValueError("words_per_doc must be >= 0")
        if self.vocab_size < 1:
            raise ValueError("vocab_size must be >= 1")
        if not 0.0 < self.coverage_target <= 1.0:
            raise ValueError("coverage_target must lie in (0, 1]")
        if not 0.0 < self.lf_precision <= 1.0:
            raise ValueError("lf_precision must lie in (0, 1]")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
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
    # class c's cluster at c * cluster_size, then the shared pool
    pool_words = np.array([f"w{c}x{m}" for c in range(k) for m in range(cluster_size)]
                          + [f"common{m}" for m in range(shared_size)], dtype=object)
    # each document's trigger words, from Z's rows: their indices ascend, as flatnonzero's do
    heads = np.array([f"lftrig{j}" for j in range(l)], dtype=object)[z.indices].tolist()
    head_ends = z.indptr.tolist()
    wpd = cfg.words_per_doc
    docs_per_block = max(1, _BLOCK_WORDS // max(wpd, 1))
    texts = []
    for lo in range(0, n, docs_per_block):
        hi = min(lo + docs_per_block, n)
        from_cluster, index = _draw_words(rng, (hi - lo) * wpd, cluster_size, shared_size)
        start = np.where(from_cluster, np.repeat(gold[lo:hi], wpd) * cluster_size,
                         k * cluster_size)
        words = pool_words[start + index].reshape(hi - lo, wpd)
        for i, row in zip(range(lo, hi), words.tolist()):
            texts.append(" ".join(heads[head_ends[i]:head_ends[i + 1]] + row))

    ds = WeakDataset(
        texts=texts,
        ids=[str(i) for i in range(n)],
        z=z,
        t=t,
        num_classes=k,
        gold=gold.astype(np.int64),
    )
    return ds, LabelVector(gold.astype(np.int64))


def _draw_words(rng, count: int, n_cluster: int, n_shared: int):
    """Draw ``count`` words as the scalar loop does: per word ``random() < 0.8``, then
    ``integers(n_cluster)`` if it holds, else ``integers(n_shared)``.

    Returns the boolean ``from_cluster`` and the int64 index of each word in
    its pool, and leaves ``rng`` in the state the scalar calls leave it.
    """
    bg = rng.bit_generator
    snapshot = bg.state
    if count and min(n_cluster, n_shared) > 1 and max(n_cluster, n_shared) <= 2**32:
        # A half left in the buffer serves the first word.  The rest take
        # theirs in pairs from one output: the first of a pair its low half,
        # drawn right after its double, the second its high half.
        buffered = snapshot["has_uint32"]
        rest = count - buffered
        raw = bg.random_raw(count + (rest + 1) // 2)
        j = np.arange(rest)
        pair_output = buffered + 3 * (j // 2) + 1
        second = (j & 1).astype(bool)
        doubles = raw[np.concatenate([np.zeros(buffered, np.int64), pair_output - 1 + 2 * second])]
        halves = raw[pair_output]
        halves = np.concatenate([np.full(buffered, snapshot["uinteger"], np.uint64),
                                 np.where(second, halves >> 32, halves & 0xFFFFFFFF)])
        from_cluster = (doubles >> 11) * 2.0**-53 < 0.8
        pool = np.where(from_cluster, np.uint64(n_cluster), np.uint64(n_shared))
        scaled = halves * pool
        redraw_below = np.where(from_cluster, np.uint64((2**32 - n_cluster) % n_cluster),
                                np.uint64((2**32 - n_shared) % n_shared))
        if not ((scaled & 0xFFFFFFFF) < redraw_below).any():
            state = bg.state
            state["has_uint32"] = rest & 1
            if rest:
                state["uinteger"] = int(raw[pair_output[-1]] >> 32)
            bg.state = state
            return from_cluster, (scaled >> 32).astype(np.int64)
        bg.state = snapshot
    from_cluster = np.empty(count, dtype=bool)
    index = np.empty(count, dtype=np.int64)
    for w in range(count):
        from_cluster[w] = rng.random() < 0.8
        index[w] = rng.integers(n_cluster if from_cluster[w] else n_shared)
    return from_cluster, index


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
