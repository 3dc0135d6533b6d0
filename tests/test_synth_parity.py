"""Frozen synthetic datasets: ``generate`` must reproduce the recorded digests.

``tests/data/synth_digests.json`` maps each case to a SHA-256 digest of the
texts, Z, T and gold that ``generate`` builds: the three benchmark shapes
(five short-document datasets, long documents over 2000 terms, the grid
training set), a shape whose word pools hold one word each, and an odd-N
shape with K=5 and one word per document, each at a small seed and at one
above 2**63.  Regenerate the file only when a change to the datasets is
intended:

    PYTHONPATH=src python tests/test_synth_parity.py

Two more tests hold the block draw to the scalar calls it replaces: random
configs must build what ``reference.ref_generate``, the per-word loop, builds,
and ``_draw_words`` must return what the scalar loop returns and leave the
generator in the same state, also for pools above 2**31, where blocks hold
redraws and fall back to that loop.
"""

import hashlib
import json
import os

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wsdenoise.synth import SynthConfig, _draw_words, generate

from reference import ref_generate

FIXTURE = os.path.join(os.path.dirname(__file__), "data", "synth_digests.json")

SHAPES = {
    "ulf_short": dict(n_samples=2000, n_classes=2, n_lfs=10, coverage_target=0.87,
                      misallocated_lfs=[(0, 1)]),
    "wscl_longdoc": dict(n_samples=4000, n_classes=4, n_lfs=12, coverage_target=0.87,
                         misallocated_lfs=[(0, 1), (5, 2)], vocab_size=2000,
                         words_per_doc=300),
    "grid_train": dict(n_samples=8000, n_classes=2, n_lfs=10, coverage_target=0.87,
                       misallocated_lfs=[(0, 1)]),
    "one_word_pools": dict(n_samples=301, n_classes=2, vocab_size=4, words_per_doc=5),
    "odd_k5_one_word": dict(n_samples=333, n_classes=5, words_per_doc=1),
}
SEEDS = (3, 2**63 + 2021)


def dataset_digest(ds) -> str:
    """SHA-256 of a dataset's texts, Z (CSR arrays with dtypes), T and gold."""
    h = hashlib.sha256()
    h.update("\n".join(ds.texts).encode())
    z = ds.z.tocsr()
    for a in (z.data, z.indices, z.indptr, ds.t, ds.gold):
        h.update(f"|{a.dtype}{a.shape}|".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def synth_digests() -> dict:
    return {f"{name}/s{seed}": dataset_digest(generate(SynthConfig(**shape, seed=seed))[0])
            for name, shape in SHAPES.items() for seed in SEEDS}


def test_datasets_match_frozen_digests():
    with open(FIXTURE, encoding="utf-8") as f:
        frozen = json.load(f)
    got = synth_digests()
    assert got.keys() == frozen.keys()
    diff = [key for key in frozen if got[key] != frozen[key]]
    assert not diff, f"{len(diff)} datasets changed, first: {diff[0]}"


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 40), k=st.integers(2, 5),
       vocab=st.one_of(st.integers(1, 12), st.integers(1, 2500)),
       wpd=st.integers(0, 300), seed=st.integers(0, 2**64 - 1))
@example(n=150, k=4, vocab=2000, wpd=300, seed=2**64 - 1)  # three blocks
@example(n=7, k=2, vocab=1, wpd=9, seed=5)                  # one-word pools
@example(n=8, k=2, vocab=5, wpd=9, seed=5)                  # a one-word shared pool only
@example(n=5, k=3, vocab=1, wpd=0, seed=1)                  # the smallest word settings
def test_generate_matches_the_per_word_loop(n, k, vocab, wpd, seed):
    cfg = SynthConfig(n_samples=n, n_classes=k, vocab_size=vocab, words_per_doc=wpd,
                      seed=seed)
    got, want = generate(cfg)[0], ref_generate(cfg)[0]
    assert got.texts == want.texts
    assert dataset_digest(got) == dataset_digest(want)


def _scalar_words(rng, count, n_cluster, n_shared):
    from_cluster, index = [], []
    for _ in range(count):
        from_cluster.append(rng.random() < 0.8)
        index.append(rng.integers(n_cluster if from_cluster[-1] else n_shared))
    return np.array(from_cluster, dtype=bool), np.array(index, dtype=np.int64)


POOL = st.one_of(st.integers(1, 50), st.integers(2**31, 2**33))


@settings(max_examples=60, deadline=None)
@given(prior=st.integers(0, 5), count=st.integers(0, 2000), n_cluster=POOL, n_shared=POOL,
       seed=st.integers(0, 2**64 - 1))
@example(prior=1, count=1, n_cluster=3, n_shared=2, seed=0)
@example(prior=0, count=2000, n_cluster=2**32, n_shared=2**32 - 1, seed=1)
@example(prior=3, count=2000, n_cluster=3 * 2**30, n_shared=7, seed=2)  # redraws
def test_draw_words_matches_the_scalar_loop(prior, count, n_cluster, n_shared, seed):
    got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for rng in (got_rng, want_rng):
        rng.integers(7, size=prior)  # an odd count leaves a half in the buffer
    got = _draw_words(got_rng, count, n_cluster, n_shared)
    want = _scalar_words(want_rng, count, n_cluster, n_shared)
    np.testing.assert_array_equal(got[0], want[0])
    np.testing.assert_array_equal(got[1], want[1])
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


def test_block_draw_makes_no_scalar_calls():
    class NoScalarCalls:
        def __init__(self, buffered):
            self.bit_generator = np.random.default_rng(11).bit_generator
            self.bit_generator.state = {**self.bit_generator.state, "has_uint32": buffered,
                                        "uinteger": 0x9E3779B9}

        def random(self, *args):
            raise AssertionError("a scalar draw was made")

        integers = random

    for buffered in (0, 1):
        from_cluster, index = _draw_words(NoScalarCalls(buffered), 2**14, 500, 400)
        assert 0.75 < from_cluster.mean() < 0.85
        assert index[from_cluster].max() == 499 and index[~from_cluster].max() == 399


if __name__ == "__main__":
    os.makedirs(os.path.dirname(FIXTURE), exist_ok=True)
    with open(FIXTURE, "w", encoding="utf-8") as f:
        json.dump(synth_digests(), f, indent=0, sort_keys=True)
        f.write("\n")
