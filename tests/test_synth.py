import numpy as np
import pytest

from wsdenoise.corpus import load_dataset, save_dataset
from wsdenoise.synth import SynthConfig, generate, inject_label_noise


class TestGenerate:
    def test_deterministic(self):
        cfg = SynthConfig(n_samples=300, seed=42)
        a, ga = generate(cfg)
        b, gb = generate(cfg)
        assert a.texts == b.texts
        assert (a.z.toarray() == b.z.toarray()).all()
        assert (a.t == b.t).all()
        np.testing.assert_array_equal(ga.labels, gb.labels)

    def test_seed_changes_output(self):
        a, _ = generate(SynthConfig(n_samples=300, seed=1))
        b, _ = generate(SynthConfig(n_samples=300, seed=2))
        assert (a.z.toarray() != b.z.toarray()).any()

    def test_coverage_near_target(self):
        for target in (0.6, 0.87, 0.95):
            ds, _ = generate(SynthConfig(n_samples=2000, seed=5,
                                         coverage_target=target))
            cov = ds.matched_mask.mean()
            assert abs(cov - target) <= 0.05

    def test_perfect_precision_votes_agree_with_gold(self):
        ds, _ = generate(SynthConfig(n_samples=800, seed=6, lf_precision=1.0,
                                     coverage_target=0.9))
        votes = ds.z @ ds.t
        covered = ds.matched_mask
        # with precision 1 every firing LF points at the gold class
        pred = np.argmax(votes[covered], axis=1)
        np.testing.assert_array_equal(pred, ds.gold[covered])

    def test_empirical_lf_precision_near_target(self):
        ds, _ = generate(SynthConfig(n_samples=5000, seed=7, lf_precision=0.9,
                                     coverage_target=0.87))
        z = ds.z.toarray().astype(bool)
        true_class = np.arange(ds.n_lfs) % ds.num_classes
        for j in range(ds.n_lfs):
            hits = z[:, j]
            prec = (ds.gold[hits] == true_class[j]).mean()
            assert abs(prec - 0.9) <= 0.05

    def test_misallocation_rewires_t_only(self):
        cfg = SynthConfig(n_samples=200, seed=8, misallocated_lfs=[(0, 1)])
        ds, _ = generate(cfg)
        clean, _ = generate(SynthConfig(n_samples=200, seed=8))
        assert ds.t[0, 1] == 1.0 and ds.t[0, 0] == 0.0
        np.testing.assert_array_equal(ds.t[1:], clean.t[1:])
        assert (ds.z.toarray() == clean.z.toarray()).all()
        assert ds.texts == clean.texts

    def test_trigger_words_match_z(self):
        ds, _ = generate(SynthConfig(n_samples=300, seed=9))
        z = ds.z.toarray().astype(bool)
        for i in (0, 17, 123):
            tokens = set(ds.texts[i].split())
            for j in range(ds.n_lfs):
                assert (f"lftrig{j}" in tokens) == bool(z[i, j])

    def test_infeasible_combination_raises(self):
        with pytest.raises(ValueError, match="infeasible"):
            generate(SynthConfig(n_samples=100, n_lfs=1, coverage_target=0.99,
                                 lf_precision=1.0))

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            SynthConfig(n_samples=0)
        with pytest.raises(ValueError):
            SynthConfig(coverage_target=0.0)
        with pytest.raises(ValueError):
            SynthConfig(misallocated_lfs=[(99, 0)])
        with pytest.raises(ValueError, match="misallocated class 2 out of range"):
            SynthConfig(misallocated_lfs=[(0, 2)])
        with pytest.raises(ValueError, match="lf_precision must lie in"):
            SynthConfig(lf_precision=float("nan"))
        with pytest.raises(ValueError, match="lf_precision must lie in"):
            SynthConfig(lf_precision=0.0)
        with pytest.raises(TypeError):  # one precision for every LF; a list is rejected
            SynthConfig(lf_precision=[0.9, 0.9])
        for words_per_doc in (-1, -3):
            with pytest.raises(ValueError, match="words_per_doc must be >= 0"):
                SynthConfig(words_per_doc=words_per_doc)
        for vocab_size in (0, -10):
            with pytest.raises(ValueError, match="vocab_size must be >= 1"):
                SynthConfig(vocab_size=vocab_size)

    def test_round_trips_through_files(self, tmp_path):
        ds, gold = generate(SynthConfig(n_samples=120, seed=10))
        save_dataset(ds, tmp_path / "docs.tsv", tmp_path / "z.tsv",
                     tmp_path / "t.tsv", tmp_path / "gold.tsv")
        back = load_dataset(tmp_path / "docs.tsv", tmp_path / "z.tsv",
                            tmp_path / "t.tsv", tmp_path / "gold.tsv")
        assert back.texts == ds.texts
        assert (back.z.toarray() == ds.z.toarray()).all()
        np.testing.assert_array_equal(back.t, ds.t)
        np.testing.assert_array_equal(back.gold, ds.gold)


class TestInjectLabelNoise:
    def test_exact_flip_count(self):
        y = np.zeros(200, dtype=np.int64)
        noised, mask = inject_label_noise(y, 0.25, 2, seed=0)
        assert mask.sum() == 50
        assert (noised[mask] != 0).all()
        assert (noised[~mask] == 0).all()

    def test_flips_always_change_the_label(self, rng):
        y = rng.integers(4, size=500)
        noised, mask = inject_label_noise(y, 0.3, 4, seed=3)
        assert (noised[mask] != y[mask]).all()
        np.testing.assert_array_equal(noised[~mask], y[~mask])

    def test_rate_zero_and_one(self):
        y = np.arange(10) % 3
        same, m0 = inject_label_noise(y, 0.0, 3, seed=1)
        np.testing.assert_array_equal(same, y)
        assert not m0.any()
        allf, m1 = inject_label_noise(y, 1.0, 3, seed=1)
        assert m1.all() and (allf != y).all()

    def test_deterministic(self):
        y = np.arange(100) % 2
        a, ma = inject_label_noise(y, 0.2, 2, seed=7)
        b, mb = inject_label_noise(y, 0.2, 2, seed=7)
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(ma, mb)

    def test_bad_rate(self):
        with pytest.raises(ValueError, match="rate"):
            inject_label_noise(np.zeros(5, dtype=int), 1.5, 2)
