from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wsdenoise.corpus import LabelVector, majority_vote
from wsdenoise.featurize import FeaturizeConfig
from wsdenoise.linear import ClassifierConfig
from wsdenoise.pipeline import train_text_model
from wsdenoise.synth import SynthConfig, generate, inject_label_noise
from wsdenoise.wscw import WscwConfig, run_wscw

from conftest import echo_stub, gold_stub
from reference import ref_wscw


class TestWscwConfig:
    def test_plans_are_by_lf_without_unmatched_samples_and_cannot_be_changed(self):
        cfg = WscwConfig()
        assert (cfg.strategy, cfg.lambda_rate) == ("by_lf", 0.0)
        with pytest.raises(TypeError, match="strategy"):
            WscwConfig(strategy="random")
        with pytest.raises(ValueError, match="lambda_rate"):
            replace(cfg, lambda_rate=0.5)


class TestRunWscw:
    def test_echo_stub_never_flags(self, fold_model):
        fold_model(echo_stub)
        ds, _ = generate(SynthConfig(n_samples=200, seed=1, coverage_target=0.8))
        cfg = WscwConfig(k=4, partitions=2, seed=1)
        weights, _ = run_wscw(ds, cfg, train_final=False)
        assert (weights.w == 1.0).all()
        assert not weights.flags.any()

    def test_weight_formula(self, fold_model):
        ds, _ = generate(SynthConfig(n_samples=200, seed=2, coverage_target=0.8))
        noisy = majority_vote(ds, ds.t, 2)

        def contrarian(ds_, tr, y, te):
            p = np.zeros((len(te), ds_.num_classes))
            p[np.arange(len(te)), (y[te] + 1) % ds_.num_classes] = 1.0
            return p

        fold_model(contrarian)
        cfg = WscwConfig(k=4, partitions=2, epsilon=0.7, seed=2)
        weights, _ = run_wscw(ds, cfg, train_final=False)
        matched = ds.matched_mask
        assert np.allclose(weights.w[matched], 0.49)
        assert (weights.flags[matched] == 2).all()
        # unmatched samples are never flagged
        assert (weights.w[~matched] == 1.0).all()

    def test_weights_bounded_and_flag_consistent(self):
        ds, _ = generate(SynthConfig(n_samples=300, seed=3, coverage_target=0.85))
        cfg = WscwConfig(k=4, partitions=2, epsilon=0.7, seed=3,
                         clf=ClassifierConfig(epochs=4, seed=3))
        weights, _ = run_wscw(ds, cfg, train_final=False)
        assert (weights.w >= 0.7 ** 2 - 1e-12).all() and (weights.w <= 1.0).all()
        np.testing.assert_allclose(weights.w, 0.7 ** weights.flags.astype(float))

    def test_flag_precision_on_injected_noise(self, fold_model):
        fold_model(gold_stub)
        ds, _ = generate(SynthConfig(n_samples=800, seed=4, lf_precision=1.0,
                                     coverage_target=0.95))
        noisy = majority_vote(ds, ds.t, 4)
        flipped, flip_mask = inject_label_noise(ds.gold, 0.10, ds.num_classes, seed=4)
        cfg = WscwConfig(k=4, partitions=2, seed=4)
        weights, _ = run_wscw(ds, cfg, train_final=False, noisy=LabelVector(flipped))
        flagged = weights.flags > 0
        matched = ds.matched_mask
        precision = flip_mask[flagged & matched].mean()
        assert precision >= 2 * 0.10

    def test_epsilon_one_matches_plain_baseline(self):
        ds, _ = generate(SynthConfig(n_samples=250, seed=5, coverage_target=0.85))
        clf = ClassifierConfig(epochs=5, seed=5)
        cfg = WscwConfig(k=4, partitions=1, epsilon=1.0, seed=5, clf=clf)
        _, model = run_wscw(ds, cfg)
        noisy = majority_vote(ds, ds.t, 5)
        baseline = train_text_model(ds, noisy.labels, clf_cfg=clf)
        assert (model.model.weights == baseline.model.weights).all()
        assert (model.model.bias == baseline.model.bias).all()

    def test_deterministic(self):
        ds, _ = generate(SynthConfig(n_samples=200, seed=6, coverage_target=0.85))
        cfg = WscwConfig(k=3, partitions=2, seed=6, clf=ClassifierConfig(epochs=3, seed=6))
        w1, _ = run_wscw(ds, cfg, train_final=False)
        w2, _ = run_wscw(ds, cfg, train_final=False)
        assert (w1.flags == w2.flags).all()


class TestAgainstReference:
    """``run_wscw`` equals ``reference.ref_wscw``, the sample-by-sample loop, bit for bit."""

    @settings(max_examples=50, deadline=None)
    @given(n=st.integers(20, 80), num_classes=st.integers(2, 3), k=st.integers(2, 4),
           partitions=st.integers(1, 2), epsilon=st.sampled_from([0.3, 0.7, 1.0]),
           rewired=st.booleans(), words=st.integers(0, 20), min_df=st.integers(1, 2),
           epochs=st.integers(1, 3), batch_size=st.sampled_from([4, 32]),
           lr=st.sampled_from([0.05, 0.5, 50.0]), l2=st.sampled_from([0.0, 1e-3, 1.0]),
           seed=st.integers(0, 2**16))
    def test_run_wscw_equals_the_loop(self, n, num_classes, k, partitions, epsilon, rewired,
                                      words, min_df, epochs, batch_size, lr, l2, seed):
        ds, _ = generate(SynthConfig(n_samples=n, n_classes=num_classes, n_lfs=6,
                                     misallocated_lfs=[(0, 1)] if rewired else [],
                                     words_per_doc=words, seed=seed))
        cfg = WscwConfig(k=k, partitions=partitions, epsilon=epsilon, seed=seed,
                         clf=ClassifierConfig(learning_rate=lr, epochs=epochs,
                                              batch_size=batch_size, l2=l2, seed=seed),
                         feat=FeaturizeConfig(min_df=min_df))
        try:
            w, flags = ref_wscw(ds, cfg)
        except (ValueError, RuntimeError) as exc:
            with pytest.raises(type(exc)) as info:
                run_wscw(ds, cfg, train_final=False)
            assert str(info.value) == str(exc)
            return
        weights, _ = run_wscw(ds, cfg, train_final=False)
        assert weights.w.tobytes() == w.tobytes()
        assert weights.flags.tobytes() == flags.tobytes()
