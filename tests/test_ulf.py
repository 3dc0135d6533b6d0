import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wsdenoise.confidence import (
    NO_LABEL,
    calibrate_rows,
    class_thresholds,
    confident_labels,
)
from wsdenoise.corpus import LabelVector, majority_vote
from wsdenoise.crossval import plan_random, estimate_oos
from wsdenoise.featurize import FeaturizeConfig
from wsdenoise.linear import ClassifierConfig
from wsdenoise.ulf import (
    UlfConfig,
    calibrate,
    lf_confident_matrix,
    refine_t,
    relabel_unmatched,
    run_ulf,
)
from wsdenoise.synth import SynthConfig, generate

from conftest import broken_stub, echo_stub, make_dataset, random_instance
from reference import ref_ulf


class TestLfConfidentMatrix:
    def test_no_confident_labels(self):
        ds = make_dataset([[1, 0], [0, 1]], np.eye(2))
        cm = lf_confident_matrix(ds, np.array([NO_LABEL, NO_LABEL]))
        assert not cm.any()

    def test_multi_lf_sample_counts_per_lf(self):
        ds = make_dataset([[1, 1]], np.eye(2))
        cm = lf_confident_matrix(ds, np.array([1]))
        assert cm[0, 1] == 1 and cm[1, 1] == 1
        assert cm.sum() == 2

    def test_brute_force_oracle(self, rng):
        for _ in range(20):
            ds = random_instance(rng)
            labels = rng.integers(-1, ds.num_classes, size=ds.n_samples)
            cm = lf_confident_matrix(ds, labels)
            zd = ds.z.toarray()
            expect = np.zeros((ds.n_lfs, ds.num_classes), dtype=int)
            for i in range(ds.n_samples):
                if labels[i] == NO_LABEL:
                    continue
                for l in range(ds.n_lfs):
                    if zd[i, l]:
                        expect[l, labels[i]] += 1
            np.testing.assert_array_equal(cm, expect)


class TestCalibrate:
    def _ds_with_matches(self, matches):
        # one sample per match so that z column sums equal `matches`
        n = int(sum(matches))
        z = np.zeros((n, len(matches)))
        row = 0
        for j, m in enumerate(matches):
            for _ in range(m):
                z[row, j] = 1
                row += 1
        return make_dataset(z, np.eye(2)[np.arange(len(matches)) % 2])

    def test_hand_scaling(self):
        ds = self._ds_with_matches([10])
        q = calibrate(np.array([[6, 2]]), ds)
        np.testing.assert_allclose(q[0], [7.5, 2.5])

    def test_zero_row_is_uninformative(self):
        ds = self._ds_with_matches([4])
        q = calibrate(np.array([[0, 0]]), ds)
        assert not q[0].any()
        assert (refine_t(ds.t, q, 1.0) == ds.t).all()  # refine_t leaves the row alone

    def test_already_calibrated(self):
        ds = self._ds_with_matches([4])
        q = calibrate(np.array([[4, 0]]), ds)
        np.testing.assert_allclose(q[0], [4, 0])

    def test_row_totals_match_z(self, rng):
        for _ in range(10):
            ds = random_instance(rng)
            labels = rng.integers(-1, ds.num_classes, size=ds.n_samples)
            c = lf_confident_matrix(ds, labels)
            q = calibrate(c, ds)
            matches = np.asarray(ds.z.sum(axis=0)).ravel()
            for l in np.flatnonzero(c.sum(axis=1) > 0):
                assert abs(q[l].sum() - matches[l]) < 1e-9


class TestRefineT:
    @pytest.mark.parametrize("p", [-0.1, 1.5, float("nan")])
    def test_p_outside_the_unit_interval_rejected(self, p):
        with pytest.raises(ValueError, match=r"p must lie in \[0, 1\]"):
            refine_t(np.eye(2), np.eye(2), p)

    def test_p_zero_is_identity(self):
        t = np.array([[1.0, 0.0], [0.0, 1.0]])
        out = refine_t(t, np.array([[7.5, 2.5], [1.0, 3.0]]), 0.0)
        assert (out == t).all()

    def test_p_one_is_normalized_evidence(self):
        t = np.array([[1.0, 0.0]])
        np.testing.assert_allclose(refine_t(t, np.array([[7.5, 2.5]]), 1.0)[0], [0.75, 0.25])

    def test_hand_convex_combination(self):
        t = np.array([[1.0, 0.0]])
        np.testing.assert_allclose(refine_t(t, np.array([[6.0, 4.0]]), 0.5)[0], [0.8, 0.2])

    def test_uninformative_rows_unchanged(self):
        t = np.array([[0.3, 0.7]])
        assert (refine_t(t, np.zeros((1, 2)), 0.9) == t).all()

    def test_rows_sum_to_one_and_affine_in_p(self, rng):
        t = rng.dirichlet(np.ones(3), size=4)
        q = rng.uniform(0.1, 5.0, size=(4, 3))
        outs = {p: refine_t(t, q, p) for p in (0.0, 0.25, 0.5, 1.0)}
        for p, out in outs.items():
            np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-9)
            assert (out >= 0).all() and (out <= 1).all()
        mid = 0.5 * outs[0.0] + 0.5 * outs[1.0]
        np.testing.assert_allclose(outs[0.5], mid, atol=1e-12)

    def test_equals_the_row_by_row_mix_bitwise(self, rng):
        for _ in range(200):
            n_lfs, k = int(rng.integers(1, 20)), int(rng.integers(2, 14))
            counts = rng.integers(0, 40, size=(n_lfs, k)) * (rng.random((n_lfs, k)) < 0.6)
            counts[rng.random(n_lfs) < 0.3] = 0
            q = calibrate_rows(counts, rng.integers(1, 400, size=n_lfs).astype(float))
            t = rng.dirichlet(np.ones(k), size=n_lfs)
            p = float(rng.choice([0.0, 1.0, rng.random()]))
            expected = t.copy()
            for l in np.flatnonzero(q.sum(axis=1) > 0):
                expected[l] = p * (q[l] / q[l].sum()) + (1.0 - p) * t[l]
            assert refine_t(t, q, p).tobytes() == expected.tobytes()


class TestRelabelUnmatched:
    def test_adopts_confident_label(self):
        conf = confident_labels(np.array([[0.9, 0.1]]), np.array([0.8, 0.5]))
        cur = LabelVector(np.array([1]))
        out = relabel_unmatched(conf, np.array([True]), cur)
        assert out.labels[0] == 0

    def test_keeps_prior_label_when_unconfident(self):
        conf = confident_labels(np.array([[0.5, 0.5]]), np.array([0.8, 0.6]))
        cur = LabelVector(np.array([1]))
        out = relabel_unmatched(conf, np.array([True]), cur)
        assert out.labels[0] == 1

    def test_matched_samples_untouched(self):
        conf = confident_labels(np.array([[0.9, 0.1], [0.1, 0.9]]), np.array([0.5, 0.5]))
        cur = LabelVector(np.array([1, 0]))
        out = relabel_unmatched(conf, np.array([False, True]), cur)
        assert out.labels[0] == 1 and out.labels[1] == 1

    def test_unmatched_recover_gold_on_clean_data(self):
        ds, _ = generate(SynthConfig(n_samples=600, seed=4, lf_precision=1.0,
                                     coverage_target=0.6))
        labels = majority_vote(ds, ds.t, 4)
        plan = plan_random(ds, k=3, lambda_rate=0.0, seed=4)
        oos = estimate_oos(ds, labels, plan,
                           clf_cfg=ClassifierConfig(learning_rate=1e-1, seed=4))
        conf = confident_labels(oos.probs, class_thresholds(oos.probs, labels))
        out = relabel_unmatched(conf, ~ds.matched_mask, labels)
        unm = ~ds.matched_mask
        assert (out.labels[unm] == ds.gold[unm]).mean() >= 0.8


class TestUlfConfig:
    @pytest.mark.parametrize("key, value, match", [
        ("lambda_rate", float("nan"), "lambda_rate must be nonnegative"),
        ("strategy", "bogus", "strategy must be one of"),
    ])
    def test_rejects_bad_value(self, key, value, match):
        # rejected at construction, not at the first iteration's plan
        with pytest.raises(ValueError, match=match):
            UlfConfig(**{key: value})


class TestRunUlf:
    def test_identity_configuration(self, fold_model):
        fold_model(echo_stub)
        ds, _ = generate(SynthConfig(n_samples=300, seed=6, coverage_target=0.7))
        cfg = UlfConfig(p=0.0, lambda_rate=0.0, max_iters=1, k=4, seed=21,
                        strategy="by_signature")
        res = run_ulf(ds, cfg, train_final=False)
        baseline = majority_vote(ds, ds.t, 21)
        np.testing.assert_array_equal(res.final_labels.labels, baseline.labels)
        assert (res.refined_t == ds.t).all()

    def test_misallocated_lf_is_repaired(self):
        ds, _ = generate(SynthConfig(n_samples=800, seed=7, coverage_target=0.87,
                                     misallocated_lfs=[(0, 1)]))
        baseline = majority_vote(ds, ds.t, 7)
        base_acc = (baseline.labels == ds.gold).mean()
        cfg = UlfConfig(p=0.5, k=5, strategy="by_signature", max_iters=3, seed=7,
                        clf=ClassifierConfig(learning_rate=1e-1, seed=7))
        res = run_ulf(ds, cfg, train_final=False)
        # the rewired LF's row moves mass back toward its true class 0
        assert res.refined_t[0, 0] > ds.t[0, 0]
        acc = (res.final_labels.labels == ds.gold).mean()
        assert acc > base_acc

    def test_clean_dataset_stays_stable(self):
        ds, _ = generate(SynthConfig(n_samples=500, seed=8, lf_precision=1.0,
                                     coverage_target=0.9))
        cfg = UlfConfig(p=0.3, k=4, strategy="by_signature", max_iters=6,
                        stall_patience=3, seed=8,
                        clf=ClassifierConfig(learning_rate=1e-1, seed=8))
        res = run_ulf(ds, cfg, train_final=False)
        assert res.diagnostics[-1]["label_change_fraction"] == 0.0
        assert np.abs(res.refined_t - ds.t).max() <= 0.15

    def test_deterministic(self):
        ds, _ = generate(SynthConfig(n_samples=200, seed=9, coverage_target=0.8))
        cfg = UlfConfig(p=0.4, k=3, strategy="random", max_iters=2, seed=9,
                        clf=ClassifierConfig(epochs=3, seed=9))
        a = run_ulf(ds, cfg, train_final=False)
        b = run_ulf(ds, cfg, train_final=False)
        assert (a.final_labels.labels == b.final_labels.labels).all()
        assert (a.refined_t == b.refined_t).all()

    def test_iterations_run_counts_the_passes_up_to_a_stall_stop(self):
        ds, _ = generate(SynthConfig(n_samples=200, seed=8, lf_precision=1.0,
                                     coverage_target=0.9))
        cfg = UlfConfig(p=0.3, k=3, max_iters=10, stall_patience=1, seed=8,
                        clf=ClassifierConfig(epochs=3, seed=8))
        res = run_ulf(ds, cfg, train_final=False)
        assert res.diagnostics[-1]["label_change_fraction"] == 0.0
        assert res.iterations_run == len(res.diagnostics) < cfg.max_iters

    def test_errors_carry_iteration_index(self, fold_model):
        fold_model(broken_stub)
        ds, _ = generate(SynthConfig(n_samples=100, seed=10, coverage_target=0.8))
        cfg = UlfConfig(k=3, max_iters=2, seed=0, strategy="random")
        with pytest.raises(RuntimeError, match="iteration 1"):
            run_ulf(ds, cfg, train_final=False)


class TestAgainstReference:
    """``run_ulf`` equals ``reference.ref_ulf``, the LF-by-LF loop, bit for bit."""

    @settings(max_examples=50, deadline=None)
    @given(n=st.integers(20, 80), num_classes=st.integers(2, 3), k=st.integers(2, 4),
           strategy=st.sampled_from(["random", "by_lf", "by_signature"]),
           lambda_rate=st.sampled_from([0.0, 0.5]), p=st.sampled_from([0.0, 0.4, 1.0]),
           max_iters=st.integers(1, 4), stall_patience=st.integers(1, 2),
           rewired=st.booleans(), words=st.integers(0, 20), min_df=st.integers(1, 2),
           epochs=st.integers(1, 3), batch_size=st.sampled_from([4, 32]),
           lr=st.sampled_from([0.05, 0.5, 50.0]), l2=st.sampled_from([0.0, 1e-3, 1.0]),
           seed=st.integers(0, 2**16))
    def test_run_ulf_equals_the_loop(self, n, num_classes, k, strategy, lambda_rate, p,
                                     max_iters, stall_patience, rewired, words, min_df,
                                     epochs, batch_size, lr, l2, seed):
        ds, _ = generate(SynthConfig(n_samples=n, n_classes=num_classes, n_lfs=6,
                                     misallocated_lfs=[(0, 1)] if rewired else [],
                                     words_per_doc=words, seed=seed))
        cfg = UlfConfig(k=k, strategy=strategy, lambda_rate=lambda_rate, p=p,
                        max_iters=max_iters, stall_patience=stall_patience, seed=seed,
                        clf=ClassifierConfig(learning_rate=lr, epochs=epochs,
                                             batch_size=batch_size, l2=l2, seed=seed),
                        feat=FeaturizeConfig(min_df=min_df))
        try:
            labels, t_hat = ref_ulf(ds, cfg)
        except (ValueError, RuntimeError) as exc:
            with pytest.raises(type(exc)) as info:
                run_ulf(ds, cfg, train_final=False)
            assert str(info.value) == str(exc)
            return
        res = run_ulf(ds, cfg, train_final=False)
        assert res.final_labels.labels.tobytes() == labels.tobytes()
        assert res.refined_t.tobytes() == t_hat.tobytes()
