import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from wsdenoise.confidence import NO_LABEL
from wsdenoise.corpus import LabelVector, majority_vote
from wsdenoise.featurize import FeaturizeConfig
from wsdenoise.linear import ClassifierConfig
from wsdenoise.synth import SynthConfig, generate, inject_label_noise
from wsdenoise.wscl import (
    WsclConfig,
    calibrate_joint,
    class_confident_joint,
    prune,
    run_wscl,
)

from conftest import echo_stub, gold_stub
from reference import ref_wscl


class TestClassConfidentJoint:
    def test_hand_counts(self):
        noisy = np.array([0, 0, 1, 1, 1])
        conf = np.array([0, 1, 1, NO_LABEL, 0])
        cj = class_confident_joint(noisy, conf, num_classes=2)
        np.testing.assert_array_equal(cj, [[1, 1], [1, 1]])

    def test_no_label_rows_excluded(self):
        noisy = np.array([0, 1])
        conf = np.array([NO_LABEL, NO_LABEL])
        cj = class_confident_joint(noisy, conf, num_classes=2)
        assert not cj.any()

    def test_brute_force_oracle(self, rng):
        for _ in range(30):
            n = int(rng.integers(1, 60))
            k = int(rng.integers(2, 5))
            noisy = rng.integers(k, size=n)
            conf = rng.integers(-1, k, size=n)
            cj = class_confident_joint(noisy, conf, num_classes=k)
            expect = np.zeros((k, k), dtype=int)
            for a, b in zip(noisy, conf):
                if b != NO_LABEL:
                    expect[a, b] += 1
            np.testing.assert_array_equal(cj, expect)


class TestCalibrateJoint:
    def test_hand_arithmetic(self):
        # class 0 has 8 of 16 noisy labels; row [3, 1] scales to [6, 2] then /16
        noisy = np.array([0] * 8 + [1] * 8)
        q = calibrate_joint(np.array([[3, 1], [0, 4]]), noisy)
        np.testing.assert_allclose(q[0], [0.375, 0.125])
        np.testing.assert_allclose(q[1], [0.0, 0.5])

    def test_zero_row_stays_zero(self):
        noisy = np.array([0, 0, 1, 1])
        q = calibrate_joint(np.array([[0, 0], [1, 1]]), noisy)
        assert not q[0].any()

    def test_sums_to_one_with_full_support(self, rng):
        for _ in range(10):
            k = int(rng.integers(2, 5))
            noisy = np.repeat(np.arange(k), rng.integers(1, 20, size=k))
            c = rng.integers(1, 10, size=(k, k))
            q = calibrate_joint(c, noisy)
            assert abs(q.sum() - 1.0) < 1e-9
            # row masses equal the noisy class priors
            counts = np.bincount(noisy, minlength=k) / len(noisy)
            np.testing.assert_allclose(q.sum(axis=1), counts, atol=1e-9)


class TestPrune:
    def test_hand_example(self):
        # q[0][1] * N = 1 -> prune the class-0 sample with the largest margin
        noisy = np.array([0, 0, 1, 1])
        probs = np.array([[0.2, 0.8], [0.9, 0.1], [0.5, 0.5], [0.5, 0.5]])
        q = np.array([[0.5, 0.25], [0.0, 0.25]])
        mask = prune(q, probs, noisy)
        np.testing.assert_array_equal(mask.keep, [False, True, True, True])
        assert mask.pruned_counts[0, 1] == 1
        assert not mask.shortfall.any()

    def test_rounding_half_up(self):
        noisy = np.array([0, 0, 1, 1])
        probs = np.array([[0.2, 0.8], [0.3, 0.7], [0.5, 0.5], [0.5, 0.5]])
        q = np.array([[0.0, 0.375], [0.0, 0.0]])  # 4 * 0.375 = 1.5 -> 2
        mask = prune(q, probs, noisy)
        assert mask.pruned_counts[0, 1] == 2

    def test_clamp_and_shortfall(self):
        noisy = np.array([0, 1, 1])
        probs = np.array([[0.1, 0.9], [0.5, 0.5], [0.5, 0.5]])
        q = np.array([[0.0, 1.0], [0.0, 0.0]])  # requests 3, only 1 available
        mask = prune(q, probs, noisy)
        assert mask.pruned_counts[0, 1] == 1
        assert mask.shortfall[0, 1] == 2

    def test_margin_tie_breaks_to_lower_id(self):
        noisy = np.array([0, 0])
        probs = np.array([[0.4, 0.6], [0.4, 0.6]])
        q = np.array([[0.0, 0.5], [0.0, 0.0]])  # prune exactly one
        mask = prune(q, probs, noisy)
        np.testing.assert_array_equal(mask.keep, [False, True])

    def test_sample_pruned_once_row_major_priority(self):
        # both (0,1) and (0,2) target class-0 samples; the single candidate
        # is claimed by (0,1); (0,2) then records a shortfall
        noisy = np.array([0, 1, 2])
        probs = np.full((3, 3), 1 / 3)
        q = np.array([[0.0, 1 / 3, 1 / 3], [0.0] * 3, [0.0] * 3])
        mask = prune(q, probs, noisy)
        assert mask.pruned_counts[0, 1] == 1
        assert mask.shortfall[0, 2] == 1

    def test_diagonal_never_prunes(self):
        noisy = np.array([0, 0, 1, 1])
        probs = np.eye(2)[noisy]
        q = np.array([[0.5, 0.0], [0.0, 0.5]])
        mask = prune(q, probs, noisy)
        assert mask.keep.all()

    def test_brute_force_budget(self, rng):
        # total pruned equals sum over off-diagonal cells of
        # min(round(N * q), available at claim time)
        for _ in range(10):
            n, k = int(rng.integers(5, 40)), int(rng.integers(2, 4))
            noisy = rng.integers(k, size=n)
            probs = rng.dirichlet(np.ones(k), size=n)
            q = rng.uniform(0, 0.15, size=(k, k))
            mask = prune(q, probs, noisy)
            pruned = np.zeros(n, dtype=bool)
            total = 0
            for i in range(k):
                for j in range(k):
                    if i == j:
                        continue
                    m = int(np.floor(n * q[i, j] + 0.5))
                    avail = int(((noisy == i) & ~pruned).sum())
                    take = min(m, avail)
                    total += take
                    cand = np.flatnonzero((noisy == i) & ~pruned)
                    margins = probs[cand, j] - probs[cand, i]
                    order = np.lexsort((cand, -margins))
                    pruned[cand[order[:take]]] = True
            assert int((~mask.keep).sum()) == total
            np.testing.assert_array_equal(mask.keep, ~pruned)


@st.composite
def prune_inputs(draw):
    """Noisy labels, probabilities and a joint estimate q of matching shapes."""
    n = draw(st.integers(1, 40))
    k = draw(st.integers(2, 4))
    noisy = draw(arrays(np.int64, n, elements=st.integers(0, k - 1)))
    probs = draw(arrays(np.float64, (n, k), elements=st.floats(0, 1)))
    # zeros, budgets on or next to a half-way point (m + 0.5) / n, and budgets
    # past the class size
    cell = st.one_of(st.just(0.0), st.floats(0, 1.5),
                     st.integers(0, 2 * n).map(lambda m: (m + 0.5) / n))
    q = draw(arrays(np.float64, (k, k), elements=cell))
    return noisy, probs, q


class TestPruneProperties:
    @settings(max_examples=300, deadline=None)
    @given(prune_inputs())
    def test_budget_accounting(self, inputs):
        noisy, probs, q = inputs
        n, k = len(noisy), q.shape[0]
        mask = prune(q, probs, noisy)
        budget = np.floor(n * q + 0.5).astype(np.int64)
        off = ~np.eye(k, dtype=bool)
        asked = off & (budget > 0)
        np.testing.assert_array_equal((mask.pruned_counts + mask.shortfall)[asked],
                                      budget[asked])
        assert not mask.pruned_counts[~asked].any() and not mask.shortfall[~asked].any()
        assert (mask.pruned_counts >= 0).all() and (mask.shortfall >= 0).all()
        pruned = ~mask.keep
        assert mask.keep.sum() == n - mask.pruned_counts.sum()
        # each pruned sample is counted once, in the row of its noisy label
        np.testing.assert_array_equal(mask.pruned_counts.sum(axis=1),
                                      np.bincount(noisy[pruned], minlength=k))


class TestRunWscl:
    def test_echo_stub_prunes_nothing(self, fold_model):
        fold_model(echo_stub)
        ds, _ = generate(SynthConfig(n_samples=200, seed=11, coverage_target=0.8))
        cfg = WsclConfig(k=4, seed=11)
        res = run_wscl(ds, cfg, train_final=False)
        assert res.keep_mask.all()
        joint = np.array(res.prune_report["confident_joint"])
        assert not (joint - np.diag(np.diag(joint))).any()

    def test_injected_flips_are_pruned(self, fold_model):
        fold_model(gold_stub)
        ds, _ = generate(SynthConfig(n_samples=600, seed=12, lf_precision=1.0,
                                     coverage_target=0.95))
        flipped, flip_mask = inject_label_noise(ds.gold, 0.15, ds.num_classes, seed=12)
        cfg = WsclConfig(k=4, seed=12)
        res = run_wscl(ds, cfg, train_final=False, noisy=LabelVector(flipped))
        pruned = ~res.keep_mask
        assert pruned.any()
        precision = flip_mask[pruned].mean()
        assert precision >= 2 * 0.15
        recall = pruned[flip_mask].mean()
        assert recall >= 0.5

    def test_prune_report_is_json_friendly(self):
        import json

        ds, _ = generate(SynthConfig(n_samples=150, seed=13, coverage_target=0.8))
        cfg = WsclConfig(k=3, seed=13, clf=ClassifierConfig(epochs=3, seed=13))
        res = run_wscl(ds, cfg, train_final=False)
        text = json.dumps(res.prune_report)
        assert "pruned_ids" in text

    def test_deterministic(self):
        ds, _ = generate(SynthConfig(n_samples=200, seed=14, coverage_target=0.85))
        cfg = WsclConfig(k=3, seed=14, clf=ClassifierConfig(epochs=3, seed=14))
        a = run_wscl(ds, cfg, train_final=False)
        b = run_wscl(ds, cfg, train_final=False)
        np.testing.assert_array_equal(a.keep_mask, b.keep_mask)

    def test_bad_strategy_rejected(self):
        with pytest.raises(ValueError, match="strategy"):
            WsclConfig(strategy="random")

    def test_negative_lambda_rate_rejected(self):
        with pytest.raises(ValueError, match="lambda_rate must be nonnegative"):
            WsclConfig(lambda_rate=-1)

    def test_nan_lambda_rate_rejected(self):
        with pytest.raises(ValueError, match="lambda_rate must be nonnegative"):
            WsclConfig(lambda_rate=float("nan"))


class TestAgainstReference:
    """``run_wscl`` equals ``reference.ref_wscl``, the sample-by-sample loop, bit for bit."""

    @settings(max_examples=50, deadline=None)
    @given(n=st.integers(20, 80), num_classes=st.integers(2, 3), k=st.integers(2, 4),
           strategy=st.sampled_from(["by_lf", "by_signature"]),
           lambda_rate=st.sampled_from([0.0, 0.5]), rewired=st.booleans(),
           words=st.integers(0, 20), min_df=st.integers(1, 2), epochs=st.integers(1, 3),
           batch_size=st.sampled_from([4, 32]), lr=st.sampled_from([0.05, 0.5, 50.0]),
           l2=st.sampled_from([0.0, 1e-3, 1.0]), seed=st.integers(0, 2**16))
    def test_run_wscl_equals_the_loop(self, n, num_classes, k, strategy, lambda_rate, rewired,
                                      words, min_df, epochs, batch_size, lr, l2, seed):
        ds, _ = generate(SynthConfig(n_samples=n, n_classes=num_classes, n_lfs=6,
                                     misallocated_lfs=[(0, 1)] if rewired else [],
                                     words_per_doc=words, seed=seed))
        cfg = WsclConfig(k=k, strategy=strategy, lambda_rate=lambda_rate, seed=seed,
                         clf=ClassifierConfig(learning_rate=lr, epochs=epochs,
                                              batch_size=batch_size, l2=l2, seed=seed),
                         feat=FeaturizeConfig(min_df=min_df))
        try:
            keep, report = ref_wscl(ds, cfg)
        except (ValueError, RuntimeError) as exc:
            with pytest.raises(type(exc)) as info:
                run_wscl(ds, cfg, train_final=False)
            assert str(info.value) == str(exc)
            return
        res = run_wscl(ds, cfg, train_final=False)
        assert res.keep_mask.tobytes() == keep.tobytes()
        assert res.prune_report == report
