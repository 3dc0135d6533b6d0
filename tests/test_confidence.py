import numpy as np

from wsdenoise.confidence import (
    NO_LABEL,
    calibrate_rows,
    class_thresholds,
    confident_labels,
)


class TestClassThresholds:
    def test_perfect_confidence(self):
        probs = np.array([[1.0, 0.0], [1.0, 0.0]])
        th = class_thresholds(probs, np.array([0, 0]))
        assert th[0] == 1.0
        assert th[1] == 0.5  # zero support fallback 1/K

    def test_hand_mean(self):
        probs = np.array([[0.9, 0.1], [0.7, 0.3]])
        th = class_thresholds(probs, np.array([0, 0]))
        assert np.isclose(th[0], 0.8)

    def test_zero_support_fallback(self):
        probs = np.array([[0.6, 0.4]])
        th = class_thresholds(probs, np.array([0]))
        assert th[1] == 0.5


class TestConfidentLabels:
    def test_single_qualifier(self):
        th = np.array([0.8, 0.5])
        conf = confident_labels(np.array([[0.9, 0.1]]), th)
        assert conf[0] == 0

    def test_none_when_no_threshold_met(self):
        th = np.array([0.8, 0.6])
        conf = confident_labels(np.array([[0.5, 0.5]]), th)
        assert conf[0] == NO_LABEL

    def test_argmax_among_qualifiers(self):
        th = np.array([0.8, 0.6])
        conf = confident_labels(np.array([[0.85, 0.70]]), th)
        assert conf[0] == 0

    def test_tie_goes_to_lowest_index(self):
        th = np.array([0.4, 0.4])
        conf = confident_labels(np.array([[0.5, 0.5]]), th)
        assert conf[0] == 0


class TestCalibrateRows:
    def test_hand_scaling(self):
        q = calibrate_rows(np.array([[6, 2], [1, 3]]), np.array([10.0, 8.0]))
        np.testing.assert_allclose(q, [[7.5, 2.5], [2.0, 6.0]])

    def test_zero_rows_stay_zero(self):
        q = calibrate_rows(np.array([[0, 0], [2, 2]]), np.array([5.0, 2.0]))
        assert q.dtype == float
        assert not q[0].any()
        np.testing.assert_allclose(q[1], [1.0, 1.0])

    def test_row_totals_and_proportions(self, rng):
        for _ in range(20):
            counts = rng.integers(0, 4, size=(6, 3))
            targets = rng.uniform(0.5, 50.0, size=6)
            q = calibrate_rows(counts, targets)
            live = counts.sum(axis=1) > 0
            np.testing.assert_allclose(q.sum(axis=1)[live], targets[live], rtol=1e-12)
            np.testing.assert_allclose(
                q[live] / targets[live, None],
                counts[live] / counts[live].sum(axis=1, keepdims=True), rtol=1e-12)
            assert not q[~live].any()


class TestProperties:
    def test_permutation_invariance(self, rng):
        probs = rng.dirichlet(np.ones(3), size=30)
        noisy = rng.integers(3, size=30)
        perm = np.array([2, 0, 1])
        inv = np.argsort(perm)

        base = confident_labels(probs, class_thresholds(probs, noisy))
        probs_p = probs[:, inv]
        noisy_p = perm[noisy]
        got = confident_labels(probs_p, class_thresholds(probs_p, noisy_p))

        expect = np.where(base == NO_LABEL, NO_LABEL, perm[np.where(base == NO_LABEL, 0, base)])
        # ties inside the argmax can resolve differently after relabeling the
        # classes; restrict the check to rows with a strict argmax
        qualifies = probs >= class_thresholds(probs, noisy)[None, :]
        masked = np.where(qualifies, probs, -np.inf)
        strict = (masked == masked.max(axis=1, keepdims=True)).sum(axis=1) == 1
        np.testing.assert_array_equal(got[strict], expect[strict])

    def test_max_above_threshold_gets_label(self, rng):
        probs = rng.dirichlet(np.ones(4), size=50)
        noisy = rng.integers(4, size=50)
        th = class_thresholds(probs, noisy)
        conf = confident_labels(probs, th)
        clears = probs.max(axis=1) >= th[np.argmax(probs, axis=1)]
        assert (conf[clears] != NO_LABEL).all()

    def test_one_hot_agreement_fixed_point(self):
        noisy = np.array([0, 1, 1, 0, 2])
        probs = np.eye(3)[noisy]
        th = class_thresholds(probs, noisy)
        np.testing.assert_array_equal(th, np.ones(3))
        conf = confident_labels(probs, th)
        np.testing.assert_array_equal(conf, noisy)
