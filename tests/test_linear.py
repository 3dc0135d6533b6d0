import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse._sparsetools import csc_matvecs, csr_matvecs

from wsdenoise import linear
from wsdenoise.linear import (
    ClassifierConfig,
    Model,
    loss_and_grad,
    predict_proba,
    train,
    train_group,
)


def toy_separable():
    x = np.array([[1.0, 0.0], [0.9, 0.1], [0.0, 1.0], [0.1, 0.9]])
    y = np.array([0, 0, 1, 1])
    return x, y


def batch_loss_and_grad(weights, bias, x, y, sw, l2):
    """``loss_and_grad`` on a dense batch, passed as its CSR arrays."""
    c = sp.csr_array(x)
    return loss_and_grad(weights, bias, c.indptr, c.indices, c.data, y, sw, l2)


def numeric_grad(weights, bias, x, y, sw, l2, step=1e-5):
    gw = np.zeros_like(weights)
    gb = np.zeros_like(bias)
    for idx in np.ndindex(weights.shape):
        wp, wm = weights.copy(), weights.copy()
        wp[idx] += step
        wm[idx] -= step
        lp, _, _ = batch_loss_and_grad(wp, bias, x, y, sw, l2)
        lm, _, _ = batch_loss_and_grad(wm, bias, x, y, sw, l2)
        gw[idx] = (lp - lm) / (2 * step)
    for idx in range(len(bias)):
        bp, bm = bias.copy(), bias.copy()
        bp[idx] += step
        bm[idx] -= step
        lp, _, _ = batch_loss_and_grad(weights, bp, x, y, sw, l2)
        lm, _, _ = batch_loss_and_grad(weights, bm, x, y, sw, l2)
        gb[idx] = (lp - lm) / (2 * step)
    return gw, gb


class TestGradient:
    def test_matches_central_differences(self, rng):
        for _ in range(10):
            n = int(rng.integers(3, 21))
            v = int(rng.integers(2, 11))
            k = int(rng.integers(2, 5))
            x = rng.normal(size=(n, v))
            y = rng.integers(k, size=n)
            sw = rng.uniform(0.1, 2.0, size=n)
            l2 = float(rng.uniform(0, 0.1))
            w = rng.normal(scale=0.5, size=(v, k))
            b = rng.normal(scale=0.5, size=k)
            _, gw, gb = batch_loss_and_grad(w, b, x, y, sw, l2)
            ngw, ngb = numeric_grad(w, b, x, y, sw, l2)
            assert np.abs(gw - ngw).max() / max(np.abs(ngw).max(), 1e-8) < 1e-4
            assert np.abs(gb - ngb).max() / max(np.abs(ngb).max(), 1e-8) < 1e-4


class TestSparseKernels:
    """``train`` calls scipy's private CSR kernels directly: pin them to ``@``.

    If a scipy release moves these kernels or changes their summation order,
    this fails here by name instead of letting fitted models drift silently.
    """

    @pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_row_block_matches_matmul(self, rng, index_dtype, k):
        n, v = 40, 17
        dense = rng.normal(size=(n, v)) * (rng.random((n, v)) < 0.3)
        dense[[0, 5, 6, 7, 39]] = 0.0  # empty rows, including a run of them
        c = sp.csr_array(dense)
        x = sp.csr_array((c.data, c.indices.astype(index_dtype),
                          c.indptr.astype(index_dtype)), shape=c.shape)
        for a, b in [(0, n), (3, 11), (5, 8), (8, 9), (20, 40), (12, 12)]:
            block = x[a:b]
            w = rng.normal(size=(v, k))
            logits = np.zeros((b - a, k))
            csr_matvecs(b - a, v, k, x.indptr[a:b + 1], x.indices, x.data,
                        w.ravel(), logits.ravel())
            assert np.array_equal(logits, block @ w), (
                f"csr_matvecs on rows {a}:{b} differs from x[a:b] @ w: scipy's "
                "kernel changed, so linear.train no longer matches x @ w")
            g = rng.normal(size=(b - a, k))
            grad = np.zeros((v, k))
            csc_matvecs(v, b - a, k, x.indptr[a:b + 1], x.indices, x.data,
                        g.ravel(), grad.ravel())
            assert np.array_equal(grad, block.T @ g), (
                f"csc_matvecs on rows {a}:{b} differs from x[a:b].T @ g: scipy's "
                "kernel changed, so linear.train no longer matches x.T @ g")


class TestTrain:
    def test_separable_toy_reaches_full_accuracy(self):
        x, y = toy_separable()
        m = train(x, y, cfg=ClassifierConfig(learning_rate=1e-1, epochs=20, seed=0),
                  num_classes=2)
        assert (np.argmax(predict_proba(m, x), axis=1) == y).all()

    def test_uniform_weight_scaling_is_invariant(self):
        x, y = toy_separable()
        cfg = ClassifierConfig(learning_rate=1e-1, epochs=10, seed=4)
        m1 = train(x, y, cfg=cfg, num_classes=2)
        m2 = train(x, y, sample_weights=np.full(4, 3.7), cfg=cfg, num_classes=2)
        np.testing.assert_allclose(m1.weights, m2.weights, rtol=0, atol=0)
        np.testing.assert_allclose(m1.bias, m2.bias, rtol=0, atol=0)

    def test_zero_weight_sample_is_inert(self):
        x, y = toy_separable()
        y_flipped = y.copy()
        y_flipped[3] = 0  # mislabel the zero-weighted point
        w = np.array([1.0, 1.0, 1.0, 0.0])
        cfg = ClassifierConfig(learning_rate=1e-1, epochs=10, seed=4)
        m1 = train(x, y, sample_weights=w, cfg=cfg, num_classes=2)
        m2 = train(x, y_flipped, sample_weights=w, cfg=cfg, num_classes=2)
        np.testing.assert_array_equal(m1.weights, m2.weights)
        np.testing.assert_array_equal(m1.bias, m2.bias)

    @pytest.mark.parametrize("count", [3, 7])
    def test_sample_weight_count_must_match_rows(self, count):
        x, y = toy_separable()
        with pytest.raises(ValueError, match=f"{count} sample weights for 4 feature rows"):
            train(x, y, sample_weights=np.ones(count), num_classes=2)

    def test_determinism(self, rng):
        x = rng.normal(size=(40, 6))
        y = rng.integers(3, size=40)
        cfg = ClassifierConfig(seed=9)
        m1 = train(x, y, cfg=cfg, num_classes=3)
        m2 = train(x, y, cfg=cfg, num_classes=3)
        assert (m1.weights == m2.weights).all() and (m1.bias == m2.bias).all()
        assert m1.training_log == m2.training_log

    def test_class_missing_from_labels_keeps_its_column(self):
        # no training label is 2, yet the model still scores three classes
        x, y = toy_separable()
        m = train(x, y, cfg=ClassifierConfig(epochs=3, seed=0), num_classes=3)
        assert m.weights.shape == (2, 3) and m.bias.shape == (3,)
        assert predict_proba(m, x).shape == (4, 3)

    def test_num_classes_is_required_by_keyword(self):
        x, y = toy_separable()
        with pytest.raises(TypeError):
            train(x, y)
        with pytest.raises(TypeError):
            train(x, y, None, None, 2)

    def test_full_batch_loss_non_increasing(self):
        x, y = toy_separable()
        cfg = ClassifierConfig(learning_rate=1e-3, epochs=20, batch_size=4,
                               patience=20, seed=0)
        m = train(x, y, cfg=cfg, num_classes=2)
        log = np.array(m.training_log)
        assert (np.diff(log) <= 1e-12).all()

    def test_zero_rows_are_rejected_up_front(self):
        with pytest.raises(ValueError, match="cannot train on zero feature rows"):
            train(np.zeros((0, 3)), np.zeros(0, dtype=np.int64), num_classes=2)

    def test_exploding_lr_reports_epoch(self):
        x = np.array([[1e200, -1e200], [-1e200, 1e200]] * 8)
        y = np.array([0, 1] * 8)
        with np.errstate(all="ignore"), pytest.raises(RuntimeError, match="epoch"):
            train(x, y, cfg=ClassifierConfig(learning_rate=1e3, epochs=5,
                                             batch_size=4, seed=0), num_classes=2)


def _same(a: Model, b: Model) -> bool:
    return (np.array_equal(a.weights, b.weights) and np.array_equal(a.bias, b.bias)
            and a.training_log == b.training_log)


class TestTrainGroup:
    @staticmethod
    def members(rng, k=3):
        out = []
        for n, v in [(50, 9), (23, 14), (64, 6)]:
            x = rng.random((n, v)) * (rng.random((n, v)) < 0.4)
            y = rng.integers(k, size=n)
            sw = rng.uniform(0.5, 2.0, size=n) * (rng.random(n) < 0.3)
            sw[0] = 1.0
            out.append((x, y, sw))
        return out

    @pytest.mark.parametrize("l2", [0.0, 1e-3])
    @pytest.mark.parametrize("safe, block", [(linear._SAFE, linear._BLOCK_STEPS), (0.0, 1),
                                             (linear._SAFE, 1000)])
    def test_each_model_equals_its_lone_fit(self, rng, monkeypatch, l2, safe, block):
        # safe=0 sends every step through the exact per-model loss check;
        # block sizes 1 and 1000 gather every step alone or the whole epoch at once
        members = self.members(rng)
        cfg = ClassifierConfig(learning_rate=0.5, epochs=5, batch_size=8, l2=l2)
        alone = [train(x, y, sw, ClassifierConfig(**{**vars(cfg), "seed": s}), num_classes=3)
                 for (x, y, sw), s in zip(members, [4, 5, 6])]
        monkeypatch.setattr(linear, "_SAFE", safe)
        monkeypatch.setattr(linear, "_BLOCK_STEPS", block)
        x, y, sw = zip(*members)
        group = train_group(list(x), list(y), list(sw), cfg, [4, 5, 6], num_classes=3)
        assert all(_same(g, a) for g, a in zip(group, alone))

    def test_a_failing_model_leaves_the_others_running(self, rng):
        members = self.members(rng)
        x, y, sw = members[1]
        members[1] = (x * 1e200, y, sw)  # its logits overflow at its first step
        cfg = ClassifierConfig(learning_rate=0.5, epochs=4, batch_size=8)
        with np.errstate(all="ignore"):
            with pytest.raises(RuntimeError) as lone_error:
                train(*members[1], cfg, num_classes=3)
            x, y, sw = zip(*members)
            group = train_group(list(x), list(y), list(sw), cfg, num_classes=3)
        assert isinstance(group[1], RuntimeError)
        assert str(group[1]) == str(lone_error.value)
        for f in (0, 2):
            assert _same(group[f], train(*members[f], cfg, num_classes=3))

    def test_inputs_must_pair_up(self, rng):
        x, y, sw = self.members(rng)[0]
        with pytest.raises(ValueError, match="one feature matrix, label vector"):
            train_group([x, x], [y], num_classes=3)
        with pytest.raises(ValueError, match="one feature matrix, label vector"):
            train_group([x], [y], [sw], seeds=[1, 2], num_classes=3)


class TestPredictProba:
    def test_zero_model_is_uniform(self):
        m = Model(weights=np.zeros((3, 4)), bias=np.zeros(4))
        p = predict_proba(m, np.ones((5, 3)))
        np.testing.assert_allclose(p, 0.25)

    def test_equal_logits_give_half(self):
        m = Model(weights=np.array([[1.0, 1.0]]), bias=np.zeros(2))
        p = predict_proba(m, np.array([[2.0]]))
        np.testing.assert_allclose(p, [[0.5, 0.5]])

    def test_rows_sum_to_one(self, rng):
        m = Model(weights=rng.normal(size=(8, 5)), bias=rng.normal(size=5))
        p = predict_proba(m, rng.normal(size=(1000, 8)))
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-9)
