import tracemalloc
import warnings

from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse._sparsetools import csc_matvecs, csr_matvecs

from wsdenoise import featurize, linear
from wsdenoise.featurize import FeaturizeConfig, count_terms, fit_rows
from wsdenoise.linear import (
    ClassifierConfig,
    Model,
    loss_and_grad,
    predict_proba,
    train,
    train_group,
)

from reference import ref_train


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


    @pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
    def test_row_gather_matches_fancy_index(self, rng, index_dtype):
        n, v = 30, 11
        dense = rng.normal(size=(n, v)) * (rng.random((n, v)) < 0.4)
        dense[[0, 4, 5, 29]] = 0.0  # empty rows, including a run of them
        c = sp.csr_array(dense)
        x = sp.csr_array((c.data, c.indices.astype(index_dtype),
                          c.indptr.astype(index_dtype)), shape=c.shape)
        for rows in ([4], [0, 5, 4], [3, 3, 3], [29, 1, 1, 0, 17, 5, 5],
                     rng.integers(n, size=200), rng.permutation(n)):
            rows = np.asarray(rows, dtype=index_dtype)
            indptr, indices, data = linear._gather(x, rows)
            expected = x[rows]
            assert indptr.dtype == indices.dtype == index_dtype
            assert np.array_equal(indptr, expected.indptr), (
                "csr_row_index's indptr differs from x[rows]: scipy's gather changed")
            assert np.array_equal(indices, expected.indices)
            assert np.array_equal(data, expected.data)


def _parent_log_softmax(logits):
    """The axis-1 log-softmax the column folds replaced, kept as the reference."""
    m = logits.max(axis=1, keepdims=True)
    lse = m + np.log(np.exp(logits - m).sum(axis=1, keepdims=True))
    return logits - lse


def _wide_range_values(rng, shape):
    """Signed magnitudes from 1e-300 to 1e300, with zeros of both signs, infinities and NaNs."""
    a = 10.0 ** rng.uniform(-300, 300, size=shape) * rng.choice([-1.0, 1.0], size=shape)
    for value in (0.0, -0.0, np.inf, -np.inf, np.nan):
        a[rng.random(shape) < 0.04] = value
    return a


class TestRowReductions:
    """The column folds must give the bits of numpy's axis-1 reductions."""

    @pytest.mark.parametrize("k", range(1, 13))
    def test_column_fold_equals_axis_one_reduce(self, rng, k):
        for n in (1, 7, 160, 2000):
            a = _wide_range_values(rng, (n, k))
            # a sum made only of negative zeros is the one case the add fold
            # rounds differently; sums of exponentials have none
            summed = np.where(a == 0, 0.0, a)
            with np.errstate(all="ignore"):
                for ufunc, values in ((np.maximum, a), (np.add, summed)):
                    got = linear._row_reduce(ufunc, values)
                    expected = ufunc.reduce(values, axis=1, keepdims=True)
                    assert got.shape == expected.shape == (n, 1)
                    assert got.tobytes() == expected.tobytes(), (ufunc.__name__, n)

    @pytest.mark.parametrize("k", range(1, 13))
    def test_log_softmax_equals_the_axis_one_formula(self, rng, k):
        n = 300
        logits = rng.normal(size=(n, k)) * 10.0 ** rng.uniform(-3, 3, size=(n, 1))
        logits[::7] = _wide_range_values(rng, (len(logits[::7]), k))
        with np.errstate(all="ignore"):
            expected = _parent_log_softmax(logits)
            got = linear._log_softmax(logits.copy())
        assert got.tobytes() == expected.tobytes()


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

    @pytest.mark.parametrize("bad", [-1, 2])
    def test_out_of_range_labels_are_rejected_up_front(self, bad):
        x, y = toy_separable()
        y_bad = y.copy()
        y_bad[1] = bad
        message = f"label {bad} out of range for num_classes=2"
        with pytest.raises(ValueError, match=message):
            train(x, y_bad, num_classes=2)
        with pytest.raises(ValueError, match=message):
            train_group([x, x], [y, y_bad], num_classes=2)

    @pytest.mark.parametrize("labels, bad", [([0, 1.7, 0.2, 1], "1.7"),
                                             ([0, 1, np.nan, 1], "nan")], ids=["1.7", "nan"])
    def test_labels_that_are_not_whole_numbers_are_rejected(self, labels, bad):
        x, y = toy_separable()
        message = f"label {bad} is not a whole number"
        with pytest.raises(ValueError, match=message):
            train(x, labels, num_classes=2)
        with pytest.raises(ValueError, match=message):
            train_group([x, x], [y, labels], num_classes=2)

    def test_whole_float_labels_train_as_integers(self):
        x, y = toy_separable()
        cfg = ClassifierConfig(learning_rate=1e-1, epochs=3, seed=0)
        assert _same(train(x, y.astype(float), cfg=cfg, num_classes=2),
                     train(x, y, cfg=cfg, num_classes=2))

    @pytest.mark.parametrize("l2", [0.0, 1e-3])
    @pytest.mark.parametrize("extra_rows", [0, 5])
    def test_one_full_batch_epoch_is_one_loss_and_grad_step(self, rng, l2, extra_rows):
        # batch_size == n gives one full batch, batch_size > n one short batch; both
        # sum the bias gradient by the same csc_matvecs pass over the bias column
        n, v, k, lr, seed = 30, 8, 3, 0.7, 12
        x = sp.csr_array(rng.random((n, v)) * (rng.random((n, v)) < 0.4))
        y = rng.integers(k, size=n)
        sw = rng.uniform(0.1, 2.0, size=n)
        cfg = ClassifierConfig(learning_rate=lr, epochs=1, batch_size=n + extra_rows, l2=l2,
                               seed=seed)
        m = train(x, y, sw, cfg, num_classes=k)
        perm = np.random.default_rng([seed, 0]).permutation(n)
        xp = x[perm]
        _, gw, gb = loss_and_grad(np.zeros((v, k)), np.zeros(k), xp.indptr, xp.indices,
                                  xp.data, y[perm], sw[perm], l2)
        assert np.array_equal(m.weights, -lr * gw)
        assert np.array_equal(m.bias, -lr * gb)

    @pytest.mark.parametrize("case, match", [
        ("short_labels", "feature and label lengths disagree"),
        ("negative_weight", "sample weights must be nonnegative"),
        ("zero_weights", "sample weights must not all be zero"),
        ("short_blocks", "row blocks disagree with their declared shape and entries"),
    ])
    def test_inconsistent_inputs_are_rejected(self, case, match):
        x, y = toy_separable()
        sw = {"negative_weight": [1.0, -1.0, 1.0, 1.0], "zero_weights": np.zeros(4)}.get(case)
        if case == "short_labels":
            y = y[:3]
        if case == "short_blocks":  # declares four rows, yields three
            c = sp.csr_array(x)
            x = featurize.RowBlocks(c.shape, c.nnz, iter([c[:3]]))
        with pytest.raises(ValueError, match=match):
            train(x, y, sw, num_classes=2)

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

    @pytest.mark.parametrize("l2", [0.0, 1e-3])
    @pytest.mark.parametrize("mid_epoch", [False, True])
    def test_a_failing_model_leaves_the_others_running(self, rng, monkeypatch, l2, mid_epoch):
        members = self.members(rng)
        x, y, sw = members[1]
        if mid_epoch:
            # an infinite feature in the second of its three batches of epoch 0: it
            # fails at step 1, and its third batch shares step 2 with the others
            perm = np.random.default_rng([0, 0]).permutation(len(y))
            x, sw = x.copy(), sw.copy()
            x[perm[8], 0] = np.inf
            sw[perm[[8, 16]]] = 1.0
        else:
            x = x * 1e200  # its weights overflow within its first steps
        members[1] = (x, y, sw)
        cfg = ClassifierConfig(learning_rate=0.5, epochs=4, batch_size=8, l2=l2)
        with np.errstate(all="ignore"):
            with pytest.raises(RuntimeError) as lone_error:
                train(*members[1], cfg, num_classes=3)
            alone = [train(*members[f], cfg, num_classes=3) for f in (0, 2)]

            # mark each epoch and count the losses computed: after the failing
            # epoch only the two epoch losses remain, no per-model step check
            calls = []

            class Epoch(linear._Epoch):
                def __init__(self, *args):
                    calls.append("E")
                    super().__init__(*args)

            loss = linear._loss
            monkeypatch.setattr(linear, "_Epoch", Epoch)
            monkeypatch.setattr(linear, "_loss", lambda *a: calls.append("l") or loss(*a))
            x, y, sw = zip(*members)
            group = train_group(list(x), list(y), list(sw), cfg, num_classes=3)
        assert isinstance(group[1], RuntimeError)
        assert str(group[1]) == str(lone_error.value) == "non-finite loss at epoch 0; " \
            "learning rate too large?"
        assert all(_same(group[f], a) for f, a in zip((0, 2), alone))
        epochs = "".join(calls).split("E")[1:]
        assert len(epochs) == cfg.epochs and epochs[1:] == ["ll"] * (cfg.epochs - 1)

    def test_more_than_eight_classes_equal_lone_fits(self, rng):
        # K >= 8 takes numpy's axis-1 reductions, in the steps and the epoch-loss passes
        members = self.members(rng, k=9)
        cfg = ClassifierConfig(learning_rate=0.5, epochs=3, batch_size=8)
        alone = [train(x, y, sw, cfg, num_classes=9) for x, y, sw in members]
        x, y, sw = zip(*members)
        group = train_group(list(x), list(y), list(sw), cfg, num_classes=9)
        assert all(_same(g, a) for g, a in zip(group, alone))

    def test_epoch_loss_passes_leave_out_a_dropped_model(self, rng, monkeypatch):
        # each epoch runs one loss pass per live model over its own rows: 50, 23
        # and 64 rows; once the middle model has failed, the passes cover the 50
        # rows of the first model and the 64 of the last, not the 137 of all
        passes, in_step = [], []
        forward, step = linear._forward, linear._step

        def spy_step(*a):
            in_step.append(1)
            try:
                return step(*a)
            finally:
                in_step.pop()

        def spy_forward(indptr, *a):
            if not in_step:
                passes.append(len(indptr) - 1)
            return forward(indptr, *a)

        monkeypatch.setattr(linear, "_step", spy_step)
        monkeypatch.setattr(linear, "_forward", spy_forward)
        cfg = ClassifierConfig(learning_rate=0.5, epochs=3, batch_size=8)
        members = self.members(rng)
        for diverge, expected in [(False, [50, 23, 64]), (True, [50, 64])]:
            if diverge:
                x, y, sw = members[1]
                members[1] = (x * 1e200, y, sw)
            passes.clear()
            x, y, sw = zip(*members)
            with np.errstate(all="ignore"):
                group = train_group(list(x), list(y), list(sw), cfg, num_classes=3)
            assert isinstance(group[1], RuntimeError) is diverge
            assert passes == expected * 3

    def test_a_diverging_model_warns_nothing(self):
        # under this learning rate and l2 the weights grow geometrically: models
        # 0 and 2 overflow at epochs 11 and 9, model 1 (23 rows) never does
        rng = np.random.default_rng(3)
        xs, ys = [], []
        for n, v in [(50, 9), (23, 14), (64, 6)]:
            xs.append(rng.random((n, v)) * (rng.random((n, v)) < 0.4))
            ys.append(rng.integers(3, size=n))
        cfg = ClassifierConfig(learning_rate=50.0, epochs=20, batch_size=8, l2=1.0, patience=20)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            group = train_group(xs, ys, None, cfg, num_classes=3)
        assert [w.message for w in caught] == []
        assert [str(g) for g in group[::2]] == [
            f"non-finite loss at epoch {e}; learning rate too large?" for e in (11, 9)]
        assert _same(group[1], train(xs[1], ys[1], cfg=cfg, num_classes=3))

    def test_a_last_step_that_overflows_fails_at_the_epoch_loss(self, rng, monkeypatch):
        # one step per epoch from zero weights: that step's own loss is finite,
        # and only the epoch-loss pass sees the weights it pushed past overflow
        x, y = rng.random((8, 4)), rng.integers(3, size=8)
        healthy = x * 1e-250  # its weights stay small enough for finite losses
        cfg = ClassifierConfig(learning_rate=1e200, epochs=3, batch_size=8)
        step_failures, run_steps = [], linear._run_steps
        monkeypatch.setattr(linear, "_run_steps",
                            lambda *a: step_failures.append(run_steps(*a)) or step_failures[-1])
        with np.errstate(all="ignore"):
            with pytest.raises(RuntimeError, match="non-finite loss at epoch 0;"):
                train(x, y, cfg=cfg, num_classes=3)
            alone = train(healthy, y, cfg=cfg, num_classes=3)
            group = train_group([x, healthy], [y, y], None, cfg, num_classes=3)
        assert step_failures and not any(step_failures)
        assert str(group[0]) == "non-finite loss at epoch 0; learning rate too large?"
        assert _same(group[1], alone) and len(alone.training_log) == cfg.epochs

    def test_inputs_must_pair_up(self, rng):
        x, y, sw = self.members(rng)[0]
        with pytest.raises(ValueError, match="one feature matrix, label vector"):
            train_group([x, x], [y], num_classes=3)
        with pytest.raises(ValueError, match="one feature matrix, label vector"):
            train_group([x], [y], [sw], seeds=[1, 2], num_classes=3)

    @pytest.mark.parametrize("count", [1, 2])
    def test_l2_never_reaches_the_bias(self, rng, count):
        # with every feature row empty only the biases move, so an L2 term on
        # a bias row would show as a different bias
        xs = [sp.csr_array((40, 4)) for _ in range(count)]
        ys = [rng.integers(3, size=40) for _ in range(count)]
        fits = {l2: train_group(xs, ys, None, ClassifierConfig(learning_rate=0.5, epochs=3,
                                                               batch_size=8, l2=l2),
                                num_classes=3)
                for l2 in (0.0, 1.0)}
        for plain, penalized in zip(fits[0.0], fits[1.0]):
            assert plain.bias.any()  # the biases did move
            assert penalized.bias.tobytes() == plain.bias.tobytes()
            assert not plain.weights.any() and not penalized.weights.any()


@st.composite
def sgd_groups(draw):
    """A config, K, and 1-12 models: (features, labels, sample weights or None, seed) each.

    Feature scales up to 1e300 make some models diverge, in a batch or in an
    epoch-loss pass; some sample weights are zero, so some batches weigh nothing.
    """
    cfg = ClassifierConfig(learning_rate=draw(st.sampled_from([0.1, 1.0, 10.0])),
                           epochs=draw(st.integers(1, 4)), patience=draw(st.integers(1, 3)),
                           batch_size=draw(st.integers(1, 39)),
                           l2=draw(st.sampled_from([0.0, 1e-3, 0.1])))
    k = draw(st.integers(2, 10))  # both sides of the K = 8 switch in _row_reduce
    models = []
    for _ in range(draw(st.integers(1, 12))):
        n, v = draw(st.integers(1, 30)), draw(st.integers(1, 12))
        scale = draw(st.sampled_from([1.0, 1e3, 1e150, 1e300]))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        x = sp.csr_array(rng.random((n, v)) * (rng.random((n, v)) < 0.5) * scale)
        sw = rng.uniform(0.1, 2.0, n) * (rng.random(n) < 0.7)
        sw[rng.integers(n)] = 1.0
        models.append((x, rng.integers(k, size=n), draw(st.sampled_from([sw, None])),
                       draw(st.integers(0, 2**31 - 1))))
    return cfg, k, models


class TestAgainstReference:
    """Each model of a group equals the textbook loop ``reference.ref_train`` bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(sgd_groups())
    def test_train_group_equals_ref_train(self, case):
        cfg, k, models = case
        xs, ys, sws, seeds = map(list, zip(*models))
        group = train_group(xs, ys, sws, cfg, seeds, num_classes=k)
        for (x, y, sw, seed), got in zip(models, group):
            want = ref_train(x, y, sw, replace(cfg, seed=seed), num_classes=k)
            if isinstance(want, Exception):
                assert isinstance(got, RuntimeError) and str(got) == str(want)
            else:
                assert isinstance(got, Model)
                assert got.weights.tobytes() == want.weights.tobytes()
                assert got.bias.tobytes() == want.bias.tobytes()
                assert got.training_log == want.training_log


class TestStack:
    """``_stack`` ends every row with its model's bias entry, last in storage order."""

    @staticmethod
    def csr(indptr, indices, data, width):
        return sp.csr_array((np.array(data), np.array(indices, dtype=np.int32),
                             np.array(indptr, dtype=np.int32)), shape=(len(indptr) - 1, width))

    @staticmethod
    def entries(x):
        """Each row's (column, value) pairs in storage order."""
        return [list(zip(x.indices[a:c].tolist(), x.data[a:c].tolist()))
                for a, c in zip(x.indptr[:-1], x.indptr[1:])]

    @pytest.mark.parametrize("lone", [True, False])
    def test_every_row_ends_with_its_bias_entry(self, lone):
        # model 0: an empty row, a row whose indices are unsorted, a one-entry row;
        # model 1: a one-entry row and an empty row
        models = [self.csr([0, 0, 3, 4], [2, 0, 1, 1], [1.5, 2.5, 3.5, 4.5], 3),
                  self.csr([0, 1, 1], [1], [5.5], 2)][:1 if lone else 2]
        before = [(x.indptr.copy(), x.indices.copy(), x.data.copy()) for x in models]
        xs = list(models)
        stacked = linear._stack(xs)
        v = 3 if lone else 5
        want = [[(v, 1.0)], [(2, 1.5), (0, 2.5), (1, 3.5), (v, 1.0)], [(1, 4.5), (v, 1.0)]]
        if not lone:
            want += [[(4, 5.5), (v + 1, 1.0)], [(v + 1, 1.0)]]
        assert xs == []
        assert stacked.shape == (len(want), v + len(models))
        assert self.entries(stacked) == want
        for x, old in zip(models, before):
            assert all(np.array_equal(a, c) for a, c in zip((x.indptr, x.indices, x.data), old))


    def test_a_fold_is_written_once(self):
        # 1600 documents of 300 words from 2000 terms: about 2^19 stored counts.
        # Cutting the fold whole and then stacking a copy of it would need more
        # than twice the stacked bytes; block by block it needs a block's worth
        rng = np.random.default_rng(8)
        terms = np.array([f"w{i}" for i in range(2000)])
        tc = count_terms([" ".join(row) for row in terms[rng.integers(2000, size=(1600, 300))]])
        tracemalloc.start()
        try:
            _, _, blocks = fit_rows(tc, np.arange(1600), FeaturizeConfig())
            stacked = linear._stack([blocks])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = sum(a.nbytes for a in (stacked.data, stacked.indices, stacked.indptr))
        assert stacked.nnz - 1600 > 1 << 18
        assert peak < size + 48 * featurize._BLOCK_COUNTS


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

    def test_feature_width_must_match_the_model(self):
        m = Model(weights=np.zeros((3, 2)), bias=np.zeros(2))
        with pytest.raises(ValueError, match="feature width does not match model"):
            predict_proba(m, np.ones((5, 4)))


class TestInputsAreLeftAlone:
    """The log-softmax works in place; it may write only to buffers it allocated."""

    @staticmethod
    def snapshot(*arrays):
        return [np.array(a, copy=True) for a in arrays]

    def test_loss_and_grad(self, rng):
        x = sp.csr_array(rng.random((12, 5)) * (rng.random((12, 5)) < 0.5))
        w, b = rng.normal(size=(5, 3)), rng.normal(size=3)
        y, sw = rng.integers(3, size=12), rng.uniform(0.1, 2.0, size=12)
        inputs = (w, b, x.indptr, x.indices, x.data, y, sw)
        before = self.snapshot(*inputs)
        loss_and_grad(*inputs, 1e-3)
        assert all(np.array_equal(a, c) for a, c in zip(inputs, before))

    def test_train_group(self, rng):
        members = TestTrainGroup.members(rng)
        features = [sp.csr_array(members[0][0]), members[1][0], sp.csr_array(members[2][0])]
        labels = [members[0][1], members[1][1].astype(float), list(members[2][1])]
        weights = [m[2] for m in members]
        before = [self.snapshot(x.indptr, x.indices, x.data) if sp.issparse(x)
                  else self.snapshot(x) for x in features]
        before_labels, before_weights = self.snapshot(*labels[:2]), self.snapshot(*weights)
        train_group(features, labels, weights, ClassifierConfig(learning_rate=0.5, epochs=3,
                                                                batch_size=8), num_classes=3)
        for x, old in zip(features, before):
            now = (x.indptr, x.indices, x.data) if sp.issparse(x) else (x,)
            assert all(np.array_equal(a, c) for a, c in zip(now, old))
        assert all(np.array_equal(a, c) for a, c in zip(labels[:2], before_labels))
        assert labels[2] == list(members[2][1])
        assert all(np.array_equal(a, c) for a, c in zip(weights, before_weights))

    def test_predict_proba(self, rng):
        m = Model(weights=rng.normal(size=(6, 3)), bias=rng.normal(size=3))
        dense = rng.random((10, 6))
        x = sp.csr_array(dense)
        before = self.snapshot(m.weights, m.bias, dense, x.indptr, x.indices, x.data)
        predict_proba(m, dense)
        predict_proba(m, x)
        after = (m.weights, m.bias, dense, x.indptr, x.indices, x.data)
        assert all(np.array_equal(a, c) for a, c in zip(after, before))
