import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from wsdenoise import crossval
from wsdenoise.corpus import LabelVector, majority_vote
from wsdenoise.crossval import (
    STRATEGIES,
    FoldPlan,
    build_plan,
    estimate_oos,
    plan_by_lf,
    plan_by_signature,
    plan_random,
)
from wsdenoise.featurize import FeaturizeConfig
from wsdenoise.linear import ClassifierConfig, train_group
from wsdenoise.synth import SynthConfig, generate

from conftest import broken_stub, make_dataset, random_instance, uniform_stub
from reference import ref_estimate_oos


def noisy_labels(ds, seed=0):
    return majority_vote(ds, ds.t, seed)


def check_common_invariants(ds, plan):
    matched = set(np.flatnonzero(ds.matched_mask).tolist())
    unmatched = set(np.flatnonzero(~ds.matched_mask).tolist())
    seen_unmatched = []
    for tr, te in plan.folds:
        assert len(np.intersect1d(tr, te)) == 0
        seen_unmatched.extend(i for i in te.tolist() if i in unmatched)
    assert sorted(seen_unmatched) == sorted(unmatched)  # each in exactly one test fold


class TestPlanRandom:
    def test_equal_partition(self):
        ds = make_dataset(np.eye(10), np.tile(np.eye(2), (5, 1)))
        plan = plan_random(ds, k=5, seed=0)
        sizes = [len(te) for _, te in plan.folds]
        assert sizes == [2] * 5
        assert all(len(tr) == 8 for tr, _ in plan.folds)
        check_common_invariants(ds, plan)

    def test_leave_one_out(self):
        ds = make_dataset(np.eye(6), np.tile(np.eye(2), (3, 1)))
        plan = plan_random(ds, k=6, seed=1)
        assert all(len(te) == 1 for _, te in plan.folds)

    def test_test_folds_partition_matched(self, rng):
        for _ in range(10):
            ds = random_instance(rng)
            matched = np.flatnonzero(ds.matched_mask)
            if matched.size < 2:
                continue
            plan = plan_random(ds, k=2, seed=3)
            test_all = np.concatenate([te for _, te in plan.folds])
            got = sorted(i for i in test_all.tolist() if ds.matched_mask[i])
            assert got == sorted(matched.tolist())

    def test_lambda_admission_cap(self):
        # 8 matched + 4 unmatched, lambda=1 -> each train fold admits all
        # available unmatched (floor(train_size / 1) >= available)
        z = np.vstack([np.eye(8, 2) * 0 + np.eye(8, 2)[:, :2], np.zeros((4, 2))])
        z = np.zeros((12, 2))
        z[:8, 0] = 1
        ds = make_dataset(z, np.eye(2))
        plan = plan_random(ds, k=2, lambda_rate=1.0, seed=0)
        for tr, te in plan.folds:
            unmatched_in_train = [i for i in tr.tolist() if not ds.matched_mask[i]]
            unmatched_in_test = [i for i in te.tolist() if not ds.matched_mask[i]]
            assert len(unmatched_in_train) == 4 - len(unmatched_in_test)
            assert not set(unmatched_in_train) & set(unmatched_in_test)

    def test_lambda_zero_admits_none(self):
        z = np.zeros((10, 2))
        z[:6, 0] = 1
        ds = make_dataset(z, np.eye(2))
        plan = plan_random(ds, k=2, lambda_rate=0.0, seed=0)
        for tr, _ in plan.folds:
            assert all(ds.matched_mask[i] for i in tr.tolist())

    def test_k_too_large(self):
        ds = make_dataset(np.eye(3), np.tile(np.eye(2), (2, 1))[:3], num_classes=2)
        with pytest.raises(ValueError, match="exceeds"):
            plan_random(ds, k=4)

    @pytest.mark.parametrize("plan", [plan_random, plan_by_lf, plan_by_signature])
    def test_k_below_two_rejected(self, plan):
        ds = make_dataset(np.eye(4), np.tile(np.eye(2), (2, 1)))
        with pytest.raises(ValueError, match="k must be >= 2"):
            plan(ds, k=1)

    def test_unknown_strategy_rejected(self):
        ds = make_dataset(np.eye(4), np.tile(np.eye(2), (2, 1)))
        with pytest.raises(ValueError, match="unknown strategy 'stratified'; expected one of"):
            build_plan(ds, "stratified", 2, 0.0, 0)

    @pytest.mark.parametrize("plan", [plan_random, plan_by_lf, plan_by_signature])
    @pytest.mark.parametrize("lambda_rate", [-1.0, float("nan")])
    def test_bad_lambda_rate_rejected(self, plan, lambda_rate):
        z = np.zeros((10, 3))
        z[:3, 0] = z[3:6, 1] = z[6:8, 2] = 1
        ds = make_dataset(z, np.eye(3, 2))
        with pytest.raises(ValueError, match="lambda_rate must be nonnegative"):
            plan(ds, k=2, lambda_rate=lambda_rate)


class TestPlanByLf:
    def test_disjoint_signatures_partition(self):
        # 4 LFs, every sample matches exactly one -> test folds partition samples
        z = np.kron(np.eye(4), np.ones((2, 1)))
        t = np.tile(np.eye(2), (2, 1))
        ds = make_dataset(z, t)
        plan = plan_by_lf(ds, k=2, seed=0)
        test_all = sorted(np.concatenate([te for _, te in plan.folds]).tolist())
        assert test_all == list(range(8))
        check_common_invariants(ds, plan)

    def test_overlapping_sample_in_both_tests(self):
        z = np.array([[1, 0], [0, 1], [1, 1], [1, 0], [0, 1]])
        ds = make_dataset(z, np.eye(2))
        plan = plan_by_lf(ds, k=2, seed=0)
        in_tests = sum(2 in te.tolist() for _, te in plan.folds)
        in_trains = sum(2 in tr.tolist() for tr, _ in plan.folds)
        assert in_tests == 2 and in_trains == 0

    def test_train_lf_disjointness_exact(self, rng):
        zd_sig = lambda row: set(np.flatnonzero(row).tolist())
        for _ in range(10):
            ds = random_instance(rng)
            if ds.n_lfs < 2:
                continue
            try:
                plan = plan_by_lf(ds, k=2, seed=7)
            except ValueError:
                continue
            zd = ds.z.toarray()
            for lf_fold, (tr, _) in zip(plan.lf_folds, plan.folds):
                for j in tr.tolist():
                    if ds.matched_mask[j]:
                        assert not (zd_sig(zd[j]) & set(lf_fold))

    def test_overlap_heavy_z_multi_predictions(self):
        rng = np.random.default_rng(0)
        z = (rng.random((40, 6)) < 0.5).astype(int)
        z[z.sum(axis=1) == 0, 0] = 1
        ds = make_dataset(z, np.tile(np.eye(2), (3, 1)))
        plan = plan_by_lf(ds, k=3, seed=0)
        counts = np.zeros(40)
        for _, te in plan.folds:
            counts[te] += 1
        assert counts.mean() > 1.0

    def test_empty_fold_error_names_fold(self):
        z = np.ones((4, 2))  # every sample matches every LF -> no train samples
        ds = make_dataset(z, np.eye(2))
        with pytest.raises(ValueError, match="fold 0"):
            plan_by_lf(ds, k=2, seed=0)


class TestPlanBySignature:
    def test_single_signature_rejects_k2(self):
        ds = make_dataset(np.ones((5, 2)), np.eye(2))
        with pytest.raises(ValueError, match="signatures"):
            plan_by_signature(ds, k=2, seed=0)

    def test_signature_vs_lf_disjointness(self):
        # signatures {0}, {1}, {0,1}: the {0,1} test fold still trains on
        # {0} and {1} samples even though they share LFs
        z = np.array([[1, 0], [0, 1], [1, 1]])
        ds = make_dataset(z, np.eye(2))
        plan = plan_by_signature(ds, k=3, seed=0)
        for tr, te in plan.folds:
            assert len(te) >= 1
            if ds.signatures()[int(te[0])] == (0, 1):
                assert sorted(tr.tolist()) == [0, 1]

    def test_partition_and_constancy_on_signature_classes(self, rng):
        for _ in range(10):
            ds = random_instance(rng, n_max=40)
            sigs = ds.signatures()
            distinct = {sigs[i] for i in np.flatnonzero(ds.matched_mask)}
            if len(distinct) < 3:
                continue
            plan = plan_by_signature(ds, k=3, seed=5)
            fold_of = {}
            test_all = []
            for fi, (_, te) in enumerate(plan.folds):
                for i in te.tolist():
                    if not ds.matched_mask[i]:
                        continue
                    test_all.append(i)
                    sig = sigs[i]
                    assert fold_of.setdefault(sig, fi) == fi
            assert sorted(test_all) == sorted(np.flatnonzero(ds.matched_mask).tolist())


class TestPlanProperties:
    """The hold-out rule on arbitrary Z, for every strategy."""

    @settings(max_examples=300, deadline=None)
    @given(
        z=arrays(np.int8, st.tuples(st.integers(1, 30), st.integers(1, 6)),
                 elements=st.integers(0, 1)),
        strategy=st.sampled_from(STRATEGIES),
        k=st.integers(2, 5),
        lambda_rate=st.sampled_from([0.0, 0.5, 1.0, 3.0]),
        seed=st.integers(0, 2**16),
    )
    def test_hold_out_rule(self, z, strategy, k, lambda_rate, seed):
        ds = make_dataset(z, np.ones((z.shape[1], 2)))
        try:
            plan = build_plan(ds, strategy, k, lambda_rate, seed)
        except ValueError as exc:
            assert "exceeds the number of" in str(exc) or "has an empty" in str(exc)
            return
        assert len(plan.folds) == k
        matched = ds.matched_mask
        sigs = ds.signatures()
        test_count = np.zeros(ds.n_samples, dtype=np.int64)
        for f, (tr, te) in enumerate(plan.folds):
            assert tr.dtype == te.dtype == np.int64
            assert len(np.intersect1d(tr, te)) == 0
            assert (np.diff(tr) > 0).all() and (np.diff(te) > 0).all()
            in_test = np.isin(np.arange(ds.n_samples), te)
            in_train = np.isin(np.arange(ds.n_samples), tr)
            test_count[te] += 1
            if strategy == "by_lf":
                held = np.isin(np.arange(ds.n_lfs), plan.lf_folds[f])
                touches = [bool(held[list(s)].any()) for s in sigs]
            elif strategy == "by_signature":
                touches = [s in plan.sig_folds[f] for s in sigs]
            else:
                touches = in_test
            # a matched sample is tested iff it touches a held-out unit,
            # and trains in exactly the folds where it touches none
            np.testing.assert_array_equal(in_test[matched], np.asarray(touches)[matched])
            np.testing.assert_array_equal(in_train[matched], ~in_test[matched])
            admitted = int((in_train & ~matched).sum())
            if lambda_rate == 0:
                assert admitted == 0
            else:
                assert admitted <= int(matched[tr].sum() // lambda_rate)
        assert (test_count[~matched] == 1).all()
        if strategy != "by_lf":
            assert (test_count[matched] == 1).all()


class TestEstimateOos:
    def test_uniform_stub(self, fold_model):
        fold_model(uniform_stub)
        ds = make_dataset(np.eye(6), np.tile(np.eye(2), (3, 1)))
        plan = plan_random(ds, k=2, seed=0)
        oos = estimate_oos(ds, noisy_labels(ds), plan)
        np.testing.assert_allclose(oos.probs, 0.5)
        assert (oos.prediction_count >= 1).all()

    def test_multi_fold_rows_are_averaged(self, fold_model):
        z = np.array([[1, 0], [0, 1], [1, 1], [1, 0], [0, 1]])
        ds = make_dataset(z, np.eye(2))
        plan = plan_by_lf(ds, k=2, seed=0)

        calls = {"n": 0}

        def alternating(ds_, tr, y, te):
            p = np.zeros((len(te), 2))
            p[:, calls["n"] % 2] = 1.0
            calls["n"] += 1
            return p

        fold_model(alternating)
        oos = estimate_oos(ds, noisy_labels(ds), plan)
        assert oos.prediction_count[2] == 2
        np.testing.assert_allclose(oos.probs[2], [0.5, 0.5])

    def test_clean_synthetic_high_accuracy(self):
        ds, _ = generate(SynthConfig(n_samples=400, seed=8, lf_precision=1.0,
                                     coverage_target=0.95))
        labels = noisy_labels(ds, 1)
        plan = plan_random(ds, k=3, seed=1)
        oos = estimate_oos(ds, labels, plan,
                           FeaturizeConfig(),
                           ClassifierConfig(learning_rate=1e-1, seed=1))
        pred = np.argmax(oos.probs, axis=1)
        matched = ds.matched_mask
        assert (pred[matched] == ds.gold[matched]).mean() >= 0.9

    def test_reproducible(self):
        ds, _ = generate(SynthConfig(n_samples=150, seed=2))
        labels = noisy_labels(ds, 2)
        plan = plan_by_signature(ds, k=3, seed=2)
        cfg = ClassifierConfig(epochs=3, seed=2)
        a = estimate_oos(ds, labels, plan, clf_cfg=cfg)
        b = estimate_oos(ds, labels, plan, clf_cfg=cfg)
        assert (a.probs == b.probs).all()

    def test_fold_errors_are_annotated(self, fold_model):
        fold_model(broken_stub)
        ds = make_dataset(np.eye(4), np.tile(np.eye(2), (2, 1)))
        plan = plan_random(ds, k=2, seed=0)
        with pytest.raises(RuntimeError, match="fold 0: boom"):
            estimate_oos(ds, noisy_labels(ds), plan)

    def test_a_sample_no_fold_tests_is_an_error(self, fold_model):
        fold_model(uniform_stub)
        # a hand-built plan whose two folds test samples 0 and 2 only
        ds = make_dataset(np.eye(4), np.tile(np.eye(2), (2, 1)))
        plan = FoldPlan([(np.array([1, 2]), np.array([0])), (np.array([0, 3]), np.array([2]))])
        with pytest.raises(RuntimeError, match="sample 1 was not tested by any fold"):
            estimate_oos(ds, noisy_labels(ds), plan)


class TestAgainstReference:
    """``estimate_oos`` equals ``reference.ref_estimate_oos``, the fold-by-fold loop, bit for bit."""

    @pytest.mark.parametrize("lambda_rate", [0.0, 0.5])
    @pytest.mark.parametrize("strategy", STRATEGIES)
    @settings(max_examples=6, deadline=None)
    @given(n=st.integers(20, 150), num_classes=st.integers(2, 3), k=st.integers(2, 4),
           words=st.integers(0, 30), min_df=st.integers(1, 3),
           epochs=st.integers(1, 4), batch_size=st.sampled_from([1, 7, 32]),
           lr=st.sampled_from([0.05, 0.5, 50.0]), l2=st.sampled_from([0.0, 1e-3, 1.0]),
           seed=st.integers(0, 2**16))
    def test_estimate_oos_equals_the_fold_by_fold_loop(self, strategy, lambda_rate, n,
                                                       num_classes, k, words, min_df, epochs,
                                                       batch_size, lr, l2, seed):
        ds, _ = generate(SynthConfig(n_samples=n, n_classes=num_classes, n_lfs=6,
                                     words_per_doc=words, seed=seed))
        try:
            plan = build_plan(ds, strategy, k, lambda_rate, seed)
        except ValueError:
            reject()
        labels = noisy_labels(ds, seed)
        feat = FeaturizeConfig(min_df=min_df)
        clf = ClassifierConfig(learning_rate=lr, epochs=epochs, batch_size=batch_size, l2=l2,
                               seed=seed)
        try:
            want = ref_estimate_oos(ds, labels, plan, feat, clf)
        except RuntimeError as exc:
            with pytest.raises(RuntimeError) as info:
                estimate_oos(ds, labels, plan, feat, clf)
            assert str(info.value) == str(exc)
            return
        got = estimate_oos(ds, labels, plan, feat, clf)
        assert got.probs.tobytes() == want.probs.tobytes()
        assert got.prediction_count.tobytes() == want.prediction_count.tobytes()


class TestFoldErrorOrder:
    """A failing estimate raises the error of its lowest-index failing fold.

    With this learning rate and l2 the weights grow geometrically, so a fold
    diverges after a roughly fixed number of steps: the more training rows,
    the earlier the epoch.  A two-document fold has no term in three
    documents, so ``min_df=3`` leaves it an empty vocabulary.
    """

    CFG = ClassifierConfig(learning_rate=50.0, l2=1.0, epochs=20, patience=20, seed=3)

    @staticmethod
    def run(train_sizes):
        ds, _ = generate(SynthConfig(n_samples=400, n_classes=2, n_lfs=8, seed=41))
        rng = np.random.default_rng(7)
        folds = []
        for n in train_sizes:
            tr = np.sort(rng.choice(400, n, replace=False))
            folds.append((tr, np.setdiff1d(np.arange(400), tr)))
        plan = FoldPlan(folds)
        with pytest.raises(RuntimeError) as info:
            estimate_oos(ds, noisy_labels(ds, 41), plan, FeaturizeConfig(min_df=3),
                         TestFoldErrorOrder.CFG)
        return str(info.value)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_earlier_fold_diverging_later_wins(self):
        # fold 2 (300 rows) diverges at epoch 7, before fold 1 (200 rows) does
        assert self.run([60, 200, 300, 90]) == (
            "fold 1: non-finite loss at epoch 11; learning rate too large?")

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_before_later_featurization_error(self):
        assert self.run([300, 2, 60]) == (
            "fold 0: non-finite loss at epoch 7; learning rate too large?")

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_featurization_error_before_later_divergence(self):
        assert self.run([60, 2, 300]) == "fold 1: vocabulary is empty after min_df filtering"

    def test_first_fold_featurization_error_trains_nothing(self, monkeypatch):
        cut, trained = [], []
        fit_rows, group = crossval.fit_rows, crossval.train_group
        monkeypatch.setattr(crossval, "fit_rows",
                            lambda tc, rows, cfg: cut.append(len(rows)) or fit_rows(tc, rows, cfg))
        monkeypatch.setattr(crossval, "train_group",
                            lambda *a, **kw: trained.append(1) or group(*a, **kw))
        assert self.run([2, 60]) == "fold 0: vocabulary is empty after min_df filtering"
        assert cut == [2] and trained == []


class TestFoldGroups:
    """Fold models train in groups planned from their stored training counts, one at a time."""

    @staticmethod
    def group_sizes(monkeypatch, ds, plan, cfg, bound=None):
        sizes = []

        def recording(features, *args, **kwargs):
            features = list(features)
            sizes.append(len(features))
            return train_group(features, *args, **kwargs)

        monkeypatch.setattr(crossval, "train_group", recording)
        if bound is not None:
            monkeypatch.setattr(crossval, "_GROUP_NNZ", bound)
        oos = estimate_oos(ds, noisy_labels(ds, 3), plan, clf_cfg=cfg)
        return sizes, oos

    @pytest.mark.parametrize("strategy, lambda_rate", [("by_lf", 0.0), ("by_signature", 1.0)])
    def test_grouping_leaves_probabilities_bitwise_unchanged(self, monkeypatch, strategy,
                                                            lambda_rate):
        ds, _ = generate(SynthConfig(n_samples=300, n_classes=3, n_lfs=8, seed=3))
        plan = build_plan(ds, strategy, 5, lambda_rate, 3)
        cfg = ClassifierConfig(learning_rate=0.2, l2=1e-3, seed=3)
        alone, a = self.group_sizes(monkeypatch, ds, plan, cfg, bound=0)
        together, b = self.group_sizes(monkeypatch, ds, plan, cfg, bound=1 << 40)
        assert alone == [1] * 5 and together == [5]
        assert np.array_equal(a.probs, b.probs)
        assert np.array_equal(a.prediction_count, b.prediction_count)

    def test_short_documents_train_in_one_group(self, monkeypatch):
        ds, _ = generate(SynthConfig(n_samples=2000, n_lfs=10, seed=4))
        plan = build_plan(ds, "by_signature", 5, 0.0, 4)
        sizes, _ = self.group_sizes(monkeypatch, ds, plan, ClassifierConfig(epochs=1))
        assert sizes == [5]

    def test_300_word_documents_train_alone(self, monkeypatch):
        # 3000 documents of 300 words drawn from 2000 terms: each training fold
        # holds about 2400 documents of some 280 distinct terms, and any two
        # folds together are over the bound
        rng = np.random.default_rng(5)
        terms = np.array([f"w{i}" for i in range(2000)])
        texts = [" ".join(row) for row in terms[rng.integers(2000, size=(3000, 300))]]
        z = np.eye(10, dtype=np.int8)[np.arange(3000) % 10]
        ds = make_dataset(z, np.tile(np.eye(2), (5, 1)), texts=texts)
        plan = plan_random(ds, k=5, seed=5)
        sizes, _ = self.group_sizes(monkeypatch, ds, plan, ClassifierConfig(epochs=1))
        assert sizes == [1] * 5

    def test_groups_at_the_single_copy_bound_leave_probabilities_unchanged(self, monkeypatch):
        # 1000 documents of 400 words drawn from 2000 terms: each training fold
        # holds about 290k stored counts, so under the former bound of 2^19 every
        # fold trains alone, and under the current one in groups of 3 and 2
        rng = np.random.default_rng(9)
        terms = np.array([f"w{i}" for i in range(2000)])
        texts = [" ".join(row) for row in terms[rng.integers(2000, size=(1000, 400))]]
        z = np.eye(10, dtype=np.int8)[np.arange(1000) % 10]
        ds = make_dataset(z, np.tile(np.eye(2), (5, 1)), texts=texts)
        plan = plan_random(ds, k=5, seed=9)
        cfg = ClassifierConfig(epochs=2, seed=9)
        now, a = self.group_sizes(monkeypatch, ds, plan, cfg)
        before, _ = self.group_sizes(monkeypatch, ds, plan, cfg, bound=1 << 19)
        alone, b = self.group_sizes(monkeypatch, ds, plan, cfg, bound=0)
        assert now == [3, 2] and before == alone == [1] * 5
        assert np.array_equal(a.probs, b.probs)
        assert np.array_equal(a.prediction_count, b.prediction_count)

    def test_each_group_predicts_before_the_next_is_cut(self, monkeypatch):
        ds, _ = generate(SynthConfig(n_samples=200, n_lfs=8, seed=6))
        plan = build_plan(ds, "random", 4, 0.0, 6)
        trains = [tr.tolist() for tr, _ in plan.folds]
        tests = [te.tolist() for _, te in plan.folds]
        calls = []
        fit_rows, group, transform_rows = (crossval.fit_rows, crossval.train_group,
                                           crossval.transform_rows)

        def cutting(tc, rows, cfg):
            calls.append(("cut", trains.index(rows.tolist())))
            return fit_rows(tc, rows, cfg)

        def training(*args, **kwargs):
            calls.append(("train",))
            return group(*args, **kwargs)

        def predicting(tc, rows, vocab, columns):
            calls.append(("predict", tests.index(rows.tolist())))
            return transform_rows(tc, rows, vocab, columns)

        monkeypatch.setattr(crossval, "fit_rows", cutting)
        monkeypatch.setattr(crossval, "train_group", training)
        monkeypatch.setattr(crossval, "transform_rows", predicting)
        monkeypatch.setattr(crossval, "_GROUP_NNZ", 0)
        estimate_oos(ds, noisy_labels(ds, 6), plan, clf_cfg=ClassifierConfig(epochs=1))
        assert calls == [c for f in range(4) for c in (("cut", f), ("train",), ("predict", f))]

    @pytest.mark.parametrize("bound, sizes, groups", [
        (10, [3, 4, 3, 2, 8], [[0, 1, 2], [3, 4]]),     # groups that exactly fit the bound
        (10, [4, 11, 1, 12], [[0], [1], [2], [3]]),     # a fold over the bound runs alone
        (10, [11, 10, 5, 5], [[0], [1], [2, 3]]),
        (0, [5, 3, 7], [[0], [1], [2]]),
        (0, [0, 0, 4, 0], [[0, 1], [2], [3]]),          # empty folds still fit a bound of 0
    ])
    def test_groups(self, monkeypatch, bound, sizes, groups):
        monkeypatch.setattr(crossval, "_GROUP_NNZ", bound)
        assert crossval._groups(sizes) == groups

    def test_planned_sizes_are_the_fold_nonzeros(self, monkeypatch):
        ds, _ = generate(SynthConfig(n_samples=300, n_classes=3, n_lfs=8, seed=7))
        plan = build_plan(ds, "by_lf", 4, 1.0, 7)
        planned, nnz = [], []
        groups, fit_rows = crossval._groups, crossval.fit_rows

        def planning(sizes):
            planned.extend(int(s) for s in sizes)
            return groups(sizes)

        def cutting(tc, rows, cfg):
            vocab, columns, x = fit_rows(tc, rows, cfg)
            nnz.append(x.nnz)
            return vocab, columns, x

        monkeypatch.setattr(crossval, "_groups", planning)
        monkeypatch.setattr(crossval, "fit_rows", cutting)
        estimate_oos(ds, noisy_labels(ds, 7), plan, FeaturizeConfig(),
                     ClassifierConfig(epochs=1))
        assert planned == nnz and len(nnz) == 4
