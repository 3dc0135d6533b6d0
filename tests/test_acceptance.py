"""Acceptance gate: nine checks, one printed pass/fail line each.

Every check recomputes its expected values independently (brute force or
hand arithmetic) and runs at a pinned tolerance.  Run with ``pytest -s`` to
see the lines as they pass.
"""

import os
import time

import numpy as np
import pytest
import scipy.sparse as sp

from wsdenoise import cli
from wsdenoise.confidence import NO_LABEL, class_thresholds, confident_labels
from wsdenoise.corpus import LabelVector, dataset_stats, load_dataset, majority_vote
from wsdenoise.crossval import estimate_oos, plan_by_lf, plan_by_signature
from wsdenoise.linear import loss_and_grad
from wsdenoise.synth import SynthConfig, generate, inject_label_noise
from wsdenoise.ulf import (
    UlfConfig,
    calibrate,
    lf_confident_matrix,
    refine_t,
    run_ulf,
)
from wsdenoise.wscl import WsclConfig, class_confident_joint, run_wscl
from wsdenoise.wscw import WscwConfig, run_wscw
from wsdenoise.linear import ClassifierConfig

from conftest import gold_stub, random_instance, uniform_stub


def _report(num: int, name: str, ok: bool) -> None:
    print(f"\nacceptance {num} [{name}]: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance check {num} ({name}) failed"


class TestAcceptance:
    def test_01_brute_force_oracle_equivalence(self):
        rng = np.random.default_rng(101)
        start = time.monotonic()
        ok = True
        for _ in range(200):
            ds = random_instance(rng)
            zd = ds.z.toarray()
            n, l, k = ds.n_samples, ds.n_lfs, ds.num_classes
            seed = int(rng.integers(1 << 16))

            # majority vote, replayed by hand per sample
            got = majority_vote(ds, ds.t, seed)
            for i in range(n):
                scores = zd[i] @ ds.t
                if not zd[i].any():
                    want = np.random.default_rng([seed, i]).integers(k)
                else:
                    tied = np.flatnonzero(scores == scores.max())
                    if len(tied) == 1:
                        want = tied[0]
                    else:
                        want = tied[np.random.default_rng([seed, i]).integers(len(tied))]
                ok &= got.labels[i] == want

            # confident-count matrices against explicit loops
            conf = rng.integers(-1, k, size=n)
            cm = lf_confident_matrix(ds, conf)
            noisy = rng.integers(k, size=n)
            cj = class_confident_joint(noisy, conf, num_classes=k)
            exp_lf = np.zeros((l, k), dtype=int)
            exp_cc = np.zeros((k, k), dtype=int)
            for i in range(n):
                if conf[i] == NO_LABEL:
                    continue
                exp_cc[noisy[i], conf[i]] += 1
                for j in range(l):
                    if zd[i, j]:
                        exp_lf[j, conf[i]] += 1
            ok &= (cm == exp_lf).all() and (cj == exp_cc).all()

            # per-class mean thresholds
            probs = rng.dirichlet(np.ones(k), size=n)
            th = class_thresholds(probs, noisy)
            for c in range(k):
                rows = probs[noisy == c, c]
                want_t = rows.mean() if len(rows) else 1.0 / k
                ok &= abs(th[c] - want_t) < 1e-12
        elapsed = time.monotonic() - start
        ok &= elapsed < 30.0
        _report(1, "brute-force oracle equivalence", ok)

    def test_02_calibration_invariants(self):
        rng = np.random.default_rng(102)
        ok = True
        for _ in range(50):
            ds = random_instance(rng)
            conf = rng.integers(-1, ds.num_classes, size=ds.n_samples)
            c = lf_confident_matrix(ds, conf)
            q = calibrate(c, ds)
            matches = np.asarray(ds.z.sum(axis=0)).ravel()
            for lf in range(ds.n_lfs):
                if c[lf].sum() > 0:  # informative: any confident co-occurrence
                    ok &= abs(q[lf].sum() - matches[lf]) <= 1e-9
            for p in (0.25, 0.5, 0.9):
                out = refine_t(ds.t, q, p)
                ok &= np.abs(out.sum(axis=1) - 1.0).max() <= 1e-9
            ok &= (refine_t(ds.t, q, 0.0) == ds.t).all()
        _report(2, "calibration invariants and p=0 identity", ok)

    def test_03_gradient_check(self):
        rng = np.random.default_rng(103)
        start = time.monotonic()
        ok = True
        eps = 1e-6
        for _ in range(50):
            n = int(rng.integers(3, 12))
            d = int(rng.integers(2, 6))
            k = int(rng.integers(2, 4))
            x = rng.normal(size=(n, d))
            y = rng.integers(k, size=n)
            sw = rng.uniform(0.1, 2.0, size=n)
            l2 = float(rng.uniform(0.0, 0.3))
            batch = sp.csr_array(x)
            csr = (batch.indptr, batch.indices, batch.data)  # as loss_and_grad takes it
            w = rng.normal(scale=0.5, size=(d, k))
            b = rng.normal(scale=0.5, size=k)
            _, gw, gb = loss_and_grad(w, b, *csr, y, sw, l2)

            num_w = np.zeros_like(w)
            for a in range(d):
                for c in range(k):
                    wp, wm = w.copy(), w.copy()
                    wp[a, c] += eps
                    wm[a, c] -= eps
                    lp, _, _ = loss_and_grad(wp, b, *csr, y, sw, l2)
                    lm, _, _ = loss_and_grad(wm, b, *csr, y, sw, l2)
                    num_w[a, c] = (lp - lm) / (2 * eps)
            num_b = np.zeros_like(b)
            for c in range(k):
                bp, bm = b.copy(), b.copy()
                bp[c] += eps
                bm[c] -= eps
                lp, _, _ = loss_and_grad(w, bp, *csr, y, sw, l2)
                lm, _, _ = loss_and_grad(w, bm, *csr, y, sw, l2)
                num_b[c] = (lp - lm) / (2 * eps)

            num = np.concatenate([num_w.ravel(), num_b.ravel()])
            ana = np.concatenate([gw.ravel(), gb.ravel()])
            rel = np.linalg.norm(num - ana) / max(np.linalg.norm(num), 1e-12)
            ok &= rel < 1e-4
        ok &= (time.monotonic() - start) < 10.0
        _report(3, "analytic gradient vs central differences", ok)

    def test_04_fold_plan_properties(self, fold_model):
        fold_model(uniform_stub)
        rng = np.random.default_rng(104)
        ok = True
        done = 0
        while done < 100:
            ds = random_instance(rng, n_max=60)
            zd = ds.z.toarray().astype(bool)
            matched = np.flatnonzero(ds.matched_mask)
            sigs = ds.signatures()
            distinct = {sigs[i] for i in matched}
            if ds.n_lfs < 2 or len(distinct) < 2 or len(matched) < 2:
                continue
            seed = int(rng.integers(1 << 16))

            # by-LF: no train sample touches a held-out LF (dense random Z can
            # make the split infeasible; such draws are resampled)
            try:
                plan = plan_by_lf(ds, 2, 0.0, seed)
            except ValueError:
                continue
            done += 1
            for (tr, te), held in zip(plan.folds, plan.lf_folds):
                held = sorted(held)
                for i in tr:
                    ok &= not zd[i, held].any()
            probs = estimate_oos(ds, majority_vote(ds, ds.t, seed), plan)
            ok &= (probs.prediction_count >= 1).all()

            # by-signature: test folds partition matched samples, and every
            # fold is constant on signature classes
            plan = plan_by_signature(ds, 2, 0.0, seed)
            seen = np.zeros(ds.n_samples, dtype=int)
            for (tr, te), held in zip(plan.folds, plan.sig_folds):
                seen[te] += 1
                held = set(held)
                for i in te:
                    if ds.matched_mask[i]:
                        ok &= sigs[i] in held
            ok &= (seen == 1).all()
            probs = estimate_oos(ds, majority_vote(ds, ds.t, seed), plan)
            ok &= (probs.prediction_count >= 1).all()
        _report(4, "fold-plan structural properties", ok)

    def test_05_end_to_end_label_improvement(self):
        start = time.monotonic()
        wins, base_accs, ulf_accs = 0, [], []
        for seed in range(10):
            ds, _ = generate(SynthConfig(n_samples=2000, n_classes=2, n_lfs=10,
                                         coverage_target=0.87,
                                         misallocated_lfs=[(0, 1)], seed=seed))
            base = (majority_vote(ds, ds.t, seed).labels == ds.gold).mean()
            cfg = UlfConfig(p=0.5, k=5, strategy="by_signature", max_iters=5,
                            lambda_rate=0.0, seed=seed,
                            clf=ClassifierConfig(learning_rate=1e-1, seed=seed))
            res = run_ulf(ds, cfg, train_final=False)
            acc = (res.final_labels.labels == ds.gold).mean()
            base_accs.append(base)
            ulf_accs.append(acc)
            wins += acc > base
        gain = np.mean(ulf_accs) - np.mean(base_accs)
        elapsed = time.monotonic() - start
        ok = gain >= 0.05 and wins >= 8 and elapsed < 300.0
        _report(5, f"denoising gain {gain:+.3f}, wins {wins}/10, {elapsed:.0f}s", ok)

    def test_06_identity_configuration(self):
        ok = True
        for seed in (0, 7, 42):
            ds, _ = generate(SynthConfig(n_samples=300, seed=seed,
                                         coverage_target=0.8))
            cfg = UlfConfig(p=0.0, lambda_rate=0.0, max_iters=1, k=3,
                            strategy="by_signature", seed=seed,
                            clf=ClassifierConfig(epochs=3, seed=seed))
            res = run_ulf(ds, cfg, train_final=False)
            base = majority_vote(ds, ds.t, seed)
            ok &= (res.final_labels.labels == base.labels).all()
            ok &= (res.refined_t == ds.t).all()
        _report(6, "p=0, lambda=0, single-pass identity", ok)

    def test_07_downweighting_and_pruning_sanity(self, fold_model):
        fold_model(gold_stub)
        rate = 0.20
        wscw_hits = wscl_hits = 0
        for seed in range(10):
            ds, _ = generate(SynthConfig(n_samples=600, seed=seed,
                                         lf_precision=1.0, coverage_target=0.95))
            flipped, flip_mask = inject_label_noise(ds.gold, rate,
                                                    ds.num_classes, seed=seed)
            noisy = LabelVector(flipped)

            weights, _ = run_wscw(ds, WscwConfig(k=4, partitions=2, seed=seed),
                                  train_final=False, noisy=noisy)
            flagged = (weights.flags > 0) & ds.matched_mask
            if flagged.any() and flip_mask[flagged].mean() >= 2 * rate:
                wscw_hits += 1

            res = run_wscl(ds, WsclConfig(k=4, seed=seed), train_final=False, noisy=noisy)
            pruned = ~res.keep_mask
            if pruned.any() and flip_mask[pruned].mean() >= 2 * rate:
                wscl_hits += 1
        ok = wscw_hits >= 8 and wscl_hits >= 8

        # no injected noise + faithful fold models: almost nothing is touched
        for seed in range(3):
            ds, _ = generate(SynthConfig(n_samples=600, seed=100 + seed,
                                         lf_precision=1.0, coverage_target=0.95))
            clean = LabelVector(ds.gold.copy())
            res = run_wscl(ds, WsclConfig(k=4, seed=seed), train_final=False, noisy=clean)
            ok &= (~res.keep_mask).mean() <= 0.02
            weights, _ = run_wscw(ds, WscwConfig(k=4, partitions=2, seed=seed),
                                  train_final=False, noisy=clean)
            ok &= (weights.w == 1.0).mean() >= 0.95
        _report(7, "flip detection and clean-data restraint", ok)

    def test_08_user_supplied_dataset(self):
        data_dir = os.environ.get("WSDENOISE_REALDATA_DIR")
        if not data_dir:
            print("\nacceptance 8 [user-supplied dataset]: SKIP "
                  "(set WSDENOISE_REALDATA_DIR to docs.tsv/z.tsv/t.tsv/gold.tsv)")
            pytest.skip("no user-supplied dataset")
        ds = load_dataset(os.path.join(data_dir, "docs.tsv"),
                          os.path.join(data_dir, "z.tsv"),
                          os.path.join(data_dir, "t.tsv"),
                          os.path.join(data_dir, "gold.tsv"))
        stats = dataset_stats(ds)
        ok = abs(stats["coverage"] - 0.87) <= 0.03
        ok &= abs(stats["majority_accuracy_mean"] - 0.82) <= 0.03
        cfg = UlfConfig(p=0.5, k=8, strategy="by_signature", max_iters=5,
                        seed=0, clf=ClassifierConfig(learning_rate=1e-2, seed=0))
        res = run_ulf(ds, cfg, train_final=False)
        acc = (res.final_labels.labels == ds.gold).mean()
        ok &= acc > stats["majority_accuracy_mean"]
        _report(8, "user-supplied dataset", ok)

    def test_09_cli_determinism(self, tmp_path):
        data = str(tmp_path / "data")
        assert cli.main(["synth", "--n_samples", "200", "--seed", "11",
                         "--out_dir", data]) == 0
        blobs = []
        for name in ("first", "second"):
            out = tmp_path / name
            assert cli.main([
                "ulf",
                "--doc_path", f"{data}/docs.tsv", "--z_path", f"{data}/z.tsv",
                "--t_path", f"{data}/t.tsv", "--gold_path", f"{data}/gold.tsv",
                "--out_dir", str(out), "--epochs", "3", "--iters", "2",
                "--k", "3", "--seed", "13", "--repeats", "2",
            ]) == 0
            blobs.append({f: (out / f).read_bytes()
                          for f in ("metrics.json", "labels_corrected.tsv",
                                    "t_refined.tsv")})
        ok = blobs[0] == blobs[1]
        _report(9, "byte-identical reruns", ok)
