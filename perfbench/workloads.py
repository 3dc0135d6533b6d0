"""The benchmark's three workloads: inputs, set-up, operations and output checks.

Each workload is a class with the same five members:

* ``__init__(seed, work_dir)`` makes the inputs from the seed (untimed);
* ``build()`` constructs the in-memory ``WeakDataset``s (timed as ``setup_s``);
* ``run(data, out_dir)`` runs the fixed list of denoising operations (timed as
  ``run_s``) and returns one ``(output, error)`` pair per operation;
* ``check(data, outputs)`` returns ``(problems, label_acc)``;
* ``ops`` and ``distinct_docs`` give the operations per round and the number
  of documents the round's inputs hold.

Every call into the package goes through a module attribute
(``ulf.run_ulf``, not a local copy), so the traced run's wrappers see it.
The checks call nothing in the package: they recompute from the outputs, or
test a property the method must have.
"""

from __future__ import annotations

import json
import os

import numpy as np

from wsdenoise import corpus, harness, synth, ulf, wscl
from wsdenoise.linear import ClassifierConfig

LR = 0.1


def derive_seeds(seed: int, workload_tag: int, count: int) -> list[int]:
    """Independent dataset seeds for one workload, from the benchmark seed."""
    state = np.random.SeedSequence([seed % 2**64, workload_tag]).generate_state(count)
    return [int(s) for s in state]


def _signatures(z) -> list[tuple]:
    z = z.tocsr()
    return [tuple(sorted(z.indices[z.indptr[i]:z.indptr[i + 1]].tolist()))
            for i in range(z.shape[0])]


def _matched(z) -> np.ndarray:
    return np.diff(z.tocsr().indptr) > 0


def majority_accuracy(ds) -> float:
    """Expected accuracy of the majority vote under uniform tie-breaking.

    Computed from Z, T and gold alone: a sample whose gold class is one of m
    tied top classes counts 1/m, an unmatched sample 1/K.
    """
    scores = np.asarray(ds.z @ ds.t)
    top = scores == scores.max(axis=1, keepdims=True)
    top[~_matched(ds.z)] = True
    return float((top[np.arange(len(ds.gold)), ds.gold] / top.sum(axis=1)).mean())


def _run_each(calls):
    outputs = []
    for call in calls:
        try:
            outputs.append((call(), None))
        except Exception as exc:  # a failed operation is counted, not fatal
            outputs.append((None, f"{type(exc).__name__}: {exc}"))
    return outputs


class UlfShort:
    """``run_ulf`` in the acceptance-5 shape on several synthetic datasets."""

    name = "ulf-short"
    tag = 1
    datasets = 5
    shape = dict(n_samples=2000, n_classes=2, n_lfs=10, coverage_target=0.87,
                 misallocated_lfs=[(0, 1)])

    def __init__(self, seed: int, work_dir: str):
        self.seeds = derive_seeds(seed, self.tag, self.datasets)
        self.ops = self.datasets
        self.distinct_docs = self.datasets * self.shape["n_samples"]

    def build(self):
        return [synth.generate(synth.SynthConfig(**self.shape, seed=s))[0] for s in self.seeds]

    def run(self, data, out_dir):
        def call(ds, s):
            cfg = ulf.UlfConfig(p=0.5, k=5, strategy="by_signature", max_iters=5,
                                lambda_rate=0.0, seed=s,
                                clf=ClassifierConfig(learning_rate=LR, seed=s))
            return lambda: ulf.run_ulf(ds, cfg, train_final=False)
        return _run_each(call(ds, s) for ds, s in zip(data, self.seeds))

    def check(self, data, outputs):
        problems, gains, hits, total = [], [], 0, 0
        for ds, (res, _) in zip(data, outputs):
            if res is None:
                continue
            t = res.refined_t
            if (t < 0).any() or not np.allclose(t.sum(axis=1), 1.0, rtol=0, atol=1e-12):
                problems.append("refined T rows are not nonnegative and summing to 1")
            for lf, _wrong in self.shape["misallocated_lfs"]:
                true = lf % ds.num_classes  # synth assigns LF j to class j mod K
                if not t[lf, true] > ds.t[lf, true]:
                    problems.append(f"rewired LF {lf} gained no weight on class {true}")
            probs = res.last_probs
            if not np.allclose(probs.probs.sum(axis=1), 1.0, rtol=0, atol=1e-9):
                problems.append("out-of-sample rows do not sum to 1")
            if (probs.prediction_count < 1).any():
                problems.append("a sample was never tested")
            problems += _signature_partition_problems(ds, res.last_plan.folds)
            labels = res.final_labels.labels
            acc = float((labels == ds.gold).mean())
            gains.append(acc - majority_accuracy(ds))
            hits += int((labels == ds.gold).sum())
            total += len(labels)
        if gains:
            if np.mean(gains) < 0.05:
                problems.append(f"mean gain over majority vote {np.mean(gains):.4f} < 0.05")
            if sum(g > 0 for g in gains) < 0.8 * len(gains):
                problems.append(f"ULF beat majority vote on {sum(g > 0 for g in gains)}"
                                f"/{len(gains)} datasets")
        return problems, (hits / total if total else float("nan"))


def _signature_partition_problems(ds, folds) -> list[str]:
    n = ds.n_samples
    fold_of = np.full(n, -1)
    tested = np.zeros(n, dtype=np.int64)
    for fi, (_train, test) in enumerate(folds):
        tested[test] += 1
        fold_of[test] = fi
    matched = _matched(ds.z)
    problems = []
    if (tested[matched] != 1).any():
        problems.append("by_signature test folds do not partition the matched samples")
    folds_of_sig: dict = {}
    for i, sig in enumerate(_signatures(ds.z)):
        if matched[i]:
            folds_of_sig.setdefault(sig, set()).add(int(fold_of[i]))
    if any(len(f) != 1 for f in folds_of_sig.values()):
        problems.append("a signature is split across test folds")
    return problems


class WsclLongdoc:
    """``run_wscl`` on long documents over a large vocabulary, K=4."""

    name = "wscl-longdoc"
    tag = 2
    shape = dict(n_samples=4000, n_classes=4, n_lfs=12, coverage_target=0.87,
                 misallocated_lfs=[(0, 1), (5, 2)], vocab_size=2000, words_per_doc=300)

    def __init__(self, seed: int, work_dir: str):
        (self.seed,) = derive_seeds(seed, self.tag, 1)
        self.ops = 1
        self.distinct_docs = self.shape["n_samples"]

    def build(self):
        return synth.generate(synth.SynthConfig(**self.shape, seed=self.seed))[0]

    def run(self, ds, out_dir):
        cfg = wscl.WsclConfig(k=5, strategy="by_signature", seed=self.seed,
                              clf=ClassifierConfig(learning_rate=LR, seed=self.seed))
        return _run_each([lambda: wscl.run_wscl(ds, cfg, train_final=False)])

    def check(self, ds, outputs):
        (res, _), = outputs
        if res is None:
            return [], float("nan")
        problems = []
        y = res.final_labels.labels
        p = res.last_probs.probs
        n, k = p.shape
        # thresholds, confident labels and the confident joint, recomputed
        th = np.array([p[y == j, j].mean() if (y == j).any() else 1.0 / k for j in range(k)])
        clears = p >= th
        conf = np.where(clears.any(axis=1), np.argmax(np.where(clears, p, -np.inf), axis=1), -1)
        has = conf >= 0
        joint = np.bincount(y[has] * k + conf[has], minlength=k * k).reshape(k, k)
        report = res.prune_report
        if not np.array_equal(joint, np.asarray(report["confident_joint"])):
            problems.append("confident joint differs from its recomputation")
        counts = np.bincount(y, minlength=k)
        rows = joint.sum(axis=1, keepdims=True)
        q = np.divide(joint * counts[:, None], rows, out=np.zeros((k, k)), where=rows > 0) / n
        if not np.allclose(q, np.asarray(report["joint_estimate"]), rtol=1e-12, atol=1e-15):
            problems.append("calibrated joint differs from its recomputation")
        budget = np.floor(n * q + 0.5).astype(np.int64)
        pruned = np.asarray(report["pruned_counts"])
        for i in range(k):
            available = int(counts[i])
            for j in range(k):
                want = 0 if i == j else min(int(budget[i, j]), available)
                if pruned[i, j] != want:
                    problems.append(f"pruned_counts[{i}][{j}]={pruned[i, j]}, expected {want}")
                available -= int(pruned[i, j])
        keep = res.keep_mask
        if int(keep.sum()) != n - int(pruned.sum()):
            problems.append("kept count is not N minus the pruned total")
        wrong = y != ds.gold
        if (~keep).any() and not wrong[~keep].mean() > wrong[keep].mean():
            problems.append("pruned samples are not mislabeled more often than kept ones")
        return problems, float((~wrong[keep]).mean())


class GridWscw:
    """``harness.grid_search`` of ``wscw`` over two epsilons, from TSV files."""

    name = "grid-wscw"
    tag = 3
    n_train, n_heldout = 8000, 1000
    shape = dict(n_classes=2, n_lfs=10, coverage_target=0.87, misallocated_lfs=[(0, 1)])
    epsilons = [0.5, 0.8]
    partitions = 3

    def __init__(self, seed: int, work_dir: str):
        s_train, s_dev, s_test, self.seed = derive_seeds(seed, self.tag, 4)
        self.ops = len(self.epsilons)
        self.distinct_docs = self.n_train + 2 * self.n_heldout
        d = os.path.join(work_dir, "inputs")
        os.makedirs(d)
        self.paths = {name: os.path.join(d, f"{name}.tsv")
                      for name in ("docs", "z", "t", "gold", "dev_docs", "dev_gold",
                                   "test_docs", "test_gold")}
        ds, _ = synth.generate(synth.SynthConfig(n_samples=self.n_train, **self.shape,
                                                 seed=s_train))
        corpus.save_dataset(ds, self.paths["docs"], self.paths["z"], self.paths["t"],
                            self.paths["gold"])
        self.gold = ds.gold
        self._write_heldout("dev", s_dev)
        self.test_gold = self._write_heldout("test", s_test)

    def _write_heldout(self, split: str, seed: int) -> np.ndarray:
        # held-out documents are short, so dev and test accuracy are informative
        held, _ = synth.generate(synth.SynthConfig(n_samples=self.n_heldout, **self.shape,
                                                   words_per_doc=4, seed=seed))
        with open(self.paths[f"{split}_docs"], "w", encoding="utf-8") as f:
            f.writelines(f"h{i}\t{text}\n" for i, text in enumerate(held.texts))
        with open(self.paths[f"{split}_gold"], "w", encoding="utf-8") as f:
            f.writelines(f"h{i}\t{g}\n" for i, g in enumerate(held.gold))
        return held.gold

    def build(self):
        p = self.paths
        return corpus.load_dataset(p["docs"], p["z"], p["t"], p["gold"])

    def run(self, ds, out_dir):
        p = self.paths
        base = harness.RunConfig(
            method="wscw", strategy="lfs", k=5, partitions=self.partitions, lr=LR,
            seed=self.seed, repeats=1, doc_path=p["docs"], z_path=p["z"], t_path=p["t"],
            gold_path=p["gold"], dev_doc_path=p["dev_docs"], dev_gold_path=p["dev_gold"],
            test_doc_path=p["test_docs"], test_gold_path=p["test_gold"], out_dir=out_dir)
        (out, err), = _run_each([lambda: harness.grid_search(base, {"epsilon": self.epsilons},
                                                             ds=ds)])
        return [(out_dir if err is None else None, err)] * self.ops

    def check(self, ds, outputs):
        out_dir, _ = outputs[0]
        if out_dir is None:
            return [], float("nan")
        problems = []
        with open(os.path.join(out_dir, "grid_results.json"), encoding="utf-8") as f:
            grid = json.load(f)
        dev = [r["dev_mean"] for r in grid["results"]]
        if grid["best_index"] != grid["results"][int(np.argmax(dev))]["grid_index"]:
            problems.append("best_index is not the first argmax of dev_mean")
        majority_share = np.bincount(self.test_gold).max() / len(self.test_gold)
        matched = _matched(ds.z)
        label_acc = None
        for r in grid["results"]:
            point = os.path.join(out_dir, f"grid_{r['grid_index']:04d}")
            eps = r["params"]["epsilon"]
            w, flags = _read_columns(os.path.join(point, "weights.tsv"), (float, int))
            (labels,) = _read_columns(os.path.join(point, "labels_corrected.tsv"), (int,))
            if (flags < 0).any() or (flags > self.partitions).any():
                problems.append(f"epsilon={eps}: flags outside [0, {self.partitions}]")
            if not np.allclose(w, eps ** flags.astype(float), rtol=1e-15, atol=0):
                problems.append(f"epsilon={eps}: weights differ from epsilon ** flags")
            if (flags[~matched] > 0).any():
                problems.append(f"epsilon={eps}: an unmatched sample was flagged")
            wrong = labels != self.gold
            flagged = flags > 0
            if not wrong[flagged].mean() > wrong[~flagged].mean():
                problems.append(f"epsilon={eps}: flagged samples are not mislabeled more often")
            if not r["test_mean"] > majority_share:
                problems.append(f"epsilon={eps}: test accuracy {r['test_mean']:.4f} does not "
                                f"beat the majority-class share {majority_share:.4f}")
            if r["grid_index"] == grid["best_index"]:
                label_acc = float((w * ~wrong).sum() / w.sum())
        return problems, label_acc


def _read_columns(path, types):
    """Columns 1.. of an ``id<TAB>...`` file, one array per requested type."""
    with open(path, encoding="utf-8") as f:
        rows = [line.rstrip("\n").split("\t")[1:] for line in f]
    return [np.array([typ(r[c]) for r in rows]) for c, typ in enumerate(types)]


WORKLOADS = {w.name: w for w in (UlfShort, WsclLongdoc, GridWscw)}
