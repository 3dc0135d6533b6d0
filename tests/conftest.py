import numpy as np
import pytest
import scipy.sparse as sp

from wsdenoise import crossval
from wsdenoise.corpus import WeakDataset


def make_dataset(z, t, texts=None, gold=None, num_classes=None, ids=None):
    """Build a WeakDataset from dense arrays for tests."""
    z = np.asarray(z, dtype=np.int8)
    t = np.asarray(t, dtype=float)
    n = z.shape[0]
    k = num_classes or t.shape[1]
    if texts is None:
        texts = [f"doc {i}" for i in range(n)]
    return WeakDataset(
        texts=list(texts),
        ids=[str(i) for i in range(n)] if ids is None else list(ids),
        z=sp.csr_array(z),
        t=t,
        num_classes=k,
        gold=None if gold is None else np.asarray(gold, dtype=np.int64),
    )


def random_instance(rng, n_max=50, l_max=8, k_max=4):
    """Random small dataset for brute-force oracle comparisons."""
    n = int(rng.integers(2, n_max + 1))
    l = int(rng.integers(1, l_max + 1))
    k = int(rng.integers(2, k_max + 1))
    z = (rng.random((n, l)) < 0.35).astype(np.int8)
    t = np.zeros((l, k))
    t[np.arange(l), rng.integers(k, size=l)] = 1.0
    return make_dataset(z, t)


def uniform_stub(ds, train_idx, labels, test_idx):
    """Fold model stub: always-uniform probabilities."""
    k = ds.num_classes
    return np.full((len(test_idx), k), 1.0 / k)


def echo_stub(ds, train_idx, labels, test_idx):
    """Fold model stub: one-hot echo of the provided noisy labels."""
    p = np.zeros((len(test_idx), ds.num_classes))
    p[np.arange(len(test_idx)), labels[test_idx]] = 1.0
    return p


def gold_stub(ds, train_idx, labels, test_idx):
    """Fold model stub: a faithful model, one-hot on the gold class."""
    return echo_stub(ds, train_idx, ds.gold, test_idx)


def broken_stub(ds, train_idx, labels, test_idx):
    """Fold model stub: every fold fails."""
    raise ValueError("boom")


@pytest.fixture
def fold_model(monkeypatch):
    """``fold_model(stub)`` replaces the fold model for the rest of the test.

    Fold f then predicts ``stub(ds, train_idx, labels, test_idx)`` for its
    train and test indices, in place of TF-IDF + logistic regression.  The
    folds still run lazily in order, so ``estimate_oos`` annotates, orders
    and checks them as it does the real ones.
    """
    def install(stub):
        monkeypatch.setattr(crossval, "_fold_probs", lambda ds, y, plan, *_: (
            stub(ds, tr, y, te) for tr, te in plan.folds))
    return install


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
