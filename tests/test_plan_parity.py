"""Frozen fold plans: every planner must reproduce the recorded digests.

``tests/data/plan_digests.json`` maps each case of a fixed grid (small
datasets x 3 strategies x k x lambda x seed) to a digest of its fold arrays,
``lf_folds`` and ``sig_folds``, or to the text of the error the planner
raised.  Regenerate it only when a change to the fold plans is intended:

    PYTHONPATH=src python tests/test_plan_parity.py
"""

import hashlib
import json
import os

import numpy as np

from wsdenoise.crossval import STRATEGIES, build_plan

from conftest import make_dataset

FIXTURE = os.path.join(os.path.dirname(__file__), "data", "plan_digests.json")
KS = (2, 3, 5)
LAMBDAS = (0.0, 1.0)
SEEDS = (0, 7)


def _datasets():
    """Named LF match matrices: random ones plus hand-made edge cases."""
    rng = np.random.default_rng(20220414)
    out = {}
    for i in range(12):
        n = int(rng.integers(2, 41))
        l = int(rng.integers(1, 8))
        density = (0.15, 0.35, 0.6)[i % 3]
        out[f"rand{i:02d}"] = (rng.random((n, l)) < density).astype(np.int8)
    out["one_lf_each"] = np.eye(10, dtype=np.int8)
    out["all_match_all"] = np.ones((6, 3), dtype=np.int8)
    z = np.zeros((12, 4), dtype=np.int8)
    z[:8, :2] = np.array([[1, 0], [0, 1], [1, 1], [1, 0]] * 2)
    out["half_unmatched"] = z
    out["none_matched"] = np.zeros((5, 2), dtype=np.int8)
    out["large"] = (rng.random((300, 12)) < 0.15).astype(np.int8)
    return out


def _digest(plan) -> str:
    doc = {
        "folds": [[tr.tolist(), te.tolist()] for tr, te in plan.folds],
        "lf_folds": plan.lf_folds,
        "sig_folds": None if plan.sig_folds is None
        else [sorted(map(list, f)) for f in plan.sig_folds],
    }
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()[:20]


def plan_digests() -> dict:
    out = {}
    for name, z in _datasets().items():
        ds = make_dataset(z, np.ones((z.shape[1], 2)))
        for strategy in STRATEGIES:
            for k in KS:
                for lam in LAMBDAS:
                    for seed in SEEDS:
                        key = f"{name}/{strategy}/k{k}/lam{lam:g}/s{seed}"
                        try:
                            out[key] = _digest(build_plan(ds, strategy, k, lam, seed))
                        except ValueError as exc:
                            out[key] = f"error: {exc}"
    return out


def test_plans_match_frozen_digests():
    with open(FIXTURE, encoding="utf-8") as f:
        frozen = json.load(f)
    got = plan_digests()
    assert got.keys() == frozen.keys()
    diff = [key for key in frozen if got[key] != frozen[key]]
    assert not diff, f"{len(diff)} plans changed, first: {diff[0]}: {got[diff[0]]}"


if __name__ == "__main__":
    os.makedirs(os.path.dirname(FIXTURE), exist_ok=True)
    with open(FIXTURE, "w", encoding="utf-8") as f:
        json.dump(plan_digests(), f, indent=0, sort_keys=True)
        f.write("\n")
