import codecs
import itertools
import os
import re
import tempfile

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from wsdenoise.corpus import (
    WeakDataset,
    dataset_stats,
    load_dataset,
    majority_vote,
    save_dataset,
)
from wsdenoise.synth import SynthConfig, generate

from conftest import make_dataset, random_instance
from reference import ref_majority_vote


def write_files(tmp_path, docs, z_lines, t_lines, gold=None):
    doc_p = tmp_path / "docs.tsv"
    doc_p.write_text("".join(f"{i}\t{t}\n" for i, t in docs))
    z_p = tmp_path / "z.tsv"
    z_p.write_text("".join(l + "\n" for l in z_lines))
    t_p = tmp_path / "t.tsv"
    t_p.write_text("".join(l + "\n" for l in t_lines))
    g_p = None
    if gold is not None:
        g_p = tmp_path / "gold.tsv"
        g_p.write_text("".join(f"{i}\t{c}\n" for i, c in gold))
    return doc_p, z_p, t_p, g_p


def _stored_zero_dataset():
    """Z = [[1, 0], [0, 1]] with its 0 at (0, 1) stored: a stored 0 is no match."""
    z = sp.csr_array((np.array([1, 0, 1], dtype=np.int8), np.array([0, 1, 1]),
                      np.array([0, 2, 3])), shape=(2, 2))
    return WeakDataset(texts=["x", "y"], ids=["a", "b"], z=z, t=np.eye(2), num_classes=2)


class TestLoadDataset:
    def test_smallest_well_formed(self, tmp_path):
        paths = write_files(
            tmp_path,
            docs=[("a", "hello"), ("b", "world"), ("c", "again")],
            z_lines=["3 2", "a\t0", "b\t1"],
            t_lines=["2 2", "0\t0", "1\t1"],
        )
        ds = load_dataset(*paths[:3])
        assert (ds.n_samples, ds.n_lfs, ds.num_classes) == (3, 2, 2)
        assert ds.ids == ["a", "b", "c"]

    def test_byte_order_marks_are_skipped(self, tmp_path):
        paths = write_files(
            tmp_path,
            docs=[("a", "hello"), ("b", "world")],
            z_lines=["2 2", "a\t0", "b\t1"],
            t_lines=["2 2", "0\t0", "1\t1"],
            gold=[("a", 0), ("b", 1)],
        )
        for p in paths:
            p.write_bytes(codecs.BOM_UTF8 + p.read_bytes())
        ds = load_dataset(*paths)
        assert ds.ids == ["a", "b"]
        assert ds.gold.tolist() == [0, 1]
        assert ds.z.toarray().tolist() == [[1, 0], [0, 1]]

    def test_lf_index_out_of_range(self, tmp_path):
        paths = write_files(
            tmp_path,
            docs=[("a", "x"), ("b", "y")],
            z_lines=["2 2", "a\t5"],
            t_lines=["2 2", "0\t0", "1\t1"],
        )
        with pytest.raises(ValueError, match="LF index out of range"):
            load_dataset(*paths[:3])

    def test_t_row_not_one_hot(self, tmp_path):
        paths = write_files(
            tmp_path,
            docs=[("a", "x")],
            z_lines=["1 2", "a\t0"],
            t_lines=["2 2", "0\t0", "0\t1", "1\t0"],
        )
        with pytest.raises(ValueError, match="one-hot"):
            load_dataset(*paths[:3])

    def test_errors_carry_line_numbers(self, tmp_path):
        paths = write_files(
            tmp_path,
            docs=[("a", "x")],
            z_lines=["1 1", "a 0"],
            t_lines=["1 2", "0\t0"],
        )
        with pytest.raises(ValueError, match="line 2"):
            load_dataset(*paths[:3])

    @pytest.mark.parametrize("z_header, t_header, where", [
        ("2 -1", "-1 2", "z.tsv line 1: declared L=-1 is negative"),
        ("2 1", "1 -2", "t.tsv line 1: declared K=-2, but need at least 2 classes"),
        ("2 1", "1 1", "t.tsv line 1: declared K=1, but need at least 2 classes"),
    ])
    def test_bad_header_dimensions_name_file_and_line(self, tmp_path, z_header, t_header,
                                                      where):
        paths = write_files(tmp_path, docs=[("a", "x"), ("b", "y")], z_lines=[z_header],
                            t_lines=[t_header])
        with pytest.raises(ValueError) as info:
            load_dataset(*paths[:3])
        assert str(info.value).endswith(where)

    GOOD = {"docs": ["a\tx", "b\ty"], "z": ["2 2", "a\t0", "b\t1"],
            "t": ["2 2", "0\t0", "1\t1"], "gold": ["a\t0", "b\t1"]}

    @pytest.mark.parametrize("name, lines, where", [
        ("docs", ["a\tx", "b y"], "docs.tsv line 2: expected 'id<TAB>text'"),
        ("gold", ["a\t0", "c\t1"], "gold.tsv line 2: unknown sample id 'c'"),
        ("gold", ["a\t0", "b\t2"], "gold.tsv line 2: class index out of range (K=2)"),
        ("z", ["2"], "z.tsv line 1: expected header 'N L'"),
        ("z", ["3 2"], "z.tsv line 1: declared N=3 but documents file has 2"),
        ("z", ["2 2", "a\t0", "c\t1"], "z.tsv line 3: unknown sample id 'c'"),
        ("z", ["2 2", "a\tone"], "z.tsv line 2: lf_id must be an integer"),
        ("t", ["2 two"], "t.tsv line 1: expected header 'L K'"),
        ("t", ["3 2"], "t.tsv line 1: declared L=3 but Z file has L=2"),
        ("t", ["2 2", "0"], "t.tsv line 2: expected 'lf_id<TAB>class_id'"),
        ("t", ["2 2", "0\tx"], "t.tsv line 2: indices must be integers"),
        ("t", ["2 2", "0\t0", "2\t1"], "t.tsv line 3: LF index out of range"),
        ("t", ["2 2", "0\t0", "1\t2"], "t.tsv line 3: class index out of range (K=2)"),
    ])
    def test_bad_line_names_file_and_line(self, tmp_path, name, lines, where):
        paths = []
        for key in ("docs", "z", "t", "gold"):
            paths.append(tmp_path / f"{key}.tsv")
            paths[-1].write_text("".join(f"{line}\n" for line in {**self.GOOD, name: lines}[key]))
        with pytest.raises(ValueError) as info:
            load_dataset(*paths)
        assert str(info.value).endswith(where)

    def test_keyword_lf_layout_dimensions(self, tmp_path):
        # 10 keyword LFs over 2 classes, a typical spam-filtering layout
        docs = [(f"s{i}", f"comment number {i}") for i in range(30)]
        z_lines = ["30 10"] + [f"s{i}\t{i % 10}" for i in range(30)]
        t_lines = ["10 2"] + [f"{j}\t{j % 2}" for j in range(10)]
        paths = write_files(tmp_path, docs, z_lines, t_lines)
        ds = load_dataset(*paths[:3])
        assert ds.n_lfs == 10 and ds.num_classes == 2

    # int8 sums wrapped: 128 copies of a pair loaded as -128, 256 as a silent 0
    @pytest.mark.parametrize("copies", [1, 2, 127, 128, 255, 256])
    def test_repeated_pairs_are_one_match(self, tmp_path, copies):
        paths = write_files(
            tmp_path,
            docs=[("a", "x"), ("b", "y")],
            z_lines=["2 2", *["a\t1"] * copies, "b\t0"],
            t_lines=["2 2", "0\t0", "1\t1"],
        )
        ds = load_dataset(*paths[:3])
        assert ds.z.dtype == np.int8 and ds.z.data.tolist() == [1, 1]
        assert ds.z.toarray().tolist() == [[0, 1], [1, 0]]
        assert ds.lf_hits.tolist() == [1, 1] and ds.signatures() == [(1,), (0,)]

    def test_save_writes_no_stored_zero(self, tmp_path):
        ds = _stored_zero_dataset()
        paths = [tmp_path / n for n in ("docs.tsv", "z.tsv", "t.tsv")]
        save_dataset(ds, *paths)
        assert paths[1].read_text() == "2 2\na\t0\nb\t1\n"
        back = load_dataset(*paths)
        assert back.lf_hits.tolist() == ds.lf_hits.tolist() == [1, 1]
        np.testing.assert_array_equal(back.z.toarray(), ds.z.toarray())
        assert ds.z.nnz == 3  # on a copy: Z keeps its stored zero

    def test_round_trip_bit_identical(self, tmp_path):
        docs = [("a", "hello there"), ("b", "bye"), ("c", "again now")]
        paths = write_files(
            tmp_path, docs,
            z_lines=["3 2", "a\t0", "b\t1", "c\t0"],
            t_lines=["2 2", "0\t0", "1\t1"],
            gold=[("a", 0), ("b", 1), ("c", 0)],
        )
        ds = load_dataset(*paths)
        out = [tmp_path / n for n in ("d2.tsv", "z2.tsv", "t2.tsv", "g2.tsv")]
        save_dataset(ds, *out)
        out2 = [tmp_path / n for n in ("d3.tsv", "z3.tsv", "t3.tsv", "g3.tsv")]
        save_dataset(load_dataset(*out), *out2)
        for a, b in zip(out, out2):
            assert a.read_bytes() == b.read_bytes()


    def test_save_writes_back_the_bytes_it_loaded(self, tmp_path):
        files = {"docs.tsv": "a\théllo wörld\nß\tünïcode\n",
                 "z.tsv": "2 3\na\t0\na\t2\nß\t1\n",
                 "t.tsv": "3 2\n0\t0\n1\t1\n2\t0\n",
                 "gold.tsv": "a\t0\nß\t1\n"}
        for name, text in files.items():
            (tmp_path / name).write_bytes(text.encode("utf-8"))
        out = [tmp_path / f"saved_{name}" for name in files]
        save_dataset(load_dataset(*(tmp_path / name for name in files)), *out)
        assert [p.read_bytes().decode("utf-8") for p in out] == list(files.values())

    # every character str.splitlines breaks at, apart from \n and \r
    @pytest.mark.parametrize("sep", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                                     "\u2028", "\u2029"])
    def test_round_trip_keeps_other_line_separators(self, tmp_path, sep):
        ds = make_dataset([[1, 0], [0, 1]], [[1, 0], [0, 1]], texts=[f"a{sep}b", sep],
                          ids=[f"x{sep}", "y"], gold=[0, 1])
        paths = [tmp_path / n for n in ("docs.tsv", "z.tsv", "t.tsv", "gold.tsv")]
        save_dataset(ds, *paths)
        back = load_dataset(*paths)
        assert back.ids == ds.ids and back.texts == ds.texts
        assert back.gold.tolist() == [0, 1] and back.z.toarray().tolist() == [[1, 0], [0, 1]]

    @pytest.mark.parametrize("sid, text, why", [
        ("a\tb", "x", "an id cannot hold"), ("a\nb", "x", "an id cannot hold"),
        ("a\rb", "x", "an id cannot hold"), ("\ufeffa", "x", "byte-order mark"),
        ("ok", "x\ny", "its text holds a line break"),
        ("ok", "x\ry", "its text holds a line break"),
    ])
    def test_save_rejects_what_would_load_differently(self, tmp_path, sid, text, why):
        ds = make_dataset([[1], [1]], [[1, 0]], texts=["fine", text], ids=["first", sid])
        paths = [tmp_path / n for n in ("docs.tsv", "z.tsv", "t.tsv")]
        with pytest.raises(ValueError, match=f"sample id {re.escape(repr(sid))}: .*{why}"):
            save_dataset(ds, *paths)
        assert not any(p.exists() for p in paths)

    def test_lines_split_at_newlines_only(self, tmp_path):
        doc_p = tmp_path / "docs.tsv"
        doc_p.write_text("a\tone\u2028two\nb\t\n\n", encoding="utf-8")
        (tmp_path / "z.tsv").write_text("2 1\nb\t0\n")
        (tmp_path / "t.tsv").write_text("1 2\r\n0\t1\r\n")
        ds = load_dataset(doc_p, tmp_path / "z.tsv", tmp_path / "t.tsv")
        assert ds.ids == ["a", "b"] and ds.texts == ["one\u2028two", ""]
        assert ds.z.toarray().tolist() == [[0], [1]] and ds.t.tolist() == [[0.0, 1.0]]
        for name in ("z.tsv", "t.tsv"):
            (tmp_path / name).write_text("")
            with pytest.raises(ValueError, match=f"{name}: empty file"):
                load_dataset(doc_p, tmp_path / "z.tsv", tmp_path / "t.tsv")
            (tmp_path / name).write_text({"z.tsv": "2 1\n", "t.tsv": "1 2\n0\t1\n"}[name])


# what one TSV field can hold: no tab (in an id) or line break, no leading
# byte-order mark (in an id), no lone surrogate (not encodable as UTF-8)
_TEXT = st.text(st.characters(exclude_categories=("Cs",), exclude_characters="\n\r"),
                max_size=20)
_ID = st.text(st.characters(exclude_categories=("Cs",), exclude_characters="\t\n\r"),
              max_size=20).filter(lambda s: not s.startswith("\ufeff"))


@st.composite
def tsv_datasets(draw):
    n = draw(st.integers(1, 12))
    n_lfs = draw(st.integers(1, 5))
    k = draw(st.integers(2, 4))
    t = np.zeros((n_lfs, k))
    t[np.arange(n_lfs), draw(arrays(np.int64, n_lfs, elements=st.integers(0, k - 1)))] = 1.0
    gold = draw(st.none() | arrays(np.int64, n, elements=st.integers(0, k - 1)))
    return make_dataset(draw(arrays(np.int8, (n, n_lfs), elements=st.integers(0, 1))), t,
                        texts=draw(st.lists(_TEXT, min_size=n, max_size=n)), gold=gold,
                        ids=draw(st.lists(_ID, min_size=n, max_size=n, unique=True)))


class TestRoundTripProperties:
    @settings(max_examples=200, deadline=None)
    @given(tsv_datasets())
    def test_save_then_load_returns_the_dataset(self, ds):
        with tempfile.TemporaryDirectory() as tmp:
            paths = [os.path.join(tmp, n) for n in ("docs.tsv", "z.tsv", "t.tsv", "gold.tsv")]
            if ds.gold is None:
                paths[3] = None
            save_dataset(ds, *paths)
            back = load_dataset(*paths)
        assert back.ids == ds.ids
        assert back.texts == ds.texts
        np.testing.assert_array_equal(back.z.toarray(), ds.z.toarray())
        np.testing.assert_array_equal(back.t, ds.t)
        assert back.num_classes == ds.num_classes
        if ds.gold is None:
            assert back.gold is None
        else:
            np.testing.assert_array_equal(back.gold, ds.gold)


def _two_loop_vote(ds, t, seed):
    """The vote that broke matched ties and drew unmatched classes in two loops."""
    scores = ds.z @ t
    labels = np.argmax(scores, axis=1).astype(np.int64)
    matched = ds.matched_mask
    row_max = scores.max(axis=1)
    n_tied = (scores == row_max[:, None]).sum(axis=1)
    for i in np.flatnonzero(matched & (n_tied > 1)):
        tied = np.flatnonzero(scores[i] == row_max[i])
        labels[i] = tied[np.random.default_rng([seed, int(i)]).integers(len(tied))]
    for i in np.flatnonzero(~matched):
        labels[i] = np.random.default_rng([seed, int(i)]).integers(ds.num_classes)
    return labels


class TestMajorityVote:
    def test_agreeing_lfs_win(self):
        # two LFs both mapped to class 1 -> class 1
        ds = make_dataset([[1, 1]], [[0, 1], [0, 1]])
        lv = majority_vote(ds, ds.t, 0)
        assert lv.labels[0] == 1

    def test_tie_is_seeded_random(self):
        ds = make_dataset([[1, 1]] * 200, [[1, 0], [0, 1]])
        lv1 = majority_vote(ds, ds.t, 7)
        lv2 = majority_vote(ds, ds.t, 7)
        np.testing.assert_array_equal(lv1.labels, lv2.labels)
        # both classes occur across samples under a fixed seed
        assert set(np.unique(lv1.labels)) == {0, 1}

    def test_unmatched_gets_random_class_and_mask(self):
        ds = make_dataset([[0, 0]] * 100, [[1, 0], [0, 1]])
        lv = majority_vote(ds, ds.t, 3)
        assert set(np.unique(lv.labels)) == {0, 1}

    def test_fractional_row_argmax(self):
        ds = make_dataset([[1]], [[0.8, 0.2]])
        assert majority_vote(ds, ds.t, 0).labels[0] == 0

    def test_strict_maximum_is_seed_independent(self, rng):
        ds = random_instance(rng)
        scores = ds.z.toarray() @ ds.t
        strict = (scores == scores.max(axis=1, keepdims=True)).sum(axis=1) == 1
        strict &= ds.matched_mask
        ref = majority_vote(ds, ds.t, 0).labels
        for seed in (1, 2, 99):
            lv = majority_vote(ds, ds.t, seed)
            np.testing.assert_array_equal(lv.labels[strict], ref[strict])

    def test_brute_force_oracle(self, rng):
        for _ in range(30):
            ds = random_instance(rng)
            lv = majority_vote(ds, ds.t, 11)
            zd = ds.z.toarray()
            for i in range(ds.n_samples):
                score = np.zeros(ds.num_classes)
                for j in range(ds.n_lfs):
                    if zd[i, j]:
                        score += ds.t[j]
                if not zd[i].any():
                    continue
                tied = np.flatnonzero(score == score.max())
                assert lv.labels[i] in tied
                if len(tied) == 1:
                    assert lv.labels[i] == tied[0]

    @pytest.mark.parametrize("kind", ["one_hot", "fractional", "all_ones"])
    def test_equals_the_two_loop_vote(self, rng, kind):
        for _ in range(50):
            ds = random_instance(rng)
            if kind == "fractional":
                t = rng.random(ds.t.shape) * (rng.random(ds.t.shape) < 0.7)
                t[np.arange(ds.n_lfs), rng.integers(ds.num_classes, size=ds.n_lfs)] += 0.5
            else:
                t = ds.t if kind == "one_hot" else np.ones_like(ds.t)
            for seed in (0, 5):
                lv = majority_vote(ds, t, seed)
                np.testing.assert_array_equal(lv.labels, _two_loop_vote(ds, t, seed))

    def test_rejects_bad_t(self):
        ds = make_dataset([[1]], [[1.0, 0.0]])
        with pytest.raises(ValueError):
            majority_vote(ds, np.array([[0.0, 0.0]]), 0)
        with pytest.raises(ValueError, match="t_matrix shape mismatch"):
            majority_vote(ds, np.eye(2), 0)
        with pytest.raises(ValueError, match="t_matrix rows must be nonnegative"):
            majority_vote(ds, np.array([[2.0, -1.0]]), 0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_t(self, bad):
        # a NaN compares False both ways, so it passed as nonnegative and won the vote
        ds = make_dataset([[1, 0], [0, 1], [1, 1]], [[1, 0], [0, 1]])
        with pytest.raises(ValueError, match="t_matrix entries must be finite"):
            majority_vote(ds, np.array([[bad, 1.0], [0.0, 1.0]]), 0)


class TestWeakDataset:
    @pytest.mark.parametrize("change, match", [
        ({"texts": ["x"]}, "document count does not match Z row count"),
        ({"ids": ["a", "b", "c"]}, "document count does not match Z row count"),
        ({"t": np.ones((3, 2))}, r"T shape \(3, 2\) inconsistent with L=2, K=2"),
        ({"t": np.ones((2, 1)), "num_classes": 1}, "need at least 2 classes"),
        ({"z": sp.csr_array(np.array([[2, 0], [0, 1]]))}, "Z entries must be 0 or 1"),
        ({"t": -np.eye(2)}, "T entries must be nonnegative"),
        ({"gold": np.array([0])}, "gold label vector length mismatch"),
        ({"gold": np.array([0, 2])}, "gold labels out of range"),
        ({"gold": np.array([-1, 0])}, "gold labels out of range"),
        ({"gold": np.array([0.5, 1.0])}, "label 0.5 is not a whole number"),
        ({"t": np.array([[np.nan, 1.0], [0.0, 1.0]])}, "T entries must be finite"),
        ({"t": np.array([[np.inf, 0.0], [0.0, 1.0]])}, "T entries must be finite"),
        ({"t": np.array([[-np.inf, 1.0], [0.0, 1.0]])}, "T entries must be finite"),
        # LF 1 stored twice in row 0: it would count as two matches
        ({"z": sp.csr_array(([1, 1, 1], [1, 1, 0], [0, 2, 3]), shape=(2, 2))},
         "Z stores an entry more than once"),
        ({"z": sp.csr_array(([1, 0, 1], [0, 0, 1], [0, 2, 3]), shape=(2, 2))},
         "Z stores an entry more than once"),
    ])
    def test_rejects_inconsistent_parts(self, change, match):
        parts = {"texts": ["x", "y"], "ids": ["a", "b"], "z": sp.csr_array(np.eye(2)),
                 "t": np.eye(2), "num_classes": 2}
        with pytest.raises(ValueError, match=match):
            WeakDataset(**{**parts, **change})

    def test_synth_and_loaded_z_are_canonical(self, tmp_path):
        ds, _ = generate(SynthConfig(n_samples=300, seed=3))
        assert ds.z.has_canonical_format
        paths = [tmp_path / name for name in ("docs.tsv", "z.tsv", "t.tsv")]
        save_dataset(ds, *paths)
        assert load_dataset(*paths).z.has_canonical_format


class TestDatasetStats:
    def test_all_zero_z(self):
        ds = make_dataset(np.zeros((4, 2)), [[1, 0], [0, 1]])
        s = dataset_stats(ds)
        assert s["coverage"] == 0.0 and s["avg_lf_hits"] == 0.0

    def test_identity_z(self):
        ds = make_dataset(np.eye(3), np.eye(3), num_classes=3)
        s = dataset_stats(ds)
        assert s["coverage"] == 1.0 and s["avg_lf_hits"] == 1.0

    def test_generator_coverage_matches_target(self):
        ds, _ = generate(SynthConfig(n_samples=3000, coverage_target=0.4, seed=5))
        s = dataset_stats(ds)
        assert abs(s["coverage"] - 0.4) <= 0.03

    def test_majority_accuracy_reported_with_gold(self):
        ds, _ = generate(SynthConfig(n_samples=500, seed=2))
        s = dataset_stats(ds)
        assert 0.0 <= s["majority_accuracy_mean"] <= 1.0 and s["majority_accuracy_std"] >= 0.0

    def test_ties_by_hand(self):
        # sample 0: one LF per class fires, a coin flip; sample 1: a sure hit;
        # sample 2: unmatched, all 3 classes tie
        ds = make_dataset([[1, 1, 0], [1, 0, 0], [0, 0, 0]], np.eye(3), gold=[1, 0, 2])
        s = dataset_stats(ds)
        p = np.array([1 / 2, 1, 1 / 3])
        assert s["majority_accuracy_mean"] == pytest.approx(p.mean(), abs=1e-15)
        assert s["majority_accuracy_std"] == pytest.approx(
            np.sqrt((p * (1 - p)).sum()) / 3, abs=1e-15)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_equals_every_tie_break_enumerated(self, data):
        k = data.draw(st.integers(2, 3))
        n = data.draw(st.integers(1, 12 if k == 2 else 7))  # at most 4096 outcomes
        l = data.draw(st.integers(1, 4))
        z = data.draw(arrays(np.int8, (n, l), elements=st.integers(0, 1)))
        t = data.draw(arrays(float, (l, k), elements=st.sampled_from([0.0, 1.0, 2.0])))
        t[t.sum(axis=1) == 0, 0] = 1.0
        gold = data.draw(arrays(np.int64, n, elements=st.integers(0, k - 1)))
        scores = z.astype(float) @ t
        tops = [np.flatnonzero(row == row.max()) for row in scores]
        # every outcome has probability prod(1 / len(top)), the same for all of them
        acc = np.array([np.mean(np.array(pick) == gold) for pick in itertools.product(*tops)])
        s = dataset_stats(make_dataset(z, t, gold=gold))
        assert s["majority_accuracy_mean"] == pytest.approx(acc.mean(), abs=1e-12)
        assert s["majority_accuracy_std"] == pytest.approx(acc.std(), abs=1e-12)

    def test_agrees_with_votes_over_many_seeds(self):
        ds, _ = generate(SynthConfig(n_samples=300, coverage_target=0.6, seed=8))
        s = dataset_stats(ds)
        acc = [float((majority_vote(ds, ds.t, seed).labels == ds.gold).mean())
               for seed in range(200)]
        sem = s["majority_accuracy_std"] / np.sqrt(len(acc))
        assert abs(np.mean(acc) - s["majority_accuracy_mean"]) < 4 * sem
        assert 0.7 < np.std(acc) / s["majority_accuracy_std"] < 1.3


class TestSignatures:
    @staticmethod
    def per_row_signatures(z):
        """The per-row sort that ``signatures`` replaced, kept as the reference."""
        csr = z.tocsr()
        return [tuple(int(j) for j in np.sort(csr.indices[csr.indptr[i]:csr.indptr[i + 1]]))
                for i in range(z.shape[0])]

    def test_equals_the_per_row_sort(self, rng):
        n, l = 60, 9
        dense = (rng.random((n, l)) < 0.3).astype(np.int8)
        dense[[0, 7, 8, 59]] = 0  # empty rows, including a run of them
        z = sp.csr_array(dense)
        # reverse each row's entries: unsorted indices
        order = np.concatenate([np.arange(z.indptr[i + 1] - 1, z.indptr[i] - 1, -1)
                                for i in range(n)])
        z = sp.csr_array((z.data[order], z.indices[order], z.indptr), shape=(n, l))
        assert not z.has_sorted_indices
        indices = z.indices.copy()
        ds = WeakDataset(texts=["doc"] * n, ids=[str(i) for i in range(n)], z=z,
                         t=np.eye(l, 3), num_classes=3)
        sigs = ds.signatures()
        assert sigs == self.per_row_signatures(z)
        assert sigs[0] == sigs[7] == sigs[59] == ()
        assert all(type(j) is int for sig in sigs for j in sig)
        assert np.array_equal(ds.z.indices, indices)  # Z itself keeps its entry order

    def test_a_stored_zero_is_no_match(self):
        ds = _stored_zero_dataset()
        assert ds.signatures() == [(0,), (1,)]
        assert ds.lf_hits.tolist() == [1, 1]
        assert ds.z.nnz == 3  # on a copy: Z keeps its stored zero


def _vote_or_error(vote, ds, t, seed):
    try:
        return vote(ds, t, seed).labels
    except Exception as exc:
        return type(exc), str(exc)


@st.composite
def tied_votes(draw):
    """A dataset and an LF-to-class matrix whose repeated rows force ties, with unmatched rows."""
    k, n, l = draw(st.integers(2, 6)), draw(st.integers(1, 40)), draw(st.integers(1, 8))
    rows = draw(arrays(float, (draw(st.integers(1, 4)), k),
                       elements=st.sampled_from([0.0, 0.5, 1.0, 2.0])))
    rows[rows.sum(axis=1) == 0, 0] = 1.0
    t = rows[draw(arrays(np.int64, l, elements=st.integers(0, len(rows) - 1)))]
    z = draw(arrays(np.int8, (n, l), elements=st.integers(0, 1)))
    z[draw(arrays(bool, n))] = 0
    return make_dataset(z, t), t


class TestMajorityVoteAgainstReference:
    """``majority_vote`` draws every tie-break at once; ``ref_majority_vote`` one per sample."""

    @settings(max_examples=60, deadline=None)
    @given(case=tied_votes(),
           seed=st.integers(0, 2**200) | st.integers(-2**70, -1) | st.floats(0, 1e6))
    def test_equals_the_per_sample_loop(self, case, seed):
        ds, t = case
        for s in (seed, 2**32 - 1, 2**32, 2**64, 2**96):
            got = _vote_or_error(majority_vote, ds, t, s)
            want = _vote_or_error(ref_majority_vote, ds, t, s)
            if isinstance(want, tuple):
                assert got == want
            else:
                assert got.dtype == want.dtype and np.array_equal(got, want)
