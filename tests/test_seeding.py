import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wsdenoise.seeding import keyed_draws

_SEEDS = st.integers(0, 2**200) | st.sampled_from([0, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**96])
_BOUNDS = st.integers(1, 6) | st.integers(2**31, 2**32) | st.integers(1, 2**32)


def _one_by_one(seed, keys, bounds):
    return np.array([np.random.default_rng([seed, int(k)]).integers(int(b))
                     for k, b in zip(keys, bounds)], dtype=np.int64)


class TestKeyedDraws:
    @settings(max_examples=60, deadline=None)
    @given(seed=_SEEDS, pairs=st.lists(st.tuples(st.integers(0, 2**32 - 1), _BOUNDS),
                                       min_size=1, max_size=40))
    def test_equals_one_generator_per_key(self, seed, pairs):
        keys, bounds = zip(*pairs)
        got = keyed_draws(seed, np.array(keys), np.array(bounds, dtype=np.uint64))
        assert got.dtype == np.int64
        assert np.array_equal(got, _one_by_one(seed, keys, bounds))

    def test_lemire_redraws_fall_back_to_the_generator(self, monkeypatch):
        # with a bound of 2**31 + 1, about half of the first draws land below the threshold
        keys, bounds = np.arange(400), np.full(400, 2**31 + 1)
        want = _one_by_one(7, keys, bounds)
        real, calls = np.random.default_rng, []
        monkeypatch.setattr(np.random, "default_rng", lambda s: calls.append(s) or real(s))
        assert np.array_equal(keyed_draws(7, keys, bounds), want)
        assert 100 < len(calls) < 300

    def test_small_bounds_never_fall_back(self, monkeypatch):
        keys, bounds = np.arange(2000), np.tile([2, 3, 4, 5, 6], 400)
        want = _one_by_one(2**96, keys, bounds)
        monkeypatch.setattr(np.random, "default_rng", None)
        assert np.array_equal(keyed_draws(2**96, keys, bounds), want)

    @pytest.mark.parametrize("seed", ["0x1f", [3, 4], np.uint64(2**63), True])
    def test_seeds_numpy_takes_in_other_forms(self, seed):
        keys, bounds = [0, 5, 9], [2, 3, 4]
        assert np.array_equal(keyed_draws(seed, keys, bounds), _one_by_one(seed, keys, bounds))

    @pytest.mark.parametrize("seed", [-1, -2**70, 1.5, "seed", None])
    def test_a_refused_seed_raises_the_generators_error(self, seed):
        with pytest.raises(Exception) as want:
            np.random.default_rng([seed, 3])
        with pytest.raises(type(want.value), match=f"^{re.escape(str(want.value))}$"):
            keyed_draws(seed, [3], [2])
        assert keyed_draws(seed, [], []).size == 0  # no key, no draw, no error

    @pytest.mark.parametrize("keys,bounds", [([-1], [2]), ([2**32], [2]), ([0], [0]),
                                             ([0], [2**32 + 1])])
    def test_rejects_keys_and_bounds_out_of_range(self, keys, bounds):
        with pytest.raises(ValueError, match="keys must lie in"):
            keyed_draws(1, keys, bounds)
