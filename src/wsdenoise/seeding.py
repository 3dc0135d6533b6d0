"""Deterministic seed derivation for nested randomized stages."""

from itertools import permutations, product

import numpy as np

_M32 = 0xFFFFFFFF
# numpy's SeedSequence hash constants, and PCG64's 128-bit LCG multiplier as (high, low)
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_HI, _PCG_LO = 0x2360ED051FC65DA4, 0x4385DF649FCCF645


def derive_seed(*parts: int) -> int:
    """Map a tuple of nonnegative integers to a single reproducible seed.

    Uses numpy's SeedSequence mixing, which is stable across platforms and
    numpy versions, so nested stages (repeats, iterations, partitions, folds)
    can each get an independent stream from one master seed.
    """
    return int(np.random.SeedSequence(parts).generate_state(1)[0])


def keyed_draws(seed, keys, bounds) -> np.ndarray:
    """``np.random.default_rng([seed, key]).integers(bound)`` per key and bound, at once.

    For keys in [0, 2**32) and bounds in [1, 2**32], uint32 and uint64 arrays hash
    the 32-bit words of ``seed``, then ``key``, into SeedSequence's pool, seed PCG64
    from it, take the low half ``u`` of its first XSL-RR output and give Lemire's
    ``(u * bound) >> 32``.  ``default_rng`` draws itself where Lemire draws again
    (``u * bound mod 2**32 < (2**32 - bound) mod bound``) and for a seed that is not
    an int (numpy also takes hex strings and lists); a seed it refuses raises its error.
    """
    keys, bounds = np.asarray(keys, dtype=np.int64), np.asarray(bounds, dtype=np.uint64)
    if keys.size == 0:
        return np.zeros(0, dtype=np.int64)
    if keys.min() < 0 or keys.max() > _M32 or bounds.min() < 1 or bounds.max() > 2**32:
        raise ValueError("keys must lie in [0, 2**32) and bounds in [1, 2**32]")
    np.random.SeedSequence([seed, int(keys[0])])  # a seed default_rng refuses raises here
    draws, redraw = np.zeros(keys.size, dtype=np.int64), range(keys.size)
    if isinstance(seed, (int, np.integer)):
        words = [int(seed) >> s & _M32 for s in range(0, max(int(seed).bit_length(), 1), 32)]
        scaled = (_first_output(words, keys.astype(np.uint32)) & _M32) * bounds
        draws = (scaled >> 32).astype(np.int64)
        redraw = np.flatnonzero(scaled & _M32 < (2**32 - bounds) % bounds)
    for i in redraw:
        draws[i] = np.random.default_rng([seed, int(keys[i])]).integers(int(bounds[i]))
    return draws


def _first_output(seed_words: list, keys: np.ndarray) -> np.ndarray:
    """The first 64-bit output of ``PCG64(SeedSequence(seed_words + [key]))`` for each key."""
    const = _INIT_A

    def hashmix(value, mult=_MULT_A):
        nonlocal const
        value = (value ^ const) * (const := const * mult & _M32)
        return value ^ value >> 16

    def mix(x, y):
        return (value := x * _MIX_L - y * _MIX_R) ^ value >> 16

    entropy = [np.full(keys.size, w, dtype=np.uint32) for w in seed_words] + [keys]
    pool = [hashmix(entropy[i] if i < len(entropy) else np.zeros_like(keys)) for i in range(4)]
    for src, dst in permutations(range(4), 2):
        pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word, dst in product(entropy[4:], range(4)):
        pool[dst] = mix(pool[dst], hashmix(word))
    const = _INIT_B  # generate_state(4, uint64): eight hashed words, paired low word first
    state = [hashmix(pool[i % 4], _MULT_B).astype(np.uint64) for i in range(8)]
    init_hi, init_lo, seq_hi, seq_lo = (state[j] | state[j + 1] << 32 for j in range(0, 8, 2))
    # PCG64 seeding: inc = 2 * initseq + 1, state = inc + initstate, then one step, and
    # the step before the first output; 128-bit words as (hi, lo) pairs
    inc_hi, inc_lo = seq_hi << 1 | seq_lo >> 63, seq_lo << 1 | 1
    lo = inc_lo + init_lo
    hi = inc_hi + init_hi + (lo < inc_lo)
    for _ in range(2):
        # state * multiplier + inc mod 2**128, lo * _PCG_LO's high word from 32-bit halves
        a0, a1, b0, b1 = lo & _M32, lo >> 32, _PCG_LO & _M32, _PCG_LO >> 32
        mid = a1 * b0 + (a0 * b0 >> 32)
        hi = a1 * b1 + (mid >> 32) + ((a0 * b1 + (mid & _M32)) >> 32) + lo * _PCG_HI + hi * _PCG_LO
        lo = lo * _PCG_LO + inc_lo
        hi += inc_hi + (lo < inc_lo)
    # XSL-RR: the xor of the two words, rotated right by the state's top 6 bits
    value, rot = hi ^ lo, hi >> 58
    return value >> rot | value << (64 - rot & 63)
