"""Seeded randomness.

All randomness in the package flows from Philox, a counter-based splittable
generator. A master seed plus a trial index determines an independent
stream, so experiment reports are replayable from the recorded seed alone.

Trial i draws from Philox keyed by SeedSequence(entropy=master_seed,
spawn_key=(i,)). Building that SeedSequence and a Philox from it costs more
than a Monte-Carlo trial's own draws, so `trial_rngs` derives the keys of a
range of trials at once and re-keys one generator per trial. The entropy
pool of a SeedSequence depends only on the master seed until the spawn key
is mixed in, so numpy hashes the master seed once; each trial's spawn-key
words and output words are then mixed over uint32 arrays with numpy's
documented SeedSequence arithmetic. The keys are SeedSequence's bit for bit,
so the derivation, and every stream, is unchanged.
"""

from __future__ import annotations

import numbers
from collections.abc import Iterator

import numpy as np

from .errors import InputError

GENERATOR_NAME = "philox4x64"
SEED_DERIVATION = "SeedSequence(entropy=master_seed, spawn_key=(trial_index,)) -> Philox"

Seed = int | np.random.SeedSequence

# numpy.random.SeedSequence's hash constants, for its default pool of 4 words
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
_MASK32 = 0xFFFFFFFF
# Trials whose keys are derived at once: bounds the key arrays for any range.
_KEY_BLOCK = 4096


def check_seed(seed, name: str = "seed") -> int:
    """`seed` as an int; InputError for a bool, a non-integral or a negative seed."""
    if type(seed) is int and seed >= 0:
        return seed
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
        raise InputError(f"{name} must be a nonnegative int, got {seed!r}")
    return int(seed)


def make_rng(seed: Seed) -> np.random.Generator:
    """Deterministic generator from an integer seed or a SeedSequence."""
    if isinstance(seed, np.random.SeedSequence):
        seq = seed
    else:
        seq = np.random.SeedSequence(entropy=check_seed(seed))
    return np.random.Generator(np.random.Philox(seq))


def trial_seed(master_seed: int, trial_index: int) -> np.random.SeedSequence:
    """Independent per-trial stream: spawn key (trial_index,) off the master seed."""
    seed = check_seed(master_seed, "master seed")
    return np.random.SeedSequence(entropy=seed, spawn_key=(check_seed(trial_index, "trial index"),))


def _mix_word(mixer: np.ndarray, word: np.ndarray, hash_const: int) -> tuple[np.ndarray, int]:
    """Mix one entropy word per column into the pool words (the rows), as
    SeedSequence mixes an entropy word past its pool size: one hashmix and
    one mix per pool word. Returns the new pool and hash constant."""
    out = np.empty((len(mixer), len(word)), np.uint32)
    for dst in range(len(mixer)):
        value = word ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value *= hash_const
        value ^= value >> _XSHIFT
        value = mixer[dst] * _MIX_MULT_L - value * _MIX_MULT_R
        out[dst] = value ^ value >> _XSHIFT
    return out, hash_const


def _trial_keys(pool: np.ndarray, hash_const: int, start: int, stop: int) -> np.ndarray:
    """Philox keys of trials start..stop-1, one row of two uint64 each: what
    SeedSequence(entropy=master_seed, spawn_key=(i,)).generate_state(2,
    np.uint64) returns, given the master seed's pool and its hash constant
    at the point where the spawn key is mixed in."""
    index = np.arange(start, stop, dtype=np.uint64)
    mixer, hash_const = _mix_word(pool[:, None], (index & _MASK32).astype(np.uint32), hash_const)
    wide = index >> 32 != 0   # a spawn key of 2^32 or more is two words
    if wide.any():
        high = (index[wide] >> 32).astype(np.uint32)
        mixer[:, wide] = _mix_word(mixer[:, wide], high, hash_const)[0]
    state = np.empty((len(index), len(mixer)), np.uint32)
    hash_const = _INIT_B
    for dst, value in enumerate(mixer):
        value = value ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value *= hash_const
        state[:, dst] = value ^ value >> _XSHIFT
    return state.astype("<u4").view("<u8").astype(np.uint64)


def trial_rngs(master_seed: int, start: int, stop: int) -> Iterator[np.random.Generator]:
    """A generator for each trial i in start..stop-1 whose draws equal
    make_rng(trial_seed(master_seed, i))'s.

    It is one Generator, re-keyed before each trial: its Philox state is
    set whole (counter 0, the trial's key, an empty buffer, no cached
    uint32), so nothing carries over from the previous trial's draws.
    """
    seq = np.random.SeedSequence(entropy=master_seed)
    words = max(1, -(-master_seed.bit_length() // 32))
    # SeedSequence has run 16 hashmixes over the pool and 4 per entropy word past it
    hash_const = _INIT_A * pow(_MULT_A, 16 + 4 * max(0, words - len(seq.pool)), 1 << 32) & _MASK32
    bit_gen = np.random.Philox(seq)
    rng = np.random.Generator(bit_gen)
    zeros = np.zeros(4, np.uint64)
    for block in range(start, stop, _KEY_BLOCK):
        for key in _trial_keys(seq.pool, hash_const, block, min(block + _KEY_BLOCK, stop)):
            bit_gen.state = {
                "bit_generator": "Philox",
                "state": {"counter": zeros, "key": key},
                "buffer": zeros,
                "buffer_pos": 4,
                "has_uint32": 0,
                "uinteger": 0,
            }
            yield rng
