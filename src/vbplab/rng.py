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
words are then mixed in over uint32 arrays, and its output words hashed
over uint64 arrays, with numpy's documented SeedSequence arithmetic. The
keys are SeedSequence's bit for bit, so the derivation, and every stream,
is unchanged.

A caller that draws once per seed (a single run of algorithm B, a G(n, p)
graph) calls `uniforms`. Philox's stream is set by its key alone, so
`uniforms` re-keys one generator per thread instead of building a Philox
per call, and hashes a SeedSequence's pool into the key in Python, as
`generate_state(2, np.uint64)` does. Its draws are make_rng(seed)'s.
"""

from __future__ import annotations

import numbers
import threading
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
# SeedSequence.generate_state's hash of output word i, for the 4 words of a
# Philox key: (xor constant, multiplier) = _INIT_B * _MULT_B**i, **(i+1)
_OUT_HASH = tuple(
    (_INIT_B * pow(_MULT_B, i, 1 << 32) & _MASK32, _INIT_B * pow(_MULT_B, i + 1, 1 << 32) & _MASK32)
    for i in range(4)
)
_ZEROS = (0, 0, 0, 0)
# this thread's generator for `uniforms`: re-keyed whole before each draw
_local = threading.local()


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


def _pool_key(pool):
    """The Philox key, two 64-bit halves, that SeedSequence.generate_state(2,
    np.uint64) hashes from the first 4 pool words. A pool word is an int, or
    a uint64 array with one entry per key (each product fits in 64 bits)."""
    words = []
    for (hash_const, mult), value in zip(_OUT_HASH, pool):
        value = (value ^ hash_const) * mult & _MASK32
        words.append(value ^ value >> _XSHIFT)
    low0, high0, low1, high1 = words
    return low0 | high0 << 32, low1 | high1 << 32


def _philox_key(seed: Seed):
    """The Philox key that make_rng(seed) sets: seed's
    SeedSequence.generate_state(2, np.uint64), as two ints."""
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(entropy=check_seed(seed))
    elif type(seed) is not np.random.SeedSequence:
        return seed.generate_state(2, np.uint64).tolist()   # a subclass may hash its own way
    return _pool_key(seed.pool.tolist())


def _rekey(bit_gen: np.random.Philox, key) -> None:
    """Start bit_gen on key's stream as a fresh Philox(seed) starts: its whole
    state is set (counter 0, an empty buffer, no cached uint32), so nothing
    carries over from earlier draws."""
    bit_gen.state = {
        "bit_generator": "Philox",
        "state": {"counter": _ZEROS, "key": key},
        "buffer": _ZEROS,
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }


def uniforms(seed: Seed, k: int) -> np.ndarray:
    """make_rng(seed).random(k), bit for bit, drawn on this thread's one
    generator re-keyed to seed's stream rather than on a new one."""
    key = _philox_key(seed)
    rng = getattr(_local, "rng", None)
    if rng is None:
        rng = _local.rng = np.random.Generator(np.random.Philox(0))
    _rekey(rng.bit_generator, key)
    return rng.random(k)


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


def _trial_keys(pool: np.ndarray, hash_const: int, start: int, stop: int) -> Iterator[tuple[int, int]]:
    """Philox keys of trials start..stop-1, each two ints: what
    SeedSequence(entropy=master_seed, spawn_key=(i,)).generate_state(2,
    np.uint64) returns, given the master seed's pool and its hash constant
    at the point where the spawn key is mixed in."""
    index = np.arange(start, stop, dtype=np.uint64)
    mixer, hash_const = _mix_word(pool[:, None], (index & _MASK32).astype(np.uint32), hash_const)
    wide = index >> 32 != 0   # a spawn key of 2^32 or more is two words
    if wide.any():
        high = (index[wide] >> 32).astype(np.uint32)
        mixer[:, wide] = _mix_word(mixer[:, wide], high, hash_const)[0]
    low, high = _pool_key(mixer.astype(np.uint64))
    return zip(low.tolist(), high.tolist())


def trial_rngs(master_seed: int, start: int, stop: int) -> Iterator[np.random.Generator]:
    """A generator for each trial i in start..stop-1 whose draws equal
    make_rng(trial_seed(master_seed, i))'s.

    It is one Generator, re-keyed (see _rekey) to each trial's key before
    the trial draws, so nothing carries over from the previous trial.
    """
    seq = np.random.SeedSequence(entropy=master_seed)
    words = max(1, -(-master_seed.bit_length() // 32))
    # SeedSequence has run 16 hashmixes over the pool and 4 per entropy word past it
    hash_const = _INIT_A * pow(_MULT_A, 16 + 4 * max(0, words - len(seq.pool)), 1 << 32) & _MASK32
    bit_gen = np.random.Philox(seq)
    rng = np.random.Generator(bit_gen)
    for block in range(start, stop, _KEY_BLOCK):
        for key in _trial_keys(seq.pool, hash_const, block, min(block + _KEY_BLOCK, stop)):
            _rekey(bit_gen, key)
            yield rng
