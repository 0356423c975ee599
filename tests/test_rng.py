"""Batch-derived trial keys and re-keyed single draws: bit for bit numpy's
SeedSequence and Philox."""

import sys
import threading

import numpy as np
import pytest

from vbplab import rng
from vbplab.errors import InputError
from vbplab.generators import gen_gnp
from vbplab.rng import make_rng, trial_rngs, trial_seed, uniforms

# one to five words of master seed: words past SeedSequence's pool of 4 are
# mixed in after it, which moves the hash constant the spawn key starts from
SEEDS = [0, 1, 7, 2**32 + 5, 2**70 + 3, 2**130 + 9]
RANGES = [
    (0, 3),
    (5, 8),
    (2**32 - 1, 2**32 + 2),   # one-word spawn keys, then two-word ones
    (2**32, 2**32 + 3),
    (2**40 + 7, 2**40 + 10),
    (3, rng._KEY_BLOCK + 5),   # two key blocks: the second starts at 3 + _KEY_BLOCK
]


def keys(master_seed, start, stop):
    return [g.bit_generator.state["state"]["key"].copy() for g in trial_rngs(master_seed, start, stop)]


@pytest.mark.parametrize("master_seed", SEEDS)
def test_keys_equal_seed_sequence(master_seed):
    for start, stop in RANGES:
        got = keys(master_seed, start, stop)
        assert len(got) == stop - start
        for i, key in zip(range(start, stop), got):
            want = np.random.SeedSequence(entropy=master_seed, spawn_key=(i,)).generate_state(2, np.uint64)
            assert key.tolist() == want.tolist(), (master_seed, i)


@pytest.mark.parametrize("start, stop", [(0, 6), (2**32 - 2, 2**32 + 2)])
def test_rekeyed_generator_draws_as_a_fresh_one(start, stop):
    # Each trial leaves state behind for the next one to clear: its uint32
    # draw sets has_uint32 and caches the other half of a word, and its
    # 1 + 9 words leave Philox's buffer mid-block.
    drawn = 0
    for i, g in zip(range(start, stop), trial_rngs(7, start, stop)):
        fresh = make_rng(trial_seed(7, i))
        assert g.integers(2**32, dtype=np.uint32) == fresh.integers(2**32, dtype=np.uint32)
        assert g.random(9).tolist() == fresh.random(9).tolist()
        drawn += 1
    assert drawn == stop - start



class FlippedSeedSequence(np.random.SeedSequence):
    """A SeedSequence subclass with its own generate_state, which Philox
    calls for its key."""

    def generate_state(self, n_words, dtype=np.uint32):
        return super().generate_state(n_words, dtype) ^ dtype(1)


UNIFORM_SEEDS = {
    "0": 0,
    "1": 1,
    "2^32": 2**32,
    "2^130+5": 2**130 + 5,
    "spawn-3": np.random.SeedSequence(7, spawn_key=(3,)),
    "spawn-2^33": np.random.SeedSequence(7, spawn_key=(2**33,)),
    "spawn-1-2": np.random.SeedSequence(7, spawn_key=(1, 2)),
    "pool-8": np.random.SeedSequence(7, pool_size=8),
    "subclass": FlippedSeedSequence(7),
}
UNIFORM_COUNTS = [0, 1, 4, 5, 1000]


@pytest.mark.parametrize("k", UNIFORM_COUNTS)
@pytest.mark.parametrize("seed", UNIFORM_SEEDS.values(), ids=UNIFORM_SEEDS)
def test_uniforms_draw_as_a_fresh_generator(seed, k):
    # 5 doubles leave Philox's 4-word buffer partly used, and a uint32 drawn on
    # the thread's generator caches the other half of a word: neither carries
    # over into the next call
    uniforms(3, 5)
    rng._local.rng.integers(2**32, dtype=np.uint32)
    got = uniforms(seed, k)
    assert got.dtype == np.float64 and got.shape == (k,)
    assert got.tolist() == make_rng(seed).random(k).tolist()
    assert uniforms(seed, k).tolist() == got.tolist()


def test_uniforms_on_interleaved_threads_draw_as_serial_ones():
    seeds = [trial_seed(11, i) if i % 2 else i for i in range(300)]
    want = [make_rng(seed).random(5).tolist() for seed in seeds]
    results = {}
    turn = threading.Barrier(4, timeout=30)

    def worker(w):
        # every worker draws each seed, all four in step, with thread switches
        # forced often, so draws on different threads interleave
        out = []
        for seed in seeds:
            turn.wait()
            out.append(uniforms(seed, 5).tolist())
        results[w] = out

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(w,)) for w in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert results == {w: want for w in range(4)}


@pytest.mark.parametrize("seed", [1.7, True, -1, "3"])
@pytest.mark.parametrize(
    "use",
    [
        make_rng,
        lambda seed: trial_seed(seed, 0),
        lambda seed: gen_gnp(5, 0.5, seed),
        lambda seed: uniforms(seed, 3),
    ],
    ids=["make_rng", "trial_seed", "gen_gnp", "uniforms"],
)
def test_a_seed_that_is_not_a_nonnegative_int_is_refused(use, seed):
    # 1.7 and True were once truncated to seed 1
    with pytest.raises(InputError, match="seed must be a nonnegative int"):
        use(seed)


def test_integral_seeds_and_seed_sequences_are_taken():
    want = make_rng(7).random(3).tolist()
    assert make_rng(np.int64(7)).random(3).tolist() == want
    assert make_rng(np.random.SeedSequence(7)).random(3).tolist() == want


@pytest.mark.parametrize("index", [1.5, True, -1, "1"])
def test_a_trial_index_that_is_not_a_nonnegative_int_is_refused(index):
    # 1.5 and True were once truncated to trial 1's stream
    with pytest.raises(InputError, match="trial index must be a nonnegative int"):
        trial_seed(7, index)


def test_integral_trial_indices_are_taken():
    assert trial_seed(7, np.int64(3)).spawn_key == trial_seed(7, 3).spawn_key == (3,)
    assert trial_seed(7, 2**40).spawn_key == (2**40,)


def test_check_seed_returns_the_int():
    assert rng.check_seed(0) == 0
    assert type(rng.check_seed(np.uint32(5))) is int
    assert rng.check_seed(np.uint32(5)) == 5
