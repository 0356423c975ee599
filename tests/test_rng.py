"""Batch-derived trial keys: bit for bit numpy's SeedSequence and Philox."""

import numpy as np
import pytest

from vbplab import rng
from vbplab.errors import InputError
from vbplab.generators import gen_gnp
from vbplab.rng import make_rng, trial_rngs, trial_seed

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



@pytest.mark.parametrize("seed", [1.7, True, -1, "3"])
@pytest.mark.parametrize(
    "use",
    [make_rng, lambda seed: trial_seed(seed, 0), lambda seed: gen_gnp(5, 0.5, seed)],
    ids=["make_rng", "trial_seed", "gen_gnp"],
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
