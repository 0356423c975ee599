"""Seeded randomness.

All randomness in the package flows from Philox, a counter-based splittable
generator. A master seed plus a trial index determines an independent
stream, so experiment reports are replayable from the recorded seed alone.
"""

from __future__ import annotations

import numpy as np

GENERATOR_NAME = "philox4x64"
SEED_DERIVATION = "SeedSequence(entropy=master_seed, spawn_key=(trial_index,)) -> Philox"

Seed = int | np.random.SeedSequence


def make_rng(seed: Seed) -> np.random.Generator:
    """Deterministic generator from an integer seed or a SeedSequence."""
    if isinstance(seed, np.random.SeedSequence):
        seq = seed
    else:
        seq = np.random.SeedSequence(entropy=int(seed))
    return np.random.Generator(np.random.Philox(seq))


def trial_seed(master_seed: int, trial_index: int) -> np.random.SeedSequence:
    """Independent per-trial stream: spawn key (trial_index,) off the master seed."""
    return np.random.SeedSequence(entropy=int(master_seed), spawn_key=(int(trial_index),))
