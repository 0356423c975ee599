"""Randomized pool-sampling simulation: copies-coloring algorithm -> coloring.

Algorithm B runs a copies-coloring algorithm A on t copies of each arriving
vertex. Every color newly used by A enters B's pool independently with
probability p = min(1, 2 ln(n)/t). B colors the vertex with the smallest
pooled color among its copies' colors; if no copy's color made the pool, B
"fails" at that step and burns a reserved special color "s:<step>".

The simulation is deterministic given the seed: one uniform draw per new
color of A, in first-use order (step order, ascending color id within a
step), all taken by a single rng.random call. A never observes the pool, so
B first drives A across the full arrival sequence recording a per-step
trace, then runs the seeded pool phase over it. `_trial` is the one trial
loop, and it draws from the generator it is given: a single run is one trial,
on make_rng(seed), and Monte-Carlo verification runs many, over a cached
trace when A declares itself deterministic, on one generator that
`rng.trial_rngs` re-keys to each trial's stream. Every vertex set is a
mask in the convention of `Graph.masks`, bit v-1 for vertex v: an arrival's
back edges, and a color class of A (in the trace) or of B (in a trial), so
checking a color against earlier neighbors is one AND. Every set of A's
colors is a mask over their ranks, bit r for the r-th smallest: a step's
copy colors (in the trace) and B's pool (one int per trial), so B's pick is
the lowest set bit of pool & step mask, and the pool's size is its bit count.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import InputError, ProtocolError
from .graphs import ColorId, Coloring, Graph, checked_events, events_from_graph
from .rng import GENERATOR_NAME, SEED_DERIVATION, Seed, check_seed, make_rng, trial_rngs

_REL_TOL = 1e-12
# Modeled trial time, in microseconds, that a worker process must get before
# it is started. On a shared 2-vCPU x86 host two workers broke even with one
# process at 100-220 ms of serial trials: starting them costs about 40 ms,
# 5,000 crown k=8, t=64 trials (0.09 s) ran slower in two workers and 10,000
# (0.2-0.3 s) only 1.5x faster. So the crown k=8, t=64 run stays in process
# up to about 10,000 trials, and G(300, 0.1) with t=64 gets two workers from
# about 860.
MIN_US_PER_WORKER = 75_000


def special_color(step: int) -> str:
    return f"s:{step}"


def sampling_probability(n: int, t: int) -> float:
    """p = min(1, 2 ln(n)/t); n = 1 is pinned to 1 so it cannot fail."""
    if n < 1 or t < 1:
        raise InputError("need n >= 1 and t >= 1")
    if n == 1:
        return 1.0
    return min(1.0, 2.0 * math.log(n) / t)


@dataclass(frozen=True)
class SimulationStats:
    colors_a: int
    colors_b: int
    fails: int
    pool_size: int
    p: float
    feasible: bool   # no vertex shares B's color with an earlier neighbor


@dataclass(frozen=True)
class _Trace:
    back_masks: tuple[int, ...]   # per step: bit u-1 set for each earlier neighbor u
    copy_masks: tuple[int, ...]   # per step: bit r set iff the step uses colors[r]
    colors: tuple[int, ...]       # A's colors in ascending order: rank r is colors[r]
    # None when first-use order is ascending (always so for GreedyCcp); else
    # the first-use index of each rank, which puts the draws in rank order
    draw_rank: np.ndarray | None


def _record_trace(n, events, algo, t) -> _Trace:
    """Drive A over the arrival sequence, checking the protocol as we go.

    The back-edge masks are checked (one per vertex 1..n, bits for earlier
    vertices only) before A sees any of them. Copy masks are built over
    first-use indices, then renumbered to ranks when the two orders differ.
    """
    events = list(checked_events(n, events))
    algo.start(n, t)
    classes: dict[int, int] = {}   # A's color -> mask of the vertices using it
    index: dict[int, int] = {}     # A's color -> its position in first_use
    first_use: list[int] = []
    copy_masks: list[int] = []
    for v, back_mask in enumerate(events, 1):
        colors = tuple(algo.color_copies(v, back_mask))
        if len(colors) != t or len(set(colors)) != t:
            raise ProtocolError(
                f"algorithm returned {len(set(colors))} distinct colors for "
                f"vertex {v}, expected {t}"
            )
        if any(not isinstance(c, int) or c < 0 for c in colors):
            raise ProtocolError("copy colors must be nonnegative integers")
        mask = 0
        for c in sorted(colors):
            members = classes.get(c, 0)
            if not members:
                index[c] = len(first_use)
                first_use.append(c)
            elif members & back_mask:
                raise ProtocolError(f"algorithm reused a neighbor's color at vertex {v}")
            classes[c] = members | 1 << (v - 1)
            mask |= 1 << index[c]
        copy_masks.append(mask)
    ranked = sorted(first_use)
    draw_rank = None
    if ranked != first_use:
        draw_rank = np.argsort(first_use)
        rank = np.argsort(draw_rank).tolist()   # first-use index -> rank
        copy_masks = [_renumber(mask, rank) for mask in copy_masks]
    return _Trace(tuple(events), tuple(copy_masks), tuple(ranked), draw_rank)


def _renumber(mask: int, rank: list[int]) -> int:
    """Move each set bit i of mask to bit rank[i]."""
    out = 0
    while mask:
        low = mask & -mask
        out |= 1 << rank[low.bit_length() - 1]
        mask ^= low
    return out


def _pool_phase(trace, p, rng) -> tuple[int, list[ColorId]]:
    """B's seeded pool phase over A's recorded trace.

    Every color of A is seen by the step that uses it, so the whole pool is
    drawn up front, in first-use order, and kept as a rank mask. Returns the
    pool's size and, per step, B's color: the smallest pooled copy color (the
    lowest set bit of pool & copy mask), or the step's special color when
    there is none.
    """
    drawn = rng.random(len(trace.colors)) < p
    if trace.draw_rank is not None:
        drawn = drawn[trace.draw_rank]
    pool = int.from_bytes(np.packbits(drawn, bitorder="little").tobytes(), "little")
    colors = trace.colors
    picks = []
    for step, mask in enumerate(trace.copy_masks, 1):
        hit = pool & mask
        picks.append(colors[(hit & -hit).bit_length() - 1] if hit else special_color(step))
    return pool.bit_count(), picks


def _trial(trace, p, rng) -> tuple[list[ColorId], tuple[int, int, int, int, bool]]:
    """B's picks for one trial drawn from rng, and colors_B, colors_A, fails,
    pool size and feasibility. One pass over the picks keeps each color class
    as a vertex bitmask, so a clash with an earlier neighbor is one AND per
    step."""
    pool_size, picks = _pool_phase(trace, p, rng)
    classes: dict[ColorId, int] = {}
    fails = clash = 0
    for v, (back_mask, color) in enumerate(zip(trace.back_masks, picks)):
        if isinstance(color, str):
            fails += 1
        members = classes.get(color, 0)
        clash |= members & back_mask
        classes[color] = members | 1 << v
    return picks, (len(classes), len(trace.colors), fails, pool_size, not clash)


def run_algorithm_b(
    n: int,
    events,
    algo,
    t: int,
    seed: Seed,
) -> tuple[Coloring, SimulationStats]:
    """One seeded simulation run; returns B's coloring and its statistics.

    p is `sampling_probability(n, t)` = min(1, 2 ln(n)/t). The events must
    be n back-edge masks, vertex v's with bits for earlier vertices only,
    and the seed a nonnegative int or a SeedSequence (else InputError,
    before A runs). The output coloring is feasible for the underlying
    graph whenever A honors the copies-coloring protocol (violations raise
    ProtocolError).
    """
    if n < 1 or t < 1:
        raise InputError("need n >= 1 and t >= 1")
    p = sampling_probability(n, t)
    rng = make_rng(seed)
    trace = _record_trace(n, events, algo, t)
    picks, (colors_b, colors_a, fails, pool_size, feasible) = _trial(trace, p, rng)
    coloring: Coloring = dict(enumerate(picks, 1))
    return coloring, SimulationStats(colors_a, colors_b, fails, pool_size, p, feasible)


@dataclass(frozen=True)
class FailBoundReport:
    n: int
    t: int
    p: float
    per_step_fail: float
    per_step_limit: float   # 1/n^2
    union_fail: float       # n * per_step_fail
    union_limit: float      # 1/n
    bound_holds: bool


def fail_probability_bound(n: int, t: int) -> FailBoundReport:
    """Arithmetic check that a step misses the pool with probability <= 1/n^2.

    per-step fail = (1-p)^t with p = min(1, 2 ln(n)/t); the union bound
    over n steps then gives overall fail probability <= 1/n. Checked in
    floating point with relative tolerance 1e-12 (p is irrational).
    """
    if n < 2:
        raise InputError("fail bound needs n >= 2")
    if t < 1:
        raise InputError("need t >= 1")
    p = sampling_probability(n, t)
    per_step = 0.0 if p >= 1.0 else math.exp(t * math.log1p(-p))
    per_limit = 1.0 / (n * n)
    union = n * per_step
    union_limit = 1.0 / n
    holds = per_step <= per_limit * (1 + _REL_TOL) and union <= union_limit * (1 + _REL_TOL)
    return FailBoundReport(n, t, p, per_step, per_limit, union, union_limit, holds)


@dataclass(frozen=True)
class MonteCarloReport:
    graph_n: int
    t: int
    p: float
    trials: int
    master_seed: int
    seed_derivation: str
    generator: str
    mean_colors_a: float
    mean_colors_b: float
    empirical_fail_rate: float
    bound_lhs: float         # mean colors_B
    bound_rhs: float         # mean|R(A)|*p + n*fail_rate + slack
    slack: float             # 3 standard errors of the difference statistic
    bound_holds: bool
    per_trial_invariant_ok: bool   # colors_B <= |pool| + fails in every trial
    infeasible_trials: int         # trials where B's coloring is not proper
    colors_b_per_trial: tuple[int, ...]
    colors_a_per_trial: tuple[int, ...]
    fails_per_trial: tuple[int, ...]


def _trial_range(trace, p, master_seed, start, stop) -> list[tuple[int, int, int, int, bool]]:
    """Trials start..stop-1 over one trace, in order. Trial i reproduces
    run_algorithm_b(seed=trial_seed(master_seed, i)): it draws from one
    generator re-keyed per trial (rng.trial_rngs), not a fresh one."""
    return [_trial(trace, p, rng)[1] for rng in trial_rngs(master_seed, start, stop)]


def _workers(jobs: int, trials: int, n: int, t: int) -> int:
    """Worker processes for deterministic trials over n steps of t copies:
    at most jobs, trials and CPUs, and one per MIN_US_PER_WORKER of modeled
    trial time; 1 or less runs them in this process.

    A trial is modeled at 6 us to re-key its generator and collect its row,
    0.4 us a step and 0.0025 us a copy color, which is within 20% of the
    measured time on seven graphs from a 5-cycle with t=2 (7 us) to
    G(300, 0.1) with t=64 (146 us).
    """
    work_us = trials * (6 + n * (0.4 + t / 400))
    return min(jobs, trials, os.cpu_count() or 1, int(work_us // MIN_US_PER_WORKER))


def monte_carlo_verify(
    graph: Graph,
    algo,
    t: int,
    trials: int,
    master_seed: int,
    jobs: int = 1,
) -> MonteCarloReport:
    """Seeded Monte-Carlo estimate of B's color usage and fail rate.

    Checks mean colors_B <= mean|R(A)|*p + n*fail_rate + 3 standard errors
    (standard error of the per-trial difference), plus the exact per-trial
    invariant colors_B <= |pool| + fails, and counts the trials whose
    coloring is not proper. Trials are independent streams,
    so jobs > 1 only parallelizes; aggregation is in trial order either way.
    Runs too small to pay for a worker stay in this process (see _workers).
    trials must be a positive int and the master seed a nonnegative one
    (else InputError, before A runs).
    """
    if isinstance(trials, bool) or not isinstance(trials, int) or trials < 1:
        raise InputError(f"need a positive int count of trials, got {trials!r}")
    master_seed = check_seed(master_seed, "master seed")
    n = graph.n
    p = sampling_probability(n, t)
    events = events_from_graph(graph)
    if not getattr(algo, "deterministic", False):
        rows = [
            _trial(_record_trace(n, events, algo, t), p, rng)[1]
            for rng in trial_rngs(master_seed, 0, trials)
        ]
    else:
        trace = _record_trace(n, events, algo, t)
        workers = _workers(jobs, trials, n, t)
        if workers > 1:
            from concurrent.futures import ProcessPoolExecutor

            bounds = [trials * w // workers for w in range(workers + 1)]
            with ProcessPoolExecutor(max_workers=workers) as pool_exec:
                futures = [
                    pool_exec.submit(_trial_range, trace, p, master_seed, start, stop)
                    for start, stop in zip(bounds, bounds[1:])
                ]
                rows = [row for fut in futures for row in fut.result()]
        else:
            rows = _trial_range(trace, p, master_seed, 0, trials)
    colors_b, colors_a, fails, _, feasible = zip(*rows)
    invariant_ok = all(b <= size + f for b, _, f, size, _ in rows)

    cb = np.asarray(colors_b, dtype=float)
    ca = np.asarray(colors_a, dtype=float)
    failed = np.asarray(fails, dtype=float) > 0
    diff = cb - p * ca - n * failed
    se = float(diff.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    slack = 3.0 * se
    lhs = float(cb.mean())
    rhs = float(p * ca.mean() + n * failed.mean() + slack)
    return MonteCarloReport(
        graph_n=n,
        t=t,
        p=p,
        trials=trials,
        master_seed=master_seed,
        seed_derivation=SEED_DERIVATION,
        generator=GENERATOR_NAME,
        mean_colors_a=float(ca.mean()),
        mean_colors_b=lhs,
        empirical_fail_rate=float(failed.mean()),
        bound_lhs=lhs,
        bound_rhs=rhs,
        slack=slack,
        bound_holds=lhs <= rhs + _REL_TOL * max(1.0, abs(rhs)),
        per_trial_invariant_ok=invariant_ok,
        infeasible_trials=feasible.count(False),
        colors_b_per_trial=colors_b,
        colors_a_per_trial=colors_a,
        fails_per_trial=fails,
    )
