"""Pool-sampling simulation: determinism, feasibility, accounting bounds."""

import math
import os
import random
from dataclasses import astuple

import pytest
from oracles import naive_pool_phase

from vbplab import pool
from vbplab.copies import CopiesInstance, GreedyCcp, color_class_vertices, greedy_online_ccp
from vbplab.errors import InputError, ProtocolError
from vbplab.generators import gen_crown, gen_cycle, gen_gnp
from vbplab.graphs import events_from_graph, validate_coloring
from vbplab.pool import (
    fail_probability_bound,
    monte_carlo_verify,
    run_algorithm_b,
    sampling_probability,
    special_color,
)
from vbplab.reductions import VbpBackedCcp, coloring_to_vbp
from vbplab.rng import make_rng, trial_seed
from vbplab.vbp import FirstFitPacker


def run_on(graph, t, seed):
    return run_algorithm_b(graph.n, events_from_graph(graph), GreedyCcp(), t, seed)


def force_p(monkeypatch, p):
    """Make every run sample with p in place of min(1, 2 ln(n)/t)."""
    monkeypatch.setattr(pool, "sampling_probability", lambda n, t: p)


# ------------------------------------------------------------------- p rule


def test_sampling_probability():
    assert sampling_probability(1, 10) == 1.0
    assert sampling_probability(4, 1) == 1.0  # 2 ln 4 > 1 clamps
    t = 100
    assert sampling_probability(10, t) == pytest.approx(2 * math.log(10) / t, rel=1e-15)
    with pytest.raises(InputError):
        sampling_probability(0, 5)


# ------------------------------------------------------------ algorithm  B


def test_p_clamped_to_one_never_fails():
    g = gen_cycle(5)
    t = 3  # t <= ceil(2 ln 5) so p = 1
    assert sampling_probability(5, t) == 1.0
    coloring, stats = run_on(g, t, 0)
    assert stats.fails == 0
    assert stats.pool_size == stats.colors_a
    # B takes the smallest color among each vertex's copies
    f = greedy_online_ccp(CopiesInstance(g, t))
    for v in range(1, 6):
        assert coloring[v] == min(f[(v, k)] for k in range(1, t + 1))


def test_single_vertex_graph():
    from vbplab.graphs import graph_from_edges

    g = graph_from_edges(1, [])
    coloring, stats = run_on(g, 4, 0)
    assert coloring == {1: 0} and stats.fails == 0


class ScrambledCcp:
    """A deterministic copies coloring that is First-Fit on copies, except
    that vertex v's copies take the t smallest open colors from v % 3 up, so
    a step can mix colors used before with new ones. Color c is then named
    names[c], a fixed random renaming, so A's first-use order is not
    ascending and a step's earliest used pooled color is often not its
    smallest."""

    deterministic = True
    names = tuple(random.Random(1).sample(range(10_000), 512))

    def start(self, n, t):
        self.t = t
        self.classes = []

    def color_copies(self, vertex, back_mask):
        colors = []
        c = vertex % 3
        while len(colors) < self.t:
            self.classes += [0] * (c + 1 - len(self.classes))
            if not self.classes[c] & back_mask:
                self.classes[c] |= 1 << (vertex - 1)
                colors.append(self.names[c])
            c += 1
        return tuple(colors)


def naive_run(graph, t, p, seed):
    """run_algorithm_b for ScrambledCcp by the set-based oracle: B's
    coloring, its stats as a tuple, and A's first-use order."""
    algo = ScrambledCcp()
    algo.start(graph.n, t)
    copy_colors = [algo.color_copies(v, m) for v, m in enumerate(events_from_graph(graph), 1)]
    first_use = list(dict.fromkeys(c for colors in copy_colors for c in sorted(colors)))
    pool_size, picks = naive_pool_phase(copy_colors, first_use, p, make_rng(seed))
    coloring = dict(enumerate(picks, 1))
    fails = sum(isinstance(c, str) for c in picks)
    stats = (len(first_use), len(set(picks)), fails, pool_size, p, validate_coloring(graph, coloring))
    return coloring, stats, first_use


@pytest.mark.parametrize("forced_p", [None, 0.0, 1.0], ids=["p-rule", "p0", "p1"])
def test_pool_phase_matches_set_oracle_when_first_use_is_not_ascending(monkeypatch, forced_p):
    if forced_p is not None:
        force_p(monkeypatch, forced_p)
    unsorted = 0
    for i in range(12):
        g = gen_gnp(4 + i, 0.4, 35000 + i)
        for t in (1, 3, 8):
            p = pool.sampling_probability(g.n, t)
            for seed in range(4):
                coloring, stats = run_algorithm_b(g.n, events_from_graph(g), ScrambledCcp(), t, seed)
                want_coloring, want_stats, first_use = naive_run(g, t, p, seed)
                assert (coloring, astuple(stats)) == (want_coloring, want_stats)
                unsorted += first_use != sorted(first_use)
    assert unsorted >= 100   # most runs need their draws put in rank order
    # trials run in worker processes carry the same trace, draw order included
    g = gen_gnp(9, 0.4, 35100)
    serial = monte_carlo_verify(g, ScrambledCcp(), 8, 12, 17)
    p = pool.sampling_probability(g.n, 8)
    want = [naive_run(g, 8, p, trial_seed(17, i))[1] for i in range(12)]
    assert serial.colors_b_per_trial == tuple(s[1] for s in want)
    assert serial.fails_per_trial == tuple(s[2] for s in want)
    monkeypatch.setattr(pool, "MIN_US_PER_WORKER", 1)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert pool._workers(2, 12, g.n, 8) == 2
    assert monte_carlo_verify(g, ScrambledCcp(), 8, 12, 17, jobs=2) == serial


def test_crown_regression_snapshot():
    # frozen from the first seeded run; guards RNG-consumption changes
    g = gen_crown(3)
    coloring, stats = run_on(g, 64, 42)
    assert coloring == {1: 26, 2: 26, 3: 71, 4: 71, 5: 148, 6: 148}
    assert (stats.colors_b, stats.colors_a, stats.fails, stats.pool_size) == (3, 192, 0, 11)


def test_deterministic_given_seed():
    g = gen_gnp(7, 0.5, 27000)
    a = run_on(g, 16, 5)
    b = run_on(g, 16, 5)
    assert a == b
    c = run_on(g, 16, 6)
    assert a[0] != c[0] or a[1] != c[1]  # overwhelmingly likely to differ


def test_feasible_including_failures(monkeypatch):
    g = gen_gnp(8, 0.5, 28000)
    force_p(monkeypatch, 0.05)  # low p forces some fails
    coloring, stats = run_on(g, 8, 3)
    assert validate_coloring(g, coloring) and stats.feasible
    specials = {v for v, c in coloring.items() if isinstance(c, str)}
    assert len(specials) == stats.fails > 0


def test_all_fail_when_p_zero(monkeypatch):
    g = gen_gnp(6, 0.5, 29000)
    force_p(monkeypatch, 0.0)
    coloring, stats = run_on(g, 4, 0)
    assert stats.fails == 6 and stats.pool_size == 0
    assert coloring == {v: special_color(v) for v in range(1, 7)}


def test_special_color_step_linkage(monkeypatch):
    g = gen_gnp(8, 0.4, 30000)
    force_p(monkeypatch, 0.1)
    coloring, stats = run_on(g, 8, 11)
    failed = [v for v, c in coloring.items() if not isinstance(c, int)]
    assert all(coloring[v] == special_color(v) for v in failed)
    assert len(failed) == stats.fails


def test_b_classes_inside_a_classes():
    # every regular color class of B is contained in A's class of that color
    g = gen_gnp(8, 0.5, 31000)
    t = 12
    inst = CopiesInstance(g, t)
    f = greedy_online_ccp(inst)
    coloring, _stats = run_on(g, t, 9)
    for r in set(coloring.values()):
        members = {v for v, c in coloring.items() if c == r}
        if isinstance(r, str):
            assert len(members) == 1
        else:
            assert members <= color_class_vertices(inst, f, r)


def test_accounting_invariant():
    for i in range(20):
        g = gen_gnp(7, 0.5, 32000 + i)
        _, stats = run_on(g, 8, i)
        assert stats.colors_b <= stats.pool_size + stats.fails


def test_protocol_error_on_bad_algorithm():
    class WrongCount:
        def start(self, n, t):
            self.t = t

        def color_copies(self, vertex, back_mask):
            return tuple(range(self.t - 1))

    class RepeatsNeighbor:
        def start(self, n, t):
            self.t = t

        def color_copies(self, vertex, back_mask):
            return tuple(range(self.t))  # same colors every vertex

    g = gen_cycle(4)
    with pytest.raises(ProtocolError):
        run_algorithm_b(4, events_from_graph(g), WrongCount(), 3, 0)
    with pytest.raises(ProtocolError):
        run_algorithm_b(4, events_from_graph(g), RepeatsNeighbor(), 3, 0)


@pytest.mark.parametrize(
    "colors, message",
    [
        ((-1, 0, 1), "nonnegative integers"),
        (("0", 1, 2), "nonnegative integers"),
        ((0, 1, 2.0), "nonnegative integers"),
        ((0, 1, 1), "2 distinct colors for vertex 1, expected 3"),
    ],
    ids=["negative", "str", "float", "repeated"],
)
def test_protocol_error_on_bad_copy_colors(colors, message):
    class Fixed:
        def start(self, n, t):
            pass

        def color_copies(self, vertex, back_mask):
            return colors

    g = gen_cycle(4)
    with pytest.raises(ProtocolError, match=message):
        run_algorithm_b(4, events_from_graph(g), Fixed(), 3, 0)


# Arrival sequences that are not n back-edge masks with bits for earlier
# vertices only: (n, masks).
MALFORMED_EVENTS = {
    "forward-back-edge": (2, [0b10, 0]),   # vertex 1 names vertex 2
    "own-bit": (2, [0, 0b10]),             # vertex 2 names itself
    "negative-mask": (2, [0, -1]),
    "not-an-int": (2, [0, frozenset({1})]),
    "vertex-past-n": (2, [0, 0b1, 0]),     # a long stream: a mask for vertex 3
    "short-stream": (3, [0, 0b1]),
}


@pytest.mark.parametrize("make_algo", [GreedyCcp, lambda: VbpBackedCcp(FirstFitPacker())],
                         ids=["greedy", "first-fit-packer"])
@pytest.mark.parametrize("case", MALFORMED_EVENTS)
def test_malformed_events_rejected_before_a_runs(case, make_algo):
    n, events = MALFORMED_EVENTS[case]
    algo = make_algo()
    algo.color_copies = None  # A must not be asked to color anything
    with pytest.raises(InputError):
        run_algorithm_b(n, events, algo, 2, 0)


@pytest.mark.parametrize("case", MALFORMED_EVENTS)
def test_malformed_events_rejected_by_the_reduction(case):
    n, events = MALFORMED_EVENTS[case]
    with pytest.raises(InputError):
        list(coloring_to_vbp(n, events))


# ------------------------------------------------------------------ bounds


def test_fail_bound_clamped():
    r = fail_probability_bound(4, 2)
    assert r.p == 1.0 and r.per_step_fail == 0.0 and r.bound_holds


def test_fail_bound_n2_t2():
    r = fail_probability_bound(2, 2)
    assert r.p == pytest.approx(math.log(2), rel=1e-15)
    assert r.per_step_fail == pytest.approx((1 - math.log(2)) ** 2, rel=1e-12)
    assert r.per_step_fail <= 0.25 and r.bound_holds


def test_fail_bound_n10_t100():
    r = fail_probability_bound(10, 100)
    assert r.per_step_fail == pytest.approx(0.00896, rel=1e-2)
    assert r.per_step_fail <= 0.01 and r.bound_holds


def test_fail_bound_grid():
    for n in (2, 5, 17, 1000, 10**6):
        for t in (1, 2, 64, 4096):
            assert fail_probability_bound(n, t).bound_holds


def test_fail_bound_rejects_n1():
    with pytest.raises(InputError):
        fail_probability_bound(1, 4)


# ------------------------------------------------------------- monte carlo


def test_monte_carlo_p1_degenerate():
    g = gen_cycle(5)
    rep = monte_carlo_verify(g, GreedyCcp(), 3, 50, 0)
    assert rep.p == 1.0
    assert rep.empirical_fail_rate == 0.0
    assert rep.slack == 0.0  # deterministic A and p=1: zero variance
    assert rep.bound_holds and rep.per_trial_invariant_ok


def test_monte_carlo_single_trial():
    g = gen_gnp(6, 0.5, 33000)
    rep = monte_carlo_verify(g, GreedyCcp(), 8, 1, 4)
    _, stats = run_on(g, 8, trial_seed(4, 0))
    assert rep.colors_b_per_trial == (stats.colors_b,)
    assert rep.fails_per_trial == (stats.fails,)


def test_monte_carlo_matches_sequential_runs(monkeypatch):
    # trials over one cached trace, on one re-keyed generator, must reproduce
    # run_algorithm_b bit for bit; on C5 with t=3 each trial's 9 draws leave
    # Philox's buffer mid-block, and p = 0.5 makes the draws matter
    master = 99
    for g, t, forced_p in ((gen_crown(4), 32, None), (gen_cycle(5), 3, 0.5)):
        if forced_p is not None:
            force_p(monkeypatch, forced_p)
        rep = monte_carlo_verify(g, GreedyCcp(), t, 20, master)
        for i in range(20):
            _, stats = run_on(g, t, trial_seed(master, i))
            assert rep.colors_b_per_trial[i] == stats.colors_b
            assert rep.colors_a_per_trial[i] == stats.colors_a
            assert rep.fails_per_trial[i] == stats.fails


def test_monte_carlo_jobs_do_not_change_report(monkeypatch):
    # at the real MIN_US_PER_WORKER these 30 trials would stay in process
    monkeypatch.setattr(pool, "MIN_US_PER_WORKER", 1)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert pool._workers(3, 30, 6, 16) > 1
    g = gen_crown(3)
    a = monte_carlo_verify(g, GreedyCcp(), 16, 30, 7, jobs=1)
    b = monte_carlo_verify(g, GreedyCcp(), 16, 30, 7, jobs=3)
    assert a == b


def test_monte_carlo_workers_clamped_to_trials_and_cpus(monkeypatch, recording_executor):
    started = recording_executor
    monkeypatch.setattr(pool, "MIN_US_PER_WORKER", 1)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    g = gen_crown(3)
    serial = monte_carlo_verify(g, GreedyCcp(), 16, 10, 7)
    assert monte_carlo_verify(g, GreedyCcp(), 16, 10, 7, jobs=10**6) == serial
    few = monte_carlo_verify(g, GreedyCcp(), 16, 3, 7, jobs=64)
    assert few.colors_b_per_trial == serial.colors_b_per_trial[:3]
    assert started == [4, 3]
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert monte_carlo_verify(g, GreedyCcp(), 16, 10, 7, jobs=8) == serial
    assert started == [4, 3]  # unknown CPU count: trials run in this process


def test_monte_carlo_below_worker_threshold_stays_in_process(monkeypatch, recording_executor):
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    g = gen_crown(3)
    serial = monte_carlo_verify(g, GreedyCcp(), 16, 200, 7)
    assert monte_carlo_verify(g, GreedyCcp(), 16, 200, 7, jobs=4) == serial
    assert recording_executor == []


def test_worker_count_follows_modeled_work(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    # crown k=8 (n = 16), t = 64: 2,000 trials stay in process, 20,000 get two
    assert pool._workers(2, 2000, 16, 64) <= 1
    assert pool._workers(2, 20_000, 16, 64) == 2
    # a trial on G(300, p) with t = 64 costs about 12 crown trials
    assert pool._workers(2, 200, 300, 64) <= 1
    assert pool._workers(2, 1000, 300, 64) == 2
    assert pool._workers(8, 10**6, 300, 64) == 4
    assert pool._workers(1, 10**6, 300, 64) == 1


def test_monte_carlo_crown_fail_rate():
    g = gen_crown(4)  # n = 8
    rep = monte_carlo_verify(g, GreedyCcp(), 64, 1000, 1)
    assert rep.empirical_fail_rate <= 2 / 8
    assert rep.bound_holds and rep.per_trial_invariant_ok


class UndeclaredGreedy(GreedyCcp):
    deterministic = False


def test_monte_carlo_nondeterministic_algo_path(monkeypatch, recording_executor):
    # an A without the deterministic flag records a trace per trial; trial i
    # still draws trial_seed(2, i)'s stream, in this process whatever jobs is
    monkeypatch.setattr(pool, "MIN_US_PER_WORKER", 1)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    g = gen_crown(4)   # t = 16: B's colors and fails vary from trial to trial
    rep = monte_carlo_verify(g, UndeclaredGreedy(), 16, 5, 2)
    assert rep.trials == 5 and rep.per_trial_invariant_ok
    for i in range(5):
        _, stats = run_algorithm_b(g.n, events_from_graph(g), UndeclaredGreedy(), 16, trial_seed(2, i))
        assert rep.colors_b_per_trial[i] == stats.colors_b
        assert rep.colors_a_per_trial[i] == stats.colors_a
        assert rep.fails_per_trial[i] == stats.fails
    assert len(set(rep.colors_b_per_trial)) > 1   # the trials drew distinct streams
    assert monte_carlo_verify(g, UndeclaredGreedy(), 16, 5, 2, jobs=2) == rep
    assert recording_executor == []


class UnusedCcp(GreedyCcp):
    def start(self, n, t):
        raise AssertionError("A ran before its arguments were checked")


@pytest.mark.parametrize("master_seed", [1.7, True, -1])
def test_monte_carlo_rejects_a_seed_that_is_not_a_nonnegative_int(master_seed):
    with pytest.raises(InputError, match="master seed"):
        monte_carlo_verify(gen_cycle(5), UnusedCcp(), 2, 4, master_seed)


@pytest.mark.parametrize("seed", [1.7, True, -1])
def test_run_algorithm_b_rejects_a_seed_that_is_not_a_nonnegative_int(seed):
    # 1.7 and True once ran as seed 1
    g = gen_cycle(7)
    with pytest.raises(InputError, match="seed"):
        run_algorithm_b(g.n, events_from_graph(g), UnusedCcp(), 8, seed)


@pytest.mark.parametrize("trials", [True, 2.5, 0])
def test_monte_carlo_rejects_trials_that_are_not_a_positive_int(trials):
    # True once ran one trial and reported trials: True; 2.5 raised a bare
    # TypeError after A's trace was recorded
    with pytest.raises(InputError, match="trials"):
        monte_carlo_verify(gen_cycle(5), UnusedCcp(), 2, trials, 0)


def test_monte_carlo_report_records_rng_provenance():
    g = gen_cycle(5)
    rep = monte_carlo_verify(g, GreedyCcp(), 4, 2, 123)
    assert rep.master_seed == 123
    assert "philox" in rep.generator
    assert "spawn_key" in rep.seed_derivation
