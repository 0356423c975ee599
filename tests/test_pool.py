"""Pool-sampling simulation: determinism, feasibility, accounting bounds."""

import math
import os

import pytest

from vbplab import pool
from vbplab.copies import CopiesInstance, GreedyCcp, color_class_vertices, greedy_online_ccp
from vbplab.errors import InputError, ProtocolError
from vbplab.generators import gen_crown, gen_cycle, gen_gnp
from vbplab.graphs import OnlineVertexEvent, events_from_graph, validate_coloring
from vbplab.pool import (
    fail_probability_bound,
    monte_carlo_verify,
    run_algorithm_b,
    sampling_probability,
    special_color,
)
from vbplab.reductions import VbpBackedCcp
from vbplab.rng import trial_seed
from vbplab.vbp import FirstFitPacker


def run_on(graph, t, seed, p=None):
    return run_algorithm_b(
        graph.n, events_from_graph(graph), GreedyCcp(), t, seed, p=p
    )


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


def test_feasible_including_failures():
    g = gen_gnp(8, 0.5, 28000)
    coloring, stats = run_on(g, 8, 3, p=0.05)  # low p forces some fails
    assert validate_coloring(g, coloring) and stats.feasible
    specials = {v for v, c in coloring.items() if isinstance(c, str)}
    assert len(specials) == stats.fails > 0


def test_all_fail_when_p_zero():
    g = gen_gnp(6, 0.5, 29000)
    coloring, stats = run_on(g, 4, 0, p=0.0)
    assert stats.fails == 6 and stats.pool_size == 0
    assert coloring == {v: special_color(v) for v in range(1, 7)}


def test_special_color_step_linkage():
    g = gen_gnp(8, 0.4, 30000)
    coloring, stats = run_on(g, 8, 11, p=0.1)
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

        def color_copies(self, vertex, back_edges):
            return tuple(range(self.t - 1))

    class RepeatsNeighbor:
        def start(self, n, t):
            self.t = t

        def color_copies(self, vertex, back_edges):
            return tuple(range(self.t))  # same colors every vertex

    g = gen_cycle(4)
    with pytest.raises(ProtocolError):
        run_algorithm_b(4, events_from_graph(g), WrongCount(), 3, 0)
    with pytest.raises(ProtocolError):
        run_algorithm_b(4, events_from_graph(g), RepeatsNeighbor(), 3, 0)


E = OnlineVertexEvent
MALFORMED_EVENTS = {
    "forward-back-edge": (2, [E(1, frozenset({2})), E(2, frozenset())]),
    "vertex-past-n": (2, [E(1, frozenset()), E(2, frozenset()), E(3, frozenset())]),
    "repeated-vertex": (2, [E(1, frozenset()), E(1, frozenset())]),
    "short-stream": (3, [E(1, frozenset()), E(2, frozenset({1}))]),
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


def test_monte_carlo_matches_sequential_runs():
    # trials over one cached trace must reproduce run_algorithm_b bit for bit
    g = gen_crown(4)
    master = 99
    rep = monte_carlo_verify(g, GreedyCcp(), 32, 20, master)
    for i in range(20):
        _, stats = run_on(g, 32, trial_seed(master, i))
        assert rep.colors_b_per_trial[i] == stats.colors_b
        assert rep.colors_a_per_trial[i] == stats.colors_a
        assert rep.fails_per_trial[i] == stats.fails


def test_monte_carlo_jobs_do_not_change_report():
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
    # crown k=8 (n = 16), t = 64: 2,000 trials stay in process, 10,000 get two
    assert pool._workers(2, 2000, 16, 64) <= 1
    assert pool._workers(2, 10_000, 16, 64) == 2
    # a trial on G(300, p) with t = 64 costs about 12 crown trials
    assert pool._workers(2, 100, 300, 64) <= 1
    assert pool._workers(2, 200, 300, 64) == 2
    assert pool._workers(8, 10**6, 300, 64) == 4
    assert pool._workers(1, 10**6, 300, 64) == 1


def test_monte_carlo_crown_fail_rate():
    g = gen_crown(4)  # n = 8
    rep = monte_carlo_verify(g, GreedyCcp(), 64, 1000, 1)
    assert rep.empirical_fail_rate <= 2 / 8
    assert rep.bound_holds and rep.per_trial_invariant_ok


def test_monte_carlo_nondeterministic_algo_path():
    # an A without the deterministic flag goes through the slow per-trial path
    class ShiftedGreedy(GreedyCcp):
        deterministic = False

    g = gen_gnp(5, 0.5, 34000)
    rep = monte_carlo_verify(g, ShiftedGreedy(), 8, 5, 2)
    assert rep.trials == 5 and rep.per_trial_invariant_ok


def test_monte_carlo_report_records_rng_provenance():
    g = gen_cycle(5)
    rep = monte_carlo_verify(g, GreedyCcp(), 4, 2, 123)
    assert rep.master_seed == 123
    assert "philox" in rep.generator
    assert "spawn_key" in rep.seed_derivation
