"""Release gate: ten end-to-end checks with wall-clock budgets.

Each criterion prints a one-line verdict outside pytest's capture so the
run log lists every check explicitly, and asserts its own time budget.
"""

from __future__ import annotations

import json
import math
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations

import numpy as np

from vbplab.cli import main
from vbplab.copies import (
    CopiesInstance,
    GreedyCcp,
    check_sandwich,
    chromatic_number_copies_exact,
)
from vbplab.errors import InputError
from vbplab.generators import all_connected_graphs, all_graphs, gen_crown, gen_cycle, gen_gnp
from vbplab.graphs import (
    chromatic_number_exact,
    events_from_graph,
    greedy_online_coloring,
    is_independent_set,
    validate_coloring,
)
from vbplab.pool import (
    fail_probability_bound,
    monte_carlo_verify,
    run_algorithm_b,
    sampling_probability,
)
from vbplab.reductions import reduce_copies, reduce_graph
from vbplab.rng import make_rng, trial_seed
from vbplab.vbp import first_fit_online, fits_together, opt_exact


@contextmanager
def criterion(capsys, num, name, budget_s):
    t0 = time.perf_counter()
    yield
    elapsed = time.perf_counter() - t0
    assert elapsed < budget_s, f"criterion {num} over budget: {elapsed:.1f}s"
    with capsys.disabled():
        print(f"criterion {num:2d} {name}: PASS ({elapsed:.1f}s)")


def _seeded_gnp(count, max_n, seed):
    # n drawn uniformly from {2..max_n}, edges from a per-draw derived seed
    rng = make_rng(seed)
    out = []
    for i in range(count):
        n = int(rng.integers(2, max_n + 1))
        out.append(gen_gnp(n, 0.5, trial_seed(seed, i)))
    return out


def _reduction_corpus():
    enumerated = [g for n in range(1, 6) for g in all_connected_graphs(n)]
    return enumerated + _seeded_gnp(200, 7, seed=101)


_MC: dict[str, object] = {}


def _crown_mc():
    # shared by criteria 6 and 7; first caller pays the cost inside its budget
    if "report" not in _MC:
        _MC["report"] = monte_carlo_verify(
            gen_crown(8), GreedyCcp(), t=64, trials=10_000, master_seed=2024
        )
    return _MC["report"]


def test_criterion_01_reduction_equivalence(capsys):
    with criterion(capsys, 1, "reduction optimum equals chromatic number", 60.0):
        for g in _reduction_corpus():
            chi, _ = chromatic_number_exact(g)
            opt, _ = opt_exact(reduce_graph(g))
            assert opt == chi, f"opt {opt} != chi {chi} on n={g.n} {sorted(g.edges)}"


def test_criterion_02_subset_independence(capsys):
    with criterion(capsys, 2, "subset fits one bin iff independent", 60.0):
        for g in _reduction_corpus():
            inst = reduce_graph(g)
            verts = list(g.vertices)
            for r in range(len(verts) + 1):
                for subset in combinations(verts, r):
                    fits = fits_together(inst, [v - 1 for v in subset])
                    assert fits == is_independent_set(g, subset), subset


def test_criterion_03_sandwich_chain(capsys):
    with criterion(capsys, 3, "chi_f <= chi(blow-up)/t <= chi as exact rationals", 120.0):
        for g in _seeded_gnp(100, 5, seed=303):
            for t in (1, 2, 3):
                assert check_sandwich(CopiesInstance(g, t)).holds
        pinned = check_sandwich(CopiesInstance(gen_cycle(5), 2))
        assert pinned.chi_f == Fraction(5, 2)
        assert pinned.chi_t_over_t == Fraction(5, 2)
        assert pinned.chi == 3


def test_criterion_04_copies_reduction_equivalence(capsys):
    with criterion(capsys, 4, "copies reduction optimum equals blow-up chi", 120.0):
        instances = [
            CopiesInstance(g, t)
            for n in range(1, 4)
            for g in all_graphs(n)
            for t in (1, 2, 3)
        ]
        instances.append(CopiesInstance(gen_cycle(5), 2))
        for inst in instances:
            chi_t, _ = chromatic_number_copies_exact(inst)
            opt, _ = opt_exact(reduce_copies(inst))
            assert opt == chi_t, f"n={inst.base.n} t={inst.t}: {opt} != {chi_t}"


def test_criterion_05_simulation_feasibility(capsys, simulation_corpus):
    with criterion(capsys, 5, "pool simulation always yields proper colorings", 60.0):
        corpus = simulation_corpus
        events = [events_from_graph(g) for g in corpus]
        ts = (1, 2, 4, 8)
        infeasible = 0
        for i in range(10_000):
            j = i % len(corpus)
            coloring, _ = run_algorithm_b(
                corpus[j].n, events[j], GreedyCcp(), ts[i % 4], trial_seed(9001, i)
            )
            try:
                proper = validate_coloring(corpus[j], coloring)
            except InputError:
                proper = False
            infeasible += not proper
        assert infeasible == 0


def test_criterion_06_fail_probability(capsys):
    with criterion(capsys, 6, "fail rate within 2/n on crown n=16", 60.0):
        rep = _crown_mc()
        assert rep.graph_n == 16 and rep.trials == 10_000
        assert rep.empirical_fail_rate <= 2.0 / 16.0
        # analytic per-step and union bounds on a log-spaced (n, t) grid
        ns = sorted({int(round(10 ** e)) for e in np.linspace(math.log10(2), 6.0, 25)})
        checked = 0
        for n in ns:
            base = math.ceil(2.0 * math.log(n))
            for t in (base + 1, 2 * base + 2, 200):
                if sampling_probability(n, t) >= 1.0:
                    continue
                assert fail_probability_bound(n, t).bound_holds, (n, t)
                checked += 1
        assert checked > 50


def test_criterion_07_expected_color_accounting(capsys):
    with criterion(capsys, 7, "colors_B within pool-sampling accounting", 120.0):
        rep = _crown_mc()
        assert rep.bound_holds
        assert rep.per_trial_invariant_ok
        # tie the reported bound to the raw per-trial data
        cb = np.asarray(rep.colors_b_per_trial, dtype=float)
        ca = np.asarray(rep.colors_a_per_trial, dtype=float)
        failed = np.asarray(rep.fails_per_trial, dtype=float) > 0
        assert math.isclose(rep.bound_lhs, float(cb.mean()))
        assert math.isclose(rep.empirical_fail_rate, float(failed.mean()))
        rhs = rep.p * float(ca.mean()) + rep.graph_n * float(failed.mean()) + rep.slack
        assert math.isclose(rep.bound_rhs, rhs, rel_tol=1e-9)
        assert rep.bound_lhs <= rhs * (1 + 1e-12)


def test_criterion_08_first_fit_correspondence(capsys):
    with criterion(capsys, 8, "first-fit bins equal greedy colors", 120.0):
        slope = Fraction(7, 10)
        for g in _seeded_gnp(100, 10, seed=808):
            inst = reduce_graph(g)
            packing = first_fit_online(inst)
            n_colors = len(set(greedy_online_coloring(g).values()))
            assert packing.num_bins == n_colors
            opt, _ = opt_exact(inst)
            assert Fraction(packing.num_bins) <= (Fraction(inst.d) + slope) * opt


def test_criterion_09_crown_gap(capsys):
    with criterion(capsys, 9, "crown gap k/2 with chi = 2", 60.0):
        for k in (3, 4, 5, 6):
            g = gen_crown(k)
            greedy_colors = len(set(greedy_online_coloring(g).values()))
            chi, _ = chromatic_number_exact(g)
            assert greedy_colors == k
            assert chi == 2
            assert Fraction(greedy_colors, chi) == Fraction(k, 2)


def test_criterion_10_bench_determinism(capsys):
    with criterion(capsys, 10, "bench output byte-identical minus wall time", 120.0):
        argv = [
            "bench", "first-fit", "--family", "gnp", "--n", "8",
            "--trials", "5", "--seed", "17",
        ]
        assert main(list(argv)) == 0
        out1 = capsys.readouterr().out
        assert main(list(argv)) == 0
        out2 = capsys.readouterr().out

        def canon(text):
            d = json.loads(text)
            d.pop("wall_time_s", None)
            return json.dumps(d, sort_keys=True)

        assert canon(out1) == canon(out2)
