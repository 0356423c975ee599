"""Verification-suite behavior: green on honest code, red on sabotage."""

import dataclasses

import pytest

from vbplab import verify
from vbplab.copies import CopiesInstance, GreedyCcp
from vbplab.errors import InputError
from vbplab.generators import gen_complete, gen_cycle, gen_path
from vbplab.graphs import events_from_graph, validate_coloring
from vbplab.pool import run_algorithm_b
from vbplab.reductions import reduce_graph
from vbplab.vbp import Bin, PackingState
from vbplab.verify import (
    check_copies_reduction_equivalence,
    check_crown_gaps,
    check_first_fit_correspondence,
    check_reduction_equivalence,
    check_simulation_feasibility,
    check_subset_independence,
    run_verification_suite,
)


def test_suite_passes_on_small_corpus():
    report = run_verification_suite(max_n=3, samples=5, seed=0)
    assert report.passed
    assert {r.name for r in report.results} == {
        "reduction-equivalence",
        "subset-independence",
        "sandwich-chain",
        "copies-reduction-equivalence",
        "packing-coloring-roundtrip",
        "first-fit-correspondence",
        "crown-gap",
        "simulation-feasibility",
    }
    for r in report.results:
        assert r.instances > 0


def test_suite_deterministic_given_seed():
    a = run_verification_suite(max_n=3, samples=4, seed=9)
    b = run_verification_suite(max_n=3, samples=4, seed=9)
    assert a.to_dict() == b.to_dict()


def test_suite_rejects_bad_parameters():
    with pytest.raises(InputError):
        run_verification_suite(max_n=0, samples=5, seed=0)
    with pytest.raises(InputError):
        run_verification_suite(max_n=3, samples=0, seed=0)


def test_report_dict_shape():
    d = run_verification_suite(max_n=2, samples=2, seed=1).to_dict()
    assert d["passed"] is True
    assert set(d) == {"max_n", "samples", "seed", "passed", "checks"}
    for check in d["checks"]:
        assert set(check) == {"name", "instances", "failures", "ok"}


def test_individual_checks_on_known_graphs():
    graphs = [gen_cycle(5), gen_path(4), gen_complete(3)]
    assert check_reduction_equivalence(graphs).ok
    assert check_subset_independence(graphs).ok
    assert check_first_fit_correspondence(graphs).ok
    assert check_crown_gaps((3, 4)).ok
    assert check_simulation_feasibility(graphs, t=8, seed=3).ok
    ccp = [CopiesInstance(gen_path(2), t) for t in (1, 2, 3)]
    assert check_copies_reduction_equivalence(ccp).ok


def test_fault_injection_names_broken_invariant():
    # zeroing the first coordinate lets adjacent items share a bin
    def corrupted(graph):
        inst = reduce_graph(graph)
        dropped = (tuple(0 if j == 0 else e for j, e in enumerate(row)) for row in inst.rows)
        return type(inst).from_rows(inst.d, inst.scale, dropped)

    report = run_verification_suite(max_n=3, samples=5, seed=0, reduction=corrupted)
    assert not report.passed
    failing = {r.name for r in report.results if not r.ok}
    assert "subset-independence" in failing
    assert "first-fit-correspondence" in failing
    for r in report.results:
        if r.name == "subset-independence":
            assert r.failures  # messages name the offending subset


def test_fault_injection_heavy_back_edges():
    # inflating back-edge marks to 1 makes vertices with a shared earlier
    # neighbor collide even when independent: opt jumps past chi
    def corrupted(graph):
        inst = reduce_graph(graph)
        heavy = (tuple(inst.scale if e != 0 else 0 for e in row) for row in inst.rows)
        return type(inst).from_rows(inst.d, inst.scale, heavy)

    report = run_verification_suite(max_n=3, samples=5, seed=0, reduction=corrupted)
    failing = {r.name for r in report.results if not r.ok}
    assert "reduction-equivalence" in failing


def test_first_fit_check_reports_infeasible_packing(monkeypatch):
    # path 1-2-3: greedy uses 2 colors; packing the adjacent items 1 and 2
    # together also uses 2 bins but overloads coordinate 1
    def overloaded(inst):
        return PackingState(bins=[Bin([0, 1]), Bin([2])])

    monkeypatch.setattr(verify, "first_fit_online", overloaded)
    result = check_first_fit_correspondence([gen_path(3)])
    assert not result.ok
    assert len(result.failures) == 1 and "infeasible" in result.failures[0]


def test_simulation_check_reports_an_infeasible_flag(monkeypatch):
    # a proper coloring does not cover a run that reports itself infeasible
    graph = gen_path(3)

    def flagged_infeasible(n, events, algo, t, seed):
        coloring, stats = run_algorithm_b(n, events, algo, t, seed)
        return coloring, dataclasses.replace(stats, feasible=False)

    assert check_simulation_feasibility([graph], t=4, seed=0).ok
    monkeypatch.setattr(verify, "run_algorithm_b", flagged_infeasible)
    coloring, stats = verify.run_algorithm_b(graph.n, events_from_graph(graph), GreedyCcp(), 4, 0)
    assert validate_coloring(graph, coloring) and not stats.feasible
    result = check_simulation_feasibility([graph], t=4, seed=0)
    assert result.failures == (f"simulation reported infeasible on n=3 edges={sorted(graph.edges)}",)


def test_simulation_check_reports_an_improper_coloring(monkeypatch):
    # a run that flags itself feasible but gives adjacent vertices one color
    graph = gen_path(3)

    def one_color(n, events, algo, t, seed):
        coloring, stats = run_algorithm_b(n, events, algo, t, seed)
        return dict.fromkeys(coloring, 0), stats

    monkeypatch.setattr(verify, "run_algorithm_b", one_color)
    coloring, stats = verify.run_algorithm_b(graph.n, events_from_graph(graph), GreedyCcp(), 4, 0)
    assert stats.feasible and set(coloring) == {1, 2, 3} and not validate_coloring(graph, coloring)
    result = check_simulation_feasibility([graph], t=4, seed=0)
    assert result.failures == (f"improper simulated coloring on n=3 edges={sorted(graph.edges)}",)
