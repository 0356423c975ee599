"""Verification-suite behavior: green on honest code, red on sabotage."""

import dataclasses

import pytest
from oracles import naive_subset_independence

from vbplab import verify
from vbplab.copies import CopiesInstance, GreedyCcp
from vbplab.errors import InputError
from vbplab.generators import (
    all_connected_graphs,
    all_graphs,
    gen_complete,
    gen_cycle,
    gen_gnp,
    gen_path,
)
from vbplab.graphs import events_from_graph, validate_coloring
from vbplab.pool import run_algorithm_b
from vbplab.reductions import reduce_graph
from vbplab.vbp import Bin, PackingState, fits_together
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


def zero_first_coordinate(graph):
    """Zeroing the first coordinate lets adjacent items share a bin."""
    inst = reduce_graph(graph)
    dropped = (tuple(0 if j == 0 else e for j, e in enumerate(row)) for row in inst.rows)
    return type(inst).from_rows(inst.d, inst.scale, dropped)


def heavy_back_edges(graph):
    """Inflating back-edge marks to 1 makes vertices with a shared earlier
    neighbor collide even when independent: opt jumps past chi."""
    inst = reduce_graph(graph)
    heavy = (tuple(inst.scale if e != 0 else 0 for e in row) for row in inst.rows)
    return type(inst).from_rows(inst.d, inst.scale, heavy)


def test_fault_injection_names_broken_invariant():
    report = run_verification_suite(max_n=3, samples=5, seed=0, reduction=zero_first_coordinate)
    assert not report.passed
    failing = {r.name for r in report.results if not r.ok}
    assert "subset-independence" in failing
    assert "first-fit-correspondence" in failing
    for r in report.results:
        if r.name == "subset-independence":
            assert r.failures  # messages name the offending subset


def test_fault_injection_heavy_back_edges():
    report = run_verification_suite(max_n=3, samples=5, seed=0, reduction=heavy_back_edges)
    failing = {r.name for r in report.results if not r.ok}
    assert "reduction-equivalence" in failing


@pytest.mark.parametrize(
    "reduction", [reduce_graph, zero_first_coordinate, heavy_back_edges],
    ids=["honest", "zero-first-coordinate", "heavy-back-edges"],
)
def test_subset_walk_matches_naive_check(reduction):
    # count, failure text and failure order all match the subset-by-subset check
    graphs = [g for n in range(1, 5) for g in all_graphs(n)]
    graphs += [gen_gnp(1 + i % 7, 0.5, 500 + i) for i in range(20)]
    result = check_subset_independence(graphs, reduction)
    assert result == naive_subset_independence(graphs, reduction)
    assert result.ok == (reduction is reduce_graph)


def test_subset_check_keeps_the_traced_call_counts(monkeypatch):
    # the benchmark traces one reduction and 16 fit tests for C4, one per
    # subset, and rebinds the reduction through the check's default
    assert check_subset_independence.__defaults__ == (reduce_graph,)
    reduced, fits = [], []

    def counting_reduction(graph):
        reduced.append(graph)
        return reduce_graph(graph)

    def counting_fits(inst, items):
        fits.append(items)
        return fits_together(inst, items)

    monkeypatch.setattr(check_subset_independence, "__defaults__", (counting_reduction,))
    monkeypatch.setattr(verify, "fits_together", counting_fits)
    assert check_subset_independence([gen_cycle(4)]).ok
    assert len(reduced) == 1 and len(fits) == 16


def test_suite_reduces_each_graph_once():
    # reduction-equivalence and subset-independence share one reduction of
    # each corpus graph; first-fit-correspondence reduces its own samples
    reduced = []

    def counting_reduction(graph):
        reduced.append(graph)
        return reduce_graph(graph)

    report = run_verification_suite(max_n=3, samples=5, seed=0, reduction=counting_reduction)
    counts = {r.name: r.instances for r in report.results}
    corpus = sum(1 for n in range(1, 4) for _ in all_connected_graphs(n)) + 5
    assert counts["reduction-equivalence"] == counts["subset-independence"] == corpus
    assert len(reduced) == corpus + counts["first-fit-correspondence"] == corpus + 5
    assert len({id(g) for g in reduced}) == len(reduced)


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
