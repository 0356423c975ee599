"""Graph core: construction, coloring validation, exact oracles."""

import math
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    brute_chromatic,
    brute_maximal_independent_sets,
    naive_greedy_coloring,
    odd_cycle_fractional_chi,
)
from vbplab.errors import InputError, ResourceLimitError
from vbplab.generators import all_graphs, gen_gnp
from vbplab.graphs import (
    _greedy_clique_size,
    chromatic_number_exact,
    events_from_graph,
    format_graph_text,
    fractional_chromatic_exact,
    graph_from_edges,
    greedy_online_coloring,
    is_independent_set,
    maximal_independent_sets,
    parse_instance_text,
    validate_coloring,
    validate_fractional_coloring,
)

P3 = graph_from_edges(3, [(1, 2), (2, 3)])
K3 = graph_from_edges(3, [(1, 2), (1, 3), (2, 3)])
C5 = graph_from_edges(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])


def complete(n):
    return graph_from_edges(n, [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)])


# ---------------------------------------------------------------- construction


def test_graph_from_edges_normalizes():
    g = graph_from_edges(3, [(2, 1), (1, 2), (2, 3)])
    assert g.n == 3 and g.m == 2
    assert g.edges == frozenset({(1, 2), (2, 3)})


def test_graph_rejects_self_loop():
    with pytest.raises(InputError):
        graph_from_edges(2, [(1, 1)])


def test_graph_rejects_out_of_range():
    with pytest.raises(InputError):
        graph_from_edges(2, [(1, 3)])


def test_empty_graph():
    g = graph_from_edges(3, [])
    assert g.m == 0 and list(g.vertices) == [1, 2, 3]


def test_neighbors():
    assert P3.adjacency[2] == frozenset({1, 3})
    assert P3.adjacency[1] == frozenset({2})


@settings(max_examples=60, deadline=None)
@given(n=st.sampled_from([0, 1, 2, 5, 9, 33, 70]), data=st.data())
def test_masks_agree_with_adjacency(n, data):
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    chosen = data.draw(st.lists(st.sampled_from(pairs), max_size=200)) if pairs else []
    g = graph_from_edges(n, chosen)
    assert len(g.masks) == n
    for v in g.vertices:
        assert g.masks[v - 1] == sum(1 << (u - 1) for u in g.adjacency[v])


def test_events_from_graph_back_edges_only():
    assert events_from_graph(K3) == [0, 0b1, 0b11]
    assert events_from_graph(P3) == [0, 0b1, 0b10]  # vertex 3's only earlier neighbour is 2


# ------------------------------------------------------------- independence


def test_independent_set_examples():
    assert is_independent_set(P3, {1, 3})
    assert not is_independent_set(P3, {1, 2})
    assert is_independent_set(K3, {1})
    assert is_independent_set(K3, set())


def test_independent_set_rejects_bad_vertex():
    with pytest.raises(InputError):
        is_independent_set(P3, {0, 1})
    with pytest.raises(InputError):
        is_independent_set(P3, (v for v in (1, 2, 4)))  # an edge, then n + 1


def test_independent_set_reads_a_generator_once():
    # a one-shot iterator: a second pass over it would see no vertices
    assert not is_independent_set(P3, (v for v in (1, 2)))
    assert is_independent_set(C5, (v for v in (1, 3)))
    assert not is_independent_set(C5, iter([1, 3, 4]))


# ----------------------------------------------------------------- coloring


def test_validate_coloring_examples():
    assert validate_coloring(K3, {1: "a", 2: "b", 3: "c"})
    assert not validate_coloring(K3, {1: "a", 2: "a", 3: "b"})
    assert validate_coloring(graph_from_edges(5, []), {v: "a" for v in range(1, 6)})


def test_validate_coloring_rejects_partial():
    with pytest.raises(InputError):
        validate_coloring(K3, {1: "a", 2: "b"})


@pytest.mark.parametrize(
    "coloring, stray",
    [({1: 0, 2: 1, 3: 0, -7: 0}, "3"), ({1: 0, 2: 1, "x": 0}, "'x'"), ({1: 0, 0: 1, 5: 2}, "0")],
)
def test_validate_coloring_rejects_keys_that_are_not_vertices(coloring, stray):
    with pytest.raises(InputError, match=f"assigns {stray}, not a vertex"):
        validate_coloring(graph_from_edges(2, [(1, 2)]), coloring)


def test_greedy_examples():
    assert sorted(greedy_online_coloring(K3).values()) == [0, 1, 2]
    empty4 = graph_from_edges(4, [])
    assert set(greedy_online_coloring(empty4).values()) == {0}


def test_greedy_crown6_uses_3_colors():
    # K_{3,3} minus a perfect matching, arrival a1 b1 a2 b2 a3 b3
    from vbplab.generators import gen_crown

    g = gen_crown(3)
    coloring = greedy_online_coloring(g)
    assert len(set(coloring.values())) == 3
    assert chromatic_number_exact(g)[0] == 2


def test_greedy_matches_set_first_fit_oracle():
    graphs = [P3, K3, C5, complete(5), graph_from_edges(0, [])]
    graphs += [gen_gnp(n, p, 300 + n) for n in range(1, 13) for p in (0.2, 0.5, 0.8)]
    for g in graphs:
        assert greedy_online_coloring(g) == naive_greedy_coloring(g)


def test_greedy_always_feasible():
    for i in range(20):
        g = gen_gnp(8, 0.5, 1000 + i)
        assert validate_coloring(g, greedy_online_coloring(g))


# ------------------------------------------------------------- exact oracles


def test_chromatic_examples():
    assert chromatic_number_exact(graph_from_edges(4, []))[0] == 1
    assert chromatic_number_exact(complete(5))[0] == 5
    assert chromatic_number_exact(C5)[0] == 3  # brute force: no 2-coloring exists


def test_chromatic_witness_is_feasible_and_tight():
    for n in range(1, 5):
        for g in all_graphs(n):
            chi, witness = chromatic_number_exact(g)
            assert validate_coloring(g, witness)
            assert len(set(witness.values())) == chi
            assert chi == brute_chromatic(g)


def test_chromatic_matches_brute_on_samples():
    for i in range(30):
        g = gen_gnp(8, 0.5, 2000 + i)
        assert chromatic_number_exact(g)[0] == brute_chromatic(g)


def test_greedy_clique_bound_never_exceeds_the_largest_clique():
    # chromatic_number_exact's lower bound: one above the largest clique
    # could stop the search at a wrong chi
    for n in range(1, 6):
        for g in all_graphs(n):
            omega = max(
                r for r in range(1, n + 1) for s in combinations(g.vertices, r)
                if all(e in g.edges for e in combinations(s, 2))
            )
            size = _greedy_clique_size(g.masks, list(range(n)))
            assert 1 <= size <= omega
    assert _greedy_clique_size(complete(6).masks, list(range(6))) == 6


def test_chromatic_resource_limit():
    with pytest.raises(ResourceLimitError):
        chromatic_number_exact(graph_from_edges(20, []), limit=16)


def test_fractional_examples():
    assert fractional_chromatic_exact(complete(4))[0] == 4
    assert fractional_chromatic_exact(graph_from_edges(6, []))[0] == 1
    assert fractional_chromatic_exact(C5)[0] == Fraction(5, 2)


def test_fractional_c5_is_an_exact_fraction_with_fraction_weights():
    # the LP rows are ints; value and witness still come back as Fractions
    value, witness = fractional_chromatic_exact(C5)
    assert type(value) is Fraction and value == Fraction(5, 2)
    assert len(witness.weights) == 5
    assert all(type(w) is Fraction for w in witness.weights.values())
    assert sum(witness.weights.values()) == value


def test_fractional_odd_cycles_closed_form():
    from vbplab.generators import gen_cycle

    for n in (5, 7, 9):
        assert fractional_chromatic_exact(gen_cycle(n))[0] == odd_cycle_fractional_chi(n)


def test_fractional_witness_validates():
    for i in range(10):
        g = gen_gnp(6, 0.5, 3000 + i)
        value, witness = fractional_chromatic_exact(g)
        assert validate_fractional_coloring(g, witness)
        assert witness.value == value


def test_fractional_resource_limit():
    with pytest.raises(ResourceLimitError):
        fractional_chromatic_exact(graph_from_edges(13, []), limit=12)


def test_chi_sandwiched_by_fractional():
    # chi_f <= chi <= (1 + ln n) * chi_f; exhaustive n <= 4, sampled n <= 8
    graphs = [g for n in range(1, 5) for g in all_graphs(n)]
    graphs += [gen_gnp(n, 0.5, 4000 + n * 31 + i) for n in (6, 8) for i in range(10)]
    for g in graphs:
        chi_f, _ = fractional_chromatic_exact(g)
        chi, _ = chromatic_number_exact(g)
        assert chi_f <= chi
        if g.n >= 1:
            assert chi <= (1 + math.log(g.n)) * float(chi_f) + 1e-9


def test_maximal_independent_sets_match_brute():
    for n in range(1, 5):
        for g in all_graphs(n):
            assert set(maximal_independent_sets(g)) == brute_maximal_independent_sets(g)
    for i in range(10):
        g = gen_gnp(7, 0.5, 5000 + i)
        assert set(maximal_independent_sets(g)) == brute_maximal_independent_sets(g)


# -------------------------------------------------------------- text format


def test_graph_text_roundtrip():
    assert parse_instance_text(format_graph_text(C5)) == (C5, None)
    assert parse_instance_text(format_graph_text(C5, t=3)) == (C5, 3)


def test_graph_text_comments_and_t():
    text = "# a comment\ng 3 1\nt 4\ne 1 2\n"
    g, t = parse_instance_text(text)
    assert g == graph_from_edges(3, [(1, 2)]) and t == 4


def test_graph_text_rejects_garbage():
    with pytest.raises(InputError):
        parse_instance_text("h 3 1\ne 1 2\n")
    with pytest.raises(InputError):
        parse_instance_text("g 3 2\ne 1 2\n")  # edge count mismatch


@pytest.mark.parametrize(
    "text, message",
    [
        ("g 3 0\ng 3 0\n", "line 2: duplicate 'g' header"),
        ("g 3 0\nt 2\nt 2\n", "line 3: duplicate 't' header"),
        ("g 3 0\nt 0\n", "line 2: t must be >= 1"),
        ("g 3 0\nx 1\n", "line 2: unrecognized line 'x 1'"),
    ],
)
def test_parse_errors_carry_one_line_prefix(text, message):
    with pytest.raises(InputError) as info:
        parse_instance_text(text)
    assert str(info.value) == message


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 8),
    data=st.data(),
)
def test_roundtrip_and_greedy_property(n, data):
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    g = graph_from_edges(n, chosen)
    assert parse_instance_text(format_graph_text(g)) == (g, None)
    coloring = greedy_online_coloring(g)
    assert validate_coloring(g, coloring)
    # greedy never beats the optimum
    assert len(set(coloring.values())) >= chromatic_number_exact(g)[0]
