"""Instance generators, exhaustive enumeration, and adversary protocol."""

import pytest

from vbplab.errors import InputError, ProtocolError
from vbplab.generators import (
    FreshColoring,
    ReplayAdversary,
    all_connected_graphs,
    all_graphs,
    crown_vertex_ids,
    gen_complete,
    gen_crown,
    gen_cycle,
    gen_empty,
    gen_gnp,
    run_adversary,
)
from vbplab.graphs import (
    GreedyColoring,
    chromatic_number_exact,
    graph_from_edges,
    greedy_online_coloring,
    is_connected,
)


def test_gnp_extremes():
    assert gen_gnp(5, 0.0, 0).m == 0
    assert gen_gnp(5, 1.0, 0) == gen_complete(5)


def test_gnp_reproducible():
    assert gen_gnp(6, 0.5, 7) == gen_gnp(6, 0.5, 7)
    # frozen from the first run with seed 7
    assert sorted(gen_gnp(6, 0.5, 7).edges) == [
        (1, 2), (1, 3), (1, 4), (1, 5), (1, 6),
        (2, 4), (2, 6), (4, 5), (4, 6), (5, 6),
    ]


def test_gnp_rejects_bad_probability():
    with pytest.raises(InputError):
        gen_gnp(5, 1.5, 0)


def test_cycle_complete_empty():
    assert chromatic_number_exact(gen_cycle(5))[0] == 3
    assert chromatic_number_exact(gen_complete(4))[0] == 4
    assert chromatic_number_exact(gen_empty(3))[0] == 1
    with pytest.raises(InputError):
        gen_cycle(2)


def test_crown_structure():
    g = gen_crown(2)  # C4 shape: each a_i adjacent to the other side's non-partner
    assert g.n == 4 and g.m == 2
    side_a, side_b = crown_vertex_ids(2)
    assert side_a == [1, 3] and side_b == [2, 4]


def test_crown_greedy_gap():
    for k in (2, 3, 5):
        g = gen_crown(k)
        colors = len(set(greedy_online_coloring(g).values()))
        assert colors == k
        assert chromatic_number_exact(g)[0] == 2


def test_crown_k2_greedy_matches_chi():
    # k=2 crown is perfect matching-free C4 complement: 2 disjoint edges
    g = gen_crown(2)
    assert len(set(greedy_online_coloring(g).values())) == 2
    assert chromatic_number_exact(g)[0] == 2


def test_all_graphs_counts():
    assert sum(1 for _ in all_graphs(3)) == 8
    assert sum(1 for _ in all_graphs(4)) == 64
    assert sum(1 for _ in all_connected_graphs(3)) == 4
    assert sum(1 for _ in all_connected_graphs(4)) == 38


def test_all_connected_graphs_are_connected():
    assert all(is_connected(g) for g in all_connected_graphs(4))


# ---------------------------------------------------------------- adversary


def test_replay_adversary_matches_offline_greedy():
    g = gen_gnp(7, 0.5, 35000)
    realized, coloring, count = run_adversary(ReplayAdversary(g), GreedyColoring(), 0)
    assert realized == g
    assert coloring == greedy_online_coloring(g)
    assert count == len(set(coloring.values()))


def test_crown_adversary_vs_greedy():
    _, _, count = run_adversary(ReplayAdversary(gen_crown(4)), GreedyColoring(), 0)
    assert count == 4


def test_fresh_coloring_uses_n_colors():
    g = gen_gnp(6, 0.5, 36000)
    _, coloring, count = run_adversary(ReplayAdversary(g), FreshColoring(), 0)
    assert count == g.n and len(set(coloring.values())) == g.n


def test_adversary_protocol_validation():
    class Cheater(ReplayAdversary):
        def next_event(self, history):
            ev = super().next_event(history)
            if ev is not None and ev.vertex == 2:
                from vbplab.graphs import OnlineVertexEvent

                return OnlineVertexEvent(vertex=2, back_edges=frozenset({5}))
            return ev

    g = graph_from_edges(3, [(1, 2)])
    with pytest.raises(ProtocolError):
        run_adversary(Cheater(g), GreedyColoring(), 0)


def test_adversary_must_emit_all_vertices():
    class Quitter(ReplayAdversary):
        def next_event(self, history):
            if len(history) >= 2:
                return None
            return super().next_event(history)

    g = gen_cycle(4)
    with pytest.raises(ProtocolError):
        run_adversary(Quitter(g), GreedyColoring(), 0)
