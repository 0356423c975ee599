"""Instance generators and exhaustive enumeration."""

import pytest

from vbplab import generators
from vbplab.errors import InputError, ResourceLimitError
from vbplab.generators import (
    all_connected_graphs,
    all_graphs,
    crown_vertex_ids,
    gen_complete,
    gen_crown,
    gen_cycle,
    gen_empty,
    gen_gnp,
)
from vbplab.graphs import chromatic_number_exact, greedy_online_coloring, is_connected


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


def test_dense_generators_refuse_above_the_vertex_limit(monkeypatch):
    monkeypatch.setattr(generators, "MAX_DENSE_VERTICES", 4)
    assert gen_complete(4).n == 4 and gen_crown(2).n == 4
    assert gen_gnp(4, 0.5, 0).n == 4
    for make in (lambda: gen_complete(5), lambda: gen_crown(3), lambda: gen_gnp(5, 0.5, 0)):
        with pytest.raises(ResourceLimitError, match="limited to 4 vertices"):
            make()


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
