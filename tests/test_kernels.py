"""The exact search kernels on edge inputs and through the oracles."""

import random
import sys
from fractions import Fraction

import pytest

from oracles import brute_chromatic, brute_opt_bins
from vbplab import kernels
from vbplab.copies import CopiesInstance, blow_up_explicit
from vbplab.generators import gen_crown, gen_cycle, gen_gnp
from vbplab.graphs import chromatic_number_exact, graph_from_edges, validate_coloring
from vbplab.reductions import reduce_graph
from vbplab.vbp import VbpInstance, opt_exact


def _lanes(items, capacity):
    """packing_bnb's first three arguments for int rows over `capacity`."""
    inst = VbpInstance(d=len(items[0]) if items else 1, scale=capacity, rows=tuple(items))
    return list(inst.packed), inst.lanes.guard, inst.lanes.empty


def test_kernels_handle_unbounded_ints():
    # 70 vertices: the graph size has no fixed-width cap
    n = 70
    masks = [0] * n
    chi, colors = kernels.chromatic_bnb(masks, range(n), 1, [0] * n)
    assert chi == 1 and set(colors) == {0}

    # a scaled capacity past 2^61: coordinates are unbounded ints
    cap = 2**62
    items = [(cap,), (cap,)]
    bins, assign = kernels.packing_bnb(*_lanes(items, cap), 1, [0, 1])
    assert bins == 2 and sorted(assign) == [0, 1]


def test_pure_backend_passes_an_oracle_spot_check():
    g = gen_cycle(5)
    assert chromatic_number_exact(g)[0] == 3
    assert opt_exact(reduce_graph(g))[0] == 3


def test_empty_inputs():
    assert kernels.chromatic_bnb([], [], 0, []) == (0, [])
    assert kernels.packing_bnb(*_lanes([], 1), 0, []) == (0, [])


def _proper(masks, colors):
    n = len(masks)
    return all(colors[u] != colors[v] for v in range(n) for u in range(n) if masks[v] >> u & 1)


def _packs(items, capacity, assign, bins):
    d = len(items[0])
    return sorted(set(assign)) == list(range(bins)) and all(
        sum(w[j] for w, b in zip(items, assign) if b == k) <= capacity
        for k in range(bins) for j in range(d)
    )


K33 = graph_from_edges(6, [(u, v) for u in (1, 2, 3) for v in (4, 5, 6)])
K222 = graph_from_edges(6, [(u, v) for u in range(1, 7) for v in range(u + 1, 7) if (u + 1) // 2 != (v + 1) // 2])


@pytest.mark.parametrize("graph, chi", [(gen_cycle(4), 2), (K33, 2), (K222, 3)], ids=["c4", "k33", "k222"])
def test_false_twins_may_share_a_color(graph, chi):
    # equal open neighbourhoods, pairwise non-adjacent: a twin rule keyed
    # on N(v) instead of N[v] would force them apart
    masks = graph.masks
    got, colors = kernels.chromatic_bnb(masks, kernels.degree_order(masks), 1, list(range(graph.n)))
    assert got == chi and _proper(masks, colors) and len(set(colors)) == chi
    got, coloring = chromatic_number_exact(graph)
    assert got == chi and validate_coloring(graph, coloring)


def test_packing_with_equal_rows_apart_matches_brute():
    # the identical-item rule reads only adjacent rows; equal rows spread
    # through the order must still reach the optimum
    rng = random.Random(7)
    for _ in range(40):
        cap = rng.randint(2, 5)
        pool = [tuple(rng.randint(0, cap) for _ in range(2)) for _ in range(2)]
        items = [pool[i % 2] for i in range(rng.randint(3, 5))]
        items.append(tuple(rng.randint(0, cap) for _ in range(2)))
        rng.shuffle(items)
        want = brute_opt_bins([tuple(Fraction(x, cap) for x in w) for w in items], 2)
        got, assign = kernels.packing_bnb(*_lanes(items, cap), 1, list(range(len(items))))
        assert got == want and _packs(items, cap, assign, got)


def test_kernels_prove_an_optimal_incumbent_above_lb():
    c5 = gen_cycle(5).masks
    assert kernels.chromatic_bnb(c5, kernels.degree_order(c5), 2, [0, 1, 0, 1, 2]) == (3, [0, 1, 0, 1, 2])
    items = [(2, 1), (2, 2), (2, 0)]   # no two share a bin of capacity 3; lb 2
    assert kernels.packing_bnb(*_lanes(items, 3), 2, [0, 1, 2]) == (3, [0, 1, 2])


def test_kernels_stop_at_lb_with_a_valid_witness():
    # a poor incumbent and a tight lb: the search returns as soon as it
    # meets lb, and what it returns must be a full witness
    for graph, chi in ((gen_cycle(7), 3), (K222, 3), (gen_crown(5), 2)):
        masks = graph.masks
        got, colors = kernels.chromatic_bnb(masks, kernels.degree_order(masks), chi, list(range(graph.n)))
        assert got == chi and _proper(masks, colors) and len(set(colors)) == chi
    inst = reduce_graph(gen_cycle(7))
    opt = opt_exact(inst)[0]
    got, assign = kernels.packing_bnb(*_lanes(inst.rows, inst.scale), opt, list(range(inst.n)))
    assert got == opt == 3 and _packs(inst.rows, inst.scale, assign, got)


# 40 G(n, 1/2) with n cycling through 10..14, then the twin-heavy members:
# C5 blown up t = 2, 3, 4 times, and crowns k = 3, 4, 5.
NODE_CORPUS = (
    [gen_gnp(10 + i % 5, 0.5, 1000 + i) for i in range(40)]
    + [blow_up_explicit(CopiesInstance(gen_cycle(5), t)) for t in (2, 3, 4)]
    + [gen_crown(k) for k in (3, 4, 5)]
)


def test_coloring_search_node_count_is_pinned():
    # Every call of the search's dfs closure is one node. The total is a
    # machine-independent measure of the search tree: a lost pruning or
    # symmetry rule, or a changed tie-break, moves it. A change that means
    # to move it updates this pin and says why.
    dfs = next(c for c in kernels.chromatic_bnb.__code__.co_consts if getattr(c, "co_name", "") == "dfs")
    nodes = 0

    def count(frame, event, arg):
        nonlocal nodes
        if event == "call" and frame.f_code is dfs:
            nodes += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        chis = [chromatic_number_exact(g, limit=g.n)[0] for g in NODE_CORPUS]
    finally:
        sys.setprofile(previous)
    assert nodes == 983
    # chi of C5 blown up t times is ceil(5t/2)
    assert chis[40:] == [5, 8, 10, 2, 2, 2]


# Blow-ups are made of twin classes and crowns of false twins. Backtracking
# with no twin rule checks the kernel's chi on the ones it finishes in a few
# milliseconds; C7 with t = 3 and C5 with t = 4 take a large part of a second.
TWIN_HEAVY = {
    **{f"c5-t{t}": blow_up_explicit(CopiesInstance(gen_cycle(5), t)) for t in (2, 3)},
    "c7-t2": blow_up_explicit(CopiesInstance(gen_cycle(7), 2)),
    **{f"crown{k}": gen_crown(k) for k in (3, 4, 5)},
}


@pytest.mark.parametrize("graph", TWIN_HEAVY.values(), ids=TWIN_HEAVY)
def test_twin_rule_agrees_with_plain_backtracking(graph):
    assert chromatic_number_exact(graph, limit=graph.n)[0] == brute_chromatic(graph)
