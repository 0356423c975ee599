"""Coloring -> VBP and copies -> VBP reductions, and the inverse mappings."""

import math
from fractions import Fraction
from itertools import combinations

import pytest

from oracles import fraction_items
from vbplab.copies import CopiesInstance, GreedyCcp, validate_copies_coloring
from vbplab import reductions
from vbplab.errors import InputError, ProtocolError, ResourceLimitError
from vbplab.generators import (
    all_connected_graphs,
    gen_complete,
    gen_crown,
    gen_cycle,
    gen_empty,
    gen_gnp,
    gen_path,
)
from vbplab.graphs import (
    chromatic_number_exact,
    events_from_graph,
    graph_from_edges,
    greedy_online_coloring,
    is_independent_set,
)
from vbplab.reductions import (
    VbpBackedCcp,
    coloring_to_vbp,
    packing_to_copies_coloring,
    reduce_copies,
    reduce_graph,
)
from vbplab.pool import run_algorithm_b
from vbplab.vbp import (
    FirstFitPacker,
    first_fit_online,
    fits_together,
    format_vbp_text,
    opt_exact,
    parse_vbp_text,
)

F = Fraction


# ------------------------------------------------------------ item emission


def test_k3_vectors_match_rule():
    inst = reduce_graph(gen_complete(3))
    assert inst.d == 3
    assert fraction_items(inst) == (
        (F(1), F(0), F(0)),
        (F(1, 3), F(1), F(0)),
        (F(1, 3), F(1, 3), F(1)),
    )
    assert inst.scale == 3 and inst.rows == ((3, 0, 0), (1, 3, 0), (1, 1, 3))


def test_empty_graph_gives_basis():
    inst = reduce_graph(gen_empty(3))
    assert fraction_items(inst) == (
        (F(1), F(0), F(0)),
        (F(0), F(1), F(0)),
        (F(0), F(0), F(1)),
    )
    assert inst.scale == 1 and inst.rows == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_p3_vectors():
    inst = reduce_graph(gen_path(3))
    assert fraction_items(inst) == (
        (F(1), F(0), F(0)),
        (F(1, 3), F(1), F(0)),
        (F(0), F(1, 3), F(1)),
    )
    assert opt_exact(inst)[0] == 2 == chromatic_number_exact(gen_path(3))[0]


def test_streaming_upper_coords_zero():
    for i in range(10):
        g = gen_gnp(6, 0.5, 21000 + i)
        for idx, item in enumerate(fraction_items(reduce_graph(g)), 1):
            assert item[idx - 1] == 1
            assert all(item[j] == 0 for j in range(idx, g.n))


def test_rejects_forward_back_edge():
    rows = coloring_to_vbp(2, [0, 0b10])
    assert next(rows) == (2, 0)  # streaming: vertex 1's row comes before the check of vertex 2
    with pytest.raises(InputError, match="vertex 2"):
        next(rows)


def test_rejects_stream_short_of_n():
    with pytest.raises(InputError, match="end after 2"):
        list(coloring_to_vbp(3, [0, 0b1]))


def test_ccp_reduction_emits_t_copies():
    inst = reduce_copies(CopiesInstance(gen_complete(2), 2))
    assert fraction_items(inst) == (
        (F(1), F(0)),
        (F(1), F(0)),
        (F(1, 2), F(1)),
        (F(1, 2), F(1)),
    )
    assert opt_exact(inst)[0] == 4  # = chi(K2^2) = chi(K4)


def test_size_limit_checked_before_any_item(monkeypatch):
    monkeypatch.setattr(reductions, "MAX_REDUCED_COORDINATES", 9)
    assert reduce_graph(gen_complete(3)).n == 3  # 3 items of d = 3: at the limit

    def no_items(*args):
        raise AssertionError("built an item above the size limit")

    monkeypatch.setattr(reductions, "_reduced_vector", no_items)
    with pytest.raises(ResourceLimitError):
        reduce_graph(gen_complete(4))
    with pytest.raises(ResourceLimitError):
        reduce_copies(CopiesInstance(gen_complete(3), 2))  # t multiplies the items


def test_ccp_reduction_trivial_cases():
    assert opt_exact(reduce_copies(CopiesInstance(gen_empty(2), 2)))[0] == 2
    assert opt_exact(reduce_copies(CopiesInstance(graph_from_edges(1, []), 3)))[0] == 3


@pytest.mark.parametrize(
    "inst",
    [
        reduce_graph(gen_empty(3)),
        reduce_graph(gen_crown(4)),
        reduce_graph(gen_gnp(9, 0.4, 5)),
        reduce_copies(CopiesInstance(gen_cycle(5), 3)),
    ],
    ids=["empty3", "crown4", "gnp9", "c5-t3"],
)
def test_reductions_are_canonical(inst):
    assert math.gcd(inst.scale, *(e for row in inst.rows for e in row)) == 1
    assert parse_vbp_text(format_vbp_text(inst)) == inst


# ------------------------------------------------ subset-level equivalence


def test_subset_fits_iff_independent():
    for i in range(8):
        g = gen_gnp(6, 0.5, 22000 + i)
        inst = reduce_graph(g)
        for r in range(g.n + 1):
            for subset in combinations(range(1, g.n + 1), r):
                assert fits_together(inst, [v - 1 for v in subset]) == is_independent_set(g, subset)


def test_opt_equals_chi_small_exhaustive():
    for n in range(1, 5):
        for g in all_connected_graphs(n):
            assert opt_exact(reduce_graph(g))[0] == chromatic_number_exact(g)[0]


def test_bin_holds_at_most_one_copy_per_vertex():
    for i in range(6):
        g = gen_gnp(3, 0.6, 23000 + i)
        inst_c = CopiesInstance(g, 3)
        packing = first_fit_online(reduce_copies(inst_c))
        for b in packing.bins:
            owners = [idx // inst_c.t for idx in b.items]
            assert len(owners) == len(set(owners))


# ------------------------------------------------------------ inverse maps


def test_packing_to_coloring_trivial_cases():
    inst = CopiesInstance(gen_empty(2), 1)
    packing = first_fit_online(reduce_copies(inst))
    coloring = packing_to_copies_coloring(inst, packing)
    assert coloring == {(1, 1): 0, (2, 1): 0}

    inst = CopiesInstance(gen_complete(2), 1)
    packing = first_fit_online(reduce_copies(inst))
    coloring = packing_to_copies_coloring(inst, packing)
    assert coloring == {(1, 1): 0, (2, 1): 1}


def test_packing_to_coloring_c5_witness():
    inst = CopiesInstance(gen_cycle(5), 2)
    opt, witness = opt_exact(reduce_copies(inst))
    assert opt == 5
    coloring = packing_to_copies_coloring(inst, witness)
    assert validate_copies_coloring(inst, coloring)
    assert len(set(coloring.values())) == 5


def test_packing_to_coloring_rejects_infeasible():
    from vbplab.vbp import Bin, PackingState

    inst = CopiesInstance(gen_complete(2), 1)
    # both items in one bin: coordinate 1 sums to 1 + 1/2 > 1
    bad = PackingState(bins=[Bin([0, 1])])
    with pytest.raises(InputError):
        packing_to_copies_coloring(inst, bad)


def test_opt_equals_blowup_chi():
    from vbplab.copies import chromatic_number_copies_exact

    for i in range(5):
        g = gen_gnp(3, 0.5, 24000 + i)
        for t in (1, 2, 3):
            inst = CopiesInstance(g, t)
            assert (
                opt_exact(reduce_copies(inst))[0]
                == chromatic_number_copies_exact(inst)[0]
            )


# ------------------------------------------------------- algorithm adapter


def test_adapter_single_vertex():
    algo = VbpBackedCcp(FirstFitPacker())
    algo.start(1, 2)
    assert algo.color_copies(1, 0) == (0, 1)


def test_adapter_empty_graph_reuses_bin():
    algo = VbpBackedCcp(FirstFitPacker())
    algo.start(2, 1)
    assert algo.color_copies(1, 0) == (0,)
    assert algo.color_copies(2, 0) == (0,)


def test_adapter_k2_t2_four_colors():
    algo = VbpBackedCcp(FirstFitPacker())
    algo.start(2, 2)
    assert algo.color_copies(1, 0) == (0, 1)
    assert algo.color_copies(2, 0b1) == (2, 3)


def test_adapter_matches_first_fit_bin_count():
    for i in range(8):
        g = gen_gnp(5, 0.5, 25000 + i)
        t = 2
        algo = VbpBackedCcp(FirstFitPacker())
        algo.start(g.n, t)
        coloring = {}
        for v, back_mask in enumerate(events_from_graph(g), 1):
            for k, c in enumerate(algo.color_copies(v, back_mask), 1):
                coloring[(v, k)] = c
        inst_c = CopiesInstance(g, t)
        assert validate_copies_coloring(inst_c, coloring)
        ff_bins = first_fit_online(reduce_copies(inst_c)).num_bins
        assert len(set(coloring.values())) == ff_bins


@pytest.mark.parametrize("bin_index", ["0", 0.0, None])
def test_adapter_rejects_non_integer_bin(bin_index):
    class StrayPacker:
        def start(self, d, capacity):
            pass

        def place(self, row):
            return bin_index

    algo = VbpBackedCcp(StrayPacker())
    algo.start(2, 1)
    with pytest.raises(ProtocolError):
        algo.color_copies(1, 0)


def _copy_colors(algo, graph, t):
    algo.start(graph.n, t)
    return [algo.color_copies(v, back) for v, back in enumerate(events_from_graph(graph), 1)]


@pytest.mark.parametrize(
    "graph, t",
    [(gen_crown(8), 64), (gen_gnp(30, 0.3, 7), 16), (gen_gnp(60, 0.1, 16), 16)],
    ids=["crown8-t64", "gnp30-t16", "gnp60-t16"],
)
def test_first_fit_through_adapter_reproduces_greedy_ccp(graph, t):
    # a vertex's t copies are a run of equal rows, which First-Fit places
    # from the previous copy's bin on
    assert _copy_colors(VbpBackedCcp(FirstFitPacker()), graph, t) == _copy_colors(GreedyCcp(), graph, t)
    seed = 11
    via_packer = run_algorithm_b(graph.n, events_from_graph(graph), VbpBackedCcp(FirstFitPacker()), t, seed)
    via_greedy = run_algorithm_b(graph.n, events_from_graph(graph), GreedyCcp(), t, seed)
    assert via_packer == via_greedy


def test_adapter_surfaces_bad_packer():
    class BrokenPacker:
        deterministic = True

        def start(self, d, capacity):
            pass

        def place(self, coords):
            return 0  # everything into bin 0, eventually infeasible

    algo = VbpBackedCcp(BrokenPacker())
    algo.start(2, 1)
    algo.color_copies(1, 0)
    with pytest.raises(ProtocolError):
        algo.color_copies(2, 0b1)


# ---------------------------------------------------- first-fit correspondence


def test_first_fit_equals_greedy_partition():
    for i in range(12):
        g = gen_gnp(9, 0.5, 26000 + i)
        packing = first_fit_online(reduce_graph(g))
        coloring = greedy_online_coloring(g)
        assert packing.num_bins == len(set(coloring.values()))
        bins = {
            frozenset(idx + 1 for idx in b.items) for b in packing.bins
        }
        classes = {
            frozenset(v for v, c in coloring.items() if c == color)
            for color in set(coloring.values())
        }
        assert bins == classes
