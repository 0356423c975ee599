"""The exact search kernels on edge inputs and through the oracles."""

from vbplab import kernels
from vbplab.generators import gen_cycle
from vbplab.graphs import chromatic_number_exact
from vbplab.reductions import reduce_graph
from vbplab.vbp import opt_exact


def test_kernels_handle_unbounded_ints():
    # 70 vertices: the graph size has no fixed-width cap
    n = 70
    adj = [[] for _ in range(n)]
    chi, colors = kernels.chromatic_bnb(adj, 1, [0] * n)
    assert chi == 1 and set(colors) == {0}

    # a scaled capacity past 2^61: coordinates are unbounded ints
    cap = 2**62
    items = [(cap,), (cap,)]
    bins, assign = kernels.packing_bnb(items, cap, 1, [0, 1])
    assert bins == 2 and sorted(assign) == [0, 1]


def test_pure_backend_passes_an_oracle_spot_check():
    g = gen_cycle(5)
    assert chromatic_number_exact(g)[0] == 3
    assert opt_exact(reduce_graph(g))[0] == 3


def test_empty_inputs():
    assert kernels.chromatic_bnb([], 0, []) == (0, [])
    assert kernels.packing_bnb([], 1, 0, []) == (0, [])
