"""Graph generators and exhaustive enumeration.

Arrival order is part of an instance: generators fix vertex ids 1..n and
the online sequence presents them in id order. The crown generator
interleaves the two sides (a1 b1 a2 b2 ...) because that ordering is what
forces greedy to burn k colors on a 2-chromatic graph. Every instance is a
fixed graph; no generator adapts to an algorithm's answers.
The families pass edge lists to `graph_from_edges`; the enumeration builds
each `Graph`'s neighbour masks directly, and no edge list.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterator

from . import kernels
from .errors import InputError, ResourceLimitError
from .graphs import Graph, graph_from_edges, is_connected
from .rng import Seed, uniforms

# The largest graph a reduction takes with one copy per vertex (n*n <= 2^24);
# gnp, complete and crown refuse more before they build their O(n^2) pairs.
MAX_DENSE_VERTICES = 4096


def _check_dense_size(family: str, n: int) -> None:
    if n > MAX_DENSE_VERTICES:
        raise ResourceLimitError(f"{family} limited to {MAX_DENSE_VERTICES} vertices, got n = {n}")


def gen_gnp(n: int, prob: float, seed: Seed) -> Graph:
    """Erdos-Renyi G(n, p); one uniform per ascending pair (u, v), u < v."""
    if n < 1:
        raise InputError("need n >= 1")
    if not 0.0 <= prob <= 1.0:
        raise InputError("edge probability must be in [0, 1]")
    _check_dense_size("G(n, p)", n)
    pairs = list(combinations(range(1, n + 1), 2))
    if not pairs:
        return gen_empty(n)
    draws = uniforms(seed, len(pairs))
    edges = [pair for pair, x in zip(pairs, draws) if x < prob]
    return graph_from_edges(n, edges)


def gen_cycle(n: int) -> Graph:
    if n < 3:
        raise InputError("cycle needs n >= 3")
    edges = [(i, i + 1) for i in range(1, n)] + [(1, n)]
    return graph_from_edges(n, edges)


def gen_path(n: int) -> Graph:
    if n < 1:
        raise InputError("need n >= 1")
    return graph_from_edges(n, [(i, i + 1) for i in range(1, n)])


def gen_complete(n: int) -> Graph:
    if n < 1:
        raise InputError("need n >= 1")
    _check_dense_size("K_n", n)
    return graph_from_edges(n, combinations(range(1, n + 1), 2))


def gen_empty(n: int) -> Graph:
    if n < 1:
        raise InputError("need n >= 1")
    return Graph(n, (0,) * n)


def crown_vertex_ids(k: int) -> tuple[list[int], list[int]]:
    """Side A gets odd ids, side B even: a_i -> 2i-1, b_i -> 2i."""
    return [2 * i - 1 for i in range(1, k + 1)], [2 * i for i in range(1, k + 1)]


def gen_crown(k: int) -> Graph:
    """K_{k,k} minus a perfect matching, vertices interleaved a1 b1 a2 b2 ...

    a_i is adjacent to every b_j except its partner b_i. Bipartite, so
    chi = 2, yet greedy in arrival order spends k colors (a_i and b_i both
    receive color i-1: all smaller colors are blocked by back-edges).
    """
    if k < 2:
        raise InputError("crown needs k >= 2")
    _check_dense_size("crown", 2 * k)
    side_a, side_b = crown_vertex_ids(k)
    edges = [
        (side_a[i], side_b[j])
        for i in range(k)
        for j in range(k)
        if i != j
    ]
    return graph_from_edges(2 * k, edges)


def all_graphs(n: int) -> Iterator[Graph]:
    """All 2^C(n,2) labeled graphs on vertices 1..n, edge sets in binary order:
    bit i of the count selects the i-th pair of combinations(1..n, 2)."""
    if n < 1:
        raise InputError("need n >= 1")
    pairs = list(combinations(range(n), 2))
    for chosen in range(1 << len(pairs)):
        masks = [0] * n
        for i in kernels.bits(chosen):
            u, v = pairs[i]
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        yield Graph(n, tuple(masks))


def all_connected_graphs(n: int) -> Iterator[Graph]:
    """The connected graphs of all_graphs(n), in its order."""
    for graph in all_graphs(n):
        if is_connected(graph):
            yield graph
