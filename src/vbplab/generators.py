"""Graph generators, exhaustive enumeration, and online adversaries.

Arrival order is part of an instance: generators fix vertex ids 1..n and
the online sequence presents them in id order. The crown generator
interleaves the two sides (a1 b1 a2 b2 ...) because that ordering is what
forces greedy to burn k colors on a 2-chromatic graph.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterator, Protocol

import numpy as np

from .errors import InputError, ProtocolError
from .graphs import (
    ColorId,
    Coloring,
    Graph,
    OnlineVertexEvent,
    graph_from_edges,
    is_connected,
    validate_coloring,
)
from .rng import Seed, make_rng


def gen_gnp(n: int, prob: float, seed: Seed) -> Graph:
    """Erdos-Renyi G(n, p); one uniform per ascending pair (u, v), u < v."""
    if n < 1:
        raise InputError("need n >= 1")
    if not 0.0 <= prob <= 1.0:
        raise InputError("edge probability must be in [0, 1]")
    pairs = list(combinations(range(1, n + 1), 2))
    if not pairs:
        return Graph(n=n, edges=frozenset())
    draws = make_rng(seed).random(len(pairs))
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
    return graph_from_edges(n, combinations(range(1, n + 1), 2))


def gen_empty(n: int) -> Graph:
    if n < 1:
        raise InputError("need n >= 1")
    return Graph(n=n, edges=frozenset())


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
    side_a, side_b = crown_vertex_ids(k)
    edges = [
        (side_a[i], side_b[j])
        for i in range(k)
        for j in range(k)
        if i != j
    ]
    return graph_from_edges(2 * k, edges)


def all_graphs(n: int) -> Iterator[Graph]:
    """All 2^C(n,2) labeled graphs on vertices 1..n, edge sets in binary order."""
    if n < 1:
        raise InputError("need n >= 1")
    pairs = list(combinations(range(1, n + 1), 2))
    for bits in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
        yield graph_from_edges(n, edges)


def all_connected_graphs(n: int) -> Iterator[Graph]:
    for g in all_graphs(n):
        if is_connected(g):
            yield g


class AdaptiveAdversary(Protocol):
    """Chooses each arrival after observing the algorithm's previous answers.

    Declares its total vertex count n up front and emits exactly n events;
    the realized graph is only available once all events are out.
    """

    n: int

    def start(self, rng: np.random.Generator) -> None: ...

    def next_event(self, history: dict[int, ColorId]) -> OnlineVertexEvent | None: ...

    def final_graph(self) -> Graph: ...


class ReplayAdversary:
    """Oblivious adversary: plays a fixed graph in id order, ignores history."""

    def __init__(self, graph: Graph):
        self.graph = graph
        self.n = graph.n
        self._next = 1

    def start(self, rng: np.random.Generator) -> None:
        self._next = 1

    def next_event(self, history: dict[int, ColorId]) -> OnlineVertexEvent | None:
        v = self._next
        if v > self.graph.n:
            return None
        self._next += 1
        back = frozenset(u for u in self.graph.neighbors(v) if u < v)
        return OnlineVertexEvent(vertex=v, back_edges=back)

    def final_graph(self) -> Graph:
        return self.graph


class FreshColoring:
    """Worst-case-cooperative algorithm: a brand-new color for every vertex."""

    deterministic = True

    def start(self, n: int) -> None:
        self._next = 0

    def color_vertex(self, vertex: int, back_edges: frozenset[int]) -> ColorId:
        c = self._next
        self._next += 1
        return c


def run_adversary(
    adv: AdaptiveAdversary, algo, seed: Seed
) -> tuple[Graph, Coloring, int]:
    """Play algo against adv; returns (realized graph, coloring, color count).

    The coloring is validated against the final graph, and every event is
    checked to mention only previously seen vertices (ProtocolError).
    """
    rng = make_rng(seed)
    adv.start(rng)
    algo.start(adv.n)
    history: dict[int, ColorId] = {}
    while True:
        ev = adv.next_event(dict(history))
        if ev is None:
            break
        if ev.vertex in history:
            raise ProtocolError(f"adversary replayed vertex {ev.vertex}")
        if not ev.back_edges <= set(history):
            raise ProtocolError(
                f"adversary's back-edges at vertex {ev.vertex} mention unseen vertices"
            )
        history[ev.vertex] = algo.color_vertex(ev.vertex, ev.back_edges)
    graph = adv.final_graph()
    if len(history) != adv.n or set(history) != set(graph.vertices):
        raise ProtocolError("adversary did not emit exactly its declared n events")
    validate_coloring(graph, history)
    return graph, history, len(set(history.values()))
