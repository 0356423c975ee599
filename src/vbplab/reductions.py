"""The two online reductions to vector bin packing, and the way back.

A graph on n vertices becomes a VBP instance in d = n dimensions: vertex i
maps to the vector with 1 in its own coordinate and 1/n in the coordinate
of every already-arrived neighbor. Items then share a bin exactly when the
matching vertices are independent, so bins are colors. The copies variant
emits t identical items per vertex while keeping d = n, which is what lets
the optimal bin count grow without the dimension moving.

Both reductions are streaming: the item for arrival i depends only on
events 1..i. The total count n must be known upfront because the edge
weight is 1/n. Materializing a whole instance takes n*t items of n
coordinates each, so `reduce_graph` and `reduce_copies` refuse instances
above MAX_REDUCED_COORDINATES before building any item.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator

from .copies import CopiesColoring, CopiesInstance, validate_copies_coloring
from .errors import InputError, ProtocolError, ResourceLimitError
from .graphs import Graph, OnlineVertexEvent, events_from_graph
from .vbp import PackingState, VbpInstance, Vector, validate_packing

MAX_REDUCED_COORDINATES = 2**24


def _reduced_vector(n: int, event: OnlineVertexEvent) -> Vector:
    i = event.vertex
    coords = [Fraction(0)] * n
    coords[i - 1] = Fraction(1)
    for j in event.back_edges:
        if not 1 <= j < i:
            raise InputError(f"back-edge {j} not earlier than vertex {i}")
        coords[j - 1] = Fraction(1, n)
    return tuple(coords)


def coloring_to_vbp(n: int, events: Iterable[OnlineVertexEvent]) -> Iterator[Vector]:
    """Stream of item vectors for the coloring reduction (d = n)."""
    if n < 1:
        raise InputError("need at least one vertex")
    expected = 1
    for event in events:
        if event.vertex != expected:
            raise InputError(f"events out of order: got vertex {event.vertex}, expected {expected}")
        if event.vertex > n:
            raise InputError(f"vertex {event.vertex} exceeds declared count {n}")
        yield _reduced_vector(n, event)
        expected += 1


def ccp_to_vbp(n: int, t: int, events: Iterable[OnlineVertexEvent]) -> Iterator[Vector]:
    """Copies reduction: t identical copies of each reduced vector, d = n."""
    if t < 1:
        raise InputError("copies per vertex must be >= 1")
    for vector in coloring_to_vbp(n, events):
        for _ in range(t):
            yield vector


def _check_reduced_size(n: int, t: int) -> None:
    if n * n * t > MAX_REDUCED_COORDINATES:
        raise ResourceLimitError(
            f"reduction limited to {MAX_REDUCED_COORDINATES} coordinates, got n*n*t = {n * n * t}"
        )


def reduce_graph(graph: Graph) -> VbpInstance:
    """Materialized coloring reduction of a whole graph."""
    _check_reduced_size(graph.n, 1)
    items = tuple(coloring_to_vbp(graph.n, events_from_graph(graph)))
    return VbpInstance(d=graph.n, items=items)


def reduce_copies(inst: CopiesInstance) -> VbpInstance:
    """Materialized copies reduction of a whole copies instance."""
    _check_reduced_size(inst.base.n, inst.t)
    items = tuple(ccp_to_vbp(inst.base.n, inst.t, events_from_graph(inst.base)))
    return VbpInstance(d=inst.base.n, items=items)


def packing_to_copies_coloring(inst: CopiesInstance, packing: PackingState) -> CopiesColoring:
    """Read a copies coloring off a feasible packing: bin index = color.

    Item (v-1)*t + (k-1) is copy (v, k). Feasibility of the packing forces
    both validity conditions: a bin holds at most one copy of any vector
    (own coordinate is 1), and copies in one bin correspond to an
    independent set, so the result always validates.
    """
    if not validate_packing(reduce_copies(inst), packing):
        raise InputError("packing is not a feasible packing of the reduced instance")
    t = inst.t
    coloring: CopiesColoring = {}
    for b, bin_ in enumerate(packing.bins):
        for item in bin_.items:
            coloring[(item // t + 1, item % t + 1)] = b
    if not validate_copies_coloring(inst, coloring):
        raise ProtocolError("feasible packing produced an invalid copies coloring")
    return coloring


class VbpBackedCcp:
    """Online copies-coloring algorithm driven by an online VBP algorithm.

    Feeds each arriving vertex's t item copies to the packer and reports
    bin indices as colors; colors used equals bins opened. Shadow loads
    re-check every placement so a misbehaving packer surfaces as a
    ProtocolError instead of an invalid coloring.
    """

    def __init__(self, packer):
        self.packer = packer
        self.deterministic = getattr(packer, "deterministic", False)

    def start(self, n: int, t: int) -> None:
        self.n = n
        self.t = t
        self.packer.start(n)
        self._loads: list[list[Fraction]] = []

    def color_copies(self, vertex: int, back_edges: frozenset[int]) -> tuple[int, ...]:
        vector = _reduced_vector(self.n, OnlineVertexEvent(vertex, frozenset(back_edges)))
        colors = []
        for _ in range(self.t):
            b = self.packer.place(vector)
            if not 0 <= b <= len(self._loads):
                raise ProtocolError(f"packer placed into nonexistent bin {b}")
            if b == len(self._loads):
                self._loads.append([Fraction(0)] * self.n)
            load = self._loads[b]
            if any(l + c > 1 for l, c in zip(load, vector)):
                raise ProtocolError(f"packer overfilled bin {b}")
            self._loads[b] = [l + c for l, c in zip(load, vector)]
            colors.append(b)
        return tuple(colors)


def vbp_algorithm_to_ccp_algorithm(packer) -> VbpBackedCcp:
    """Wrap an online VBP algorithm (start(d) / place(item) -> bin) as a CCP algorithm."""
    return VbpBackedCcp(packer)
