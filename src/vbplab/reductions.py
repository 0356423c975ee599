"""The two online reductions to vector bin packing, and the way back.

A graph on n vertices becomes a VBP instance in d = n dimensions: vertex i
maps to the vector with 1 in its own coordinate and 1/n in the coordinate
of every already-arrived neighbor, emitted as the int row with n and 1
over capacity n. Items then share a bin exactly when the matching
vertices are independent, so bins are colors. The copies variant emits t
identical items per vertex while keeping d = n, which is what lets the
optimal bin count grow without the dimension moving.

Both reductions are streaming: the row for arrival i depends only on
events 1..i. The total count n must be known upfront because it is the
capacity. Materializing a whole instance takes n*t items of n
coordinates each, so `reduce_graph` and `reduce_copies` refuse instances
above MAX_REDUCED_COORDINATES before building any item.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .copies import CopiesColoring, CopiesInstance, validate_copies_coloring
from .errors import InputError, ProtocolError, ResourceLimitError
from .graphs import Graph, OnlineVertexEvent, checked_events, events_from_graph
from .vbp import Lanes, PackingState, Row, VbpInstance, validate_packing

MAX_REDUCED_COORDINATES = 2**24


def _reduced_vector(n: int, event: OnlineVertexEvent) -> Row:
    i = event.vertex
    coords = [0] * n
    coords[i - 1] = n
    for j in event.back_edges:
        coords[j - 1] = 1
    return tuple(coords)


def coloring_to_vbp(n: int, events: Iterable[OnlineVertexEvent]) -> Iterator[Row]:
    """Stream of int rows over capacity n for the coloring reduction (d = n)."""
    if n < 1:
        raise InputError("need at least one vertex")
    for event in checked_events(n, events):
        yield _reduced_vector(n, event)


def ccp_to_vbp(n: int, t: int, events: Iterable[OnlineVertexEvent]) -> Iterator[Row]:
    """Copies reduction: t identical copies of each reduced row, d = n."""
    if t < 1:
        raise InputError("copies per vertex must be >= 1")
    for row in coloring_to_vbp(n, events):
        for _ in range(t):
            yield row


def check_reduced_size(n: int, t: int) -> None:
    """Refuse a reduction of n vertices with t copies above MAX_REDUCED_COORDINATES."""
    if n * n * t > MAX_REDUCED_COORDINATES:
        raise ResourceLimitError(
            f"reduction limited to {MAX_REDUCED_COORDINATES} coordinates, got n*n*t = {n * n * t}"
        )


def reduce_graph(graph: Graph) -> VbpInstance:
    """Materialized coloring reduction of a whole graph."""
    check_reduced_size(graph.n, 1)
    return VbpInstance.from_rows(graph.n, graph.n, coloring_to_vbp(graph.n, events_from_graph(graph)))


def reduce_copies(inst: CopiesInstance) -> VbpInstance:
    """Materialized copies reduction of a whole copies instance."""
    n = inst.base.n
    check_reduced_size(n, inst.t)
    return VbpInstance.from_rows(n, n, ccp_to_vbp(n, inst.t, events_from_graph(inst.base)))


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

    Feeds each arriving vertex's t copies of its int row to the packer
    (start(n, n), then place(row) -> bin) and reports bin indices as
    colors; colors used equals bins opened. Shadow loads in the `Lanes`
    form re-check every placement so a misbehaving packer surfaces as a
    ProtocolError instead of an invalid coloring.
    """

    def __init__(self, packer):
        self.packer = packer
        self.deterministic = getattr(packer, "deterministic", False)

    def start(self, n: int, t: int) -> None:
        self.n = n
        self.t = t
        self.packer.start(n, n)
        self._lanes = Lanes(n, n)
        self._loads: list[int] = []

    def color_copies(self, vertex: int, back_edges: frozenset[int]) -> tuple[int, ...]:
        row = _reduced_vector(self.n, OnlineVertexEvent(vertex, frozenset(back_edges)))
        lanes = self._lanes
        w = lanes.pack(row)
        colors = []
        for _ in range(self.t):
            b = self.packer.place(row)
            if not isinstance(b, int):
                raise ProtocolError(f"packer returned bin {b!r}, not an integer")
            if not 0 <= b <= len(self._loads):
                raise ProtocolError(f"packer placed into nonexistent bin {b}")
            if b == len(self._loads):
                self._loads.append(lanes.empty)
            load = self._loads[b] + w
            if load & lanes.guard:
                raise ProtocolError(f"packer overfilled bin {b}")
            self._loads[b] = load
            colors.append(b)
        return tuple(colors)
