"""The copies-coloring problem: t interchangeable copies per vertex.

An instance keeps the base graph and t implicitly; the explicit blow-up
(clique per vertex, complete bipartite per edge) is only materialized when
an exact oracle needs it, since simulations may use large t where the base
graph's neighbour masks suffice.

Copies are (vertex, copy-index) with copy-index 1..t. A valid coloring
gives distinct colors to copies of the same vertex and to copies of
adjacent vertices, so the vertices owning a fixed color always form an
independent set of the base graph; that extraction is what connects copies
colorings to fractional colorings.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .errors import InputError, ResourceLimitError
from .graphs import (
    DEFAULT_EXACT_COLOR_LIMIT,
    FractionalColoring,
    Graph,
    chromatic_number_exact,
    events_from_graph,
    fractional_chromatic_exact,
    graph_from_edges,
)

Copy = tuple[int, int]
CopiesColoring = dict[Copy, int]


@dataclass(frozen=True)
class CopiesInstance:
    base: Graph
    t: int

    def __post_init__(self):
        if self.t < 1:
            raise InputError("copies per vertex must be >= 1")

    @property
    def num_copies(self) -> int:
        return self.base.n * self.t

    def copies(self) -> Iterable[Copy]:
        for v in self.base.vertices:
            for k in range(1, self.t + 1):
                yield (v, k)


def copy_vertex_id(v: int, k: int, t: int) -> int:
    """Blow-up vertex id of copy (v, k); copies of a vertex are consecutive."""
    return (v - 1) * t + k


def blow_up_explicit(inst: CopiesInstance) -> Graph:
    """Materialize the blow-up: K_t per vertex, K_{t,t} per edge."""
    t = inst.t
    edges = []
    for v in inst.base.vertices:
        for i in range(1, t + 1):
            for j in range(i + 1, t + 1):
                edges.append((copy_vertex_id(v, i, t), copy_vertex_id(v, j, t)))
    for u, v in inst.base.edges:
        for i in range(1, t + 1):
            for j in range(1, t + 1):
                edges.append((copy_vertex_id(u, i, t), copy_vertex_id(v, j, t)))
    return graph_from_edges(inst.num_copies, edges)


def validate_copies_coloring(inst: CopiesInstance, coloring: CopiesColoring) -> bool:
    """True iff copies of a vertex get distinct colors and neighbors never share.

    Raises InputError unless the coloring assigns exactly the instance's copies.
    """
    if len(coloring) > inst.num_copies:
        copies = set(inst.copies())
        stray = next(c for c in coloring if c not in copies)
        raise InputError(f"copies coloring assigns {stray!r}, not a copy of the instance")
    per_vertex: dict[int, set[int]] = {}
    for v in inst.base.vertices:
        colors = set()
        for k in range(1, inst.t + 1):
            if (v, k) not in coloring:
                raise InputError(f"copies coloring is partial: copy ({v},{k}) unassigned")
            colors.add(coloring[(v, k)])
        if len(colors) != inst.t:
            return False
        per_vertex[v] = colors
    for u, v in inst.base.edges:
        if per_vertex[u] & per_vertex[v]:
            return False
    return True


def color_class_vertices(
    inst: CopiesInstance, coloring: CopiesColoring, color: int
) -> frozenset[int]:
    """Base-graph vertices with some copy of the given color (independent in G)."""
    return frozenset(
        v for v in inst.base.vertices
        if any(coloring[(v, k)] == color for k in range(1, inst.t + 1))
    )


def fractional_coloring_from_copies(
    inst: CopiesInstance, coloring: CopiesColoring
) -> FractionalColoring:
    """Weight 1/t per color class, accumulated on equal classes.

    Each vertex has t differently-colored copies, so it lies in t classes
    and is covered to exactly 1; the total weight is (#colors)/t.
    """
    if not validate_copies_coloring(inst, coloring):
        raise InputError("invalid copies coloring")
    weights: dict[frozenset[int], Fraction] = {}
    step = Fraction(1, inst.t)
    for color in sorted(set(coloring.values())):
        cls = color_class_vertices(inst, coloring, color)
        weights[cls] = weights.get(cls, Fraction(0)) + step
    return FractionalColoring(weights)


def chromatic_number_copies_exact(
    inst: CopiesInstance, limit: int = DEFAULT_EXACT_COLOR_LIMIT
) -> tuple[int, CopiesColoring]:
    """chi of the explicit blow-up, witness mapped back to (vertex, copy) pairs."""
    if inst.num_copies > limit:
        raise ResourceLimitError(
            f"exact copies coloring limited to n*t <= {limit}, got {inst.num_copies}"
        )
    chi, coloring = chromatic_number_exact(blow_up_explicit(inst), limit=limit)
    t = inst.t
    mapped = {
        ((vid - 1) // t + 1, (vid - 1) % t + 1): c for vid, c in coloring.items()
    }
    return chi, mapped


class GreedyCcp:
    """Online First-Fit on copies: each copy takes the smallest feasible color.

    Each color's class is one vertex mask, bit v-1 for vertex v, as in
    `Graph.masks`; it is open to a vertex iff it misses the back-edge mask.
    The t copies of a vertex receive the t smallest open colors.
    """

    deterministic = True

    def start(self, n: int, t: int) -> None:
        self.t = t
        self.classes: list[int] = []

    def color_copies(self, vertex: int, back_mask: int) -> tuple[int, ...]:
        classes = self.classes
        bit = 1 << (vertex - 1)
        colors = []
        c = 0
        while len(colors) < self.t:
            if c == len(classes):
                classes.append(0)
            if not classes[c] & back_mask:
                classes[c] |= bit
                colors.append(c)
            c += 1
        return tuple(colors)


def greedy_online_ccp(inst: CopiesInstance) -> CopiesColoring:
    """Deterministic baseline copies coloring in arrival order."""
    algo = GreedyCcp()
    algo.start(inst.base.n, inst.t)
    out: CopiesColoring = {}
    for v, back_mask in enumerate(events_from_graph(inst.base), 1):
        for k, c in enumerate(algo.color_copies(v, back_mask), 1):
            out[(v, k)] = c
    return out


@dataclass(frozen=True)
class SandwichReport:
    chi_f: Fraction
    chi_t_over_t: Fraction
    chi: int
    holds: bool


def check_sandwich(
    inst: CopiesInstance, color_limit: int = DEFAULT_EXACT_COLOR_LIMIT
) -> SandwichReport:
    """Exact check of chi_f(G) <= chi(G^t)/t <= chi(G)."""
    chi_f, _ = fractional_chromatic_exact(inst.base)
    chi_t, _ = chromatic_number_copies_exact(inst, limit=color_limit)
    chi, _ = chromatic_number_exact(inst.base, limit=color_limit)
    return sandwich_report(chi_f, chi_t, inst.t, chi)


def sandwich_report(chi_f: Fraction, chi_t: int, t: int, chi: int) -> SandwichReport:
    """The chain chi_f(G) <= chi(G^t)/t <= chi(G) from its three values.

    Lets a caller that checks several t on one graph compute chi_f(G) and
    chi(G) once.
    """
    ratio = Fraction(chi_t, t)
    return SandwichReport(
        chi_f=chi_f,
        chi_t_over_t=ratio,
        chi=chi,
        holds=chi_f <= ratio <= chi,
    )
