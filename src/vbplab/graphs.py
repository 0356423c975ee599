"""Graphs with an online arrival order, colorings, and exact desk-scale oracles.

Vertices are 1..n and the vertex id *is* the arrival position. Color ids are
opaque: plain non-negative integers for regular colors, with the string
namespace "s:<step>" reserved for the pool simulation's special colors.

A `Graph` is its neighbour masks, `Graph(n, masks)`: bit u-1 of masks[v-1]
is set iff u ~ v. Every vertex-set test (independence, connectivity,
cliques, coloring validation, First-Fit coloring, maximal independent sets,
the coloring kernel) reads them. `graph_from_edges` builds a graph from an
edge list, and `Graph.edges`, derived from the masks, is the view the text
format writes. Online algorithms see a graph as `events_from_graph`
presents it, in the same convention: entry v-1 is vertex v's back-edge
mask, bit u-1 for each earlier neighbour u. The greedy baseline,
`greedy_online_coloring`, colors in that order.

The exact oracles (chromatic number, fractional chromatic number) are meant
for small instances and refuse loudly above their size limits rather than
silently blowing up.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Hashable, Iterable, Iterator

from . import kernels, ratlp
from .errors import InputError, ResourceLimitError

ColorId = Hashable
Coloring = dict[int, ColorId]

DEFAULT_EXACT_COLOR_LIMIT = 16
DEFAULT_EXACT_LP_LIMIT = 12


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 1..n, arrival order = id order,
    stored as its neighbour masks: bit u-1 of masks[v-1] is set iff u ~ v."""

    n: int
    masks: tuple[int, ...]

    @cached_property
    def edges(self) -> frozenset[tuple[int, int]]:
        """The pairs (u, v) with u < v: the text format's view."""
        return frozenset((u + 1, v + 1) for v, mask in enumerate(self.masks)
                         for u in kernels.bits(mask & ((1 << v) - 1)))

    @cached_property
    def adjacency(self) -> tuple[frozenset[int], ...]:
        """Neighbor sets indexed by vertex id (index 0 unused). Nothing in
        vbplab reads them; they stay while perfbench's `_ready` warms them."""
        return (frozenset(),) + tuple(frozenset(u + 1 for u in kernels.bits(m)) for m in self.masks)

    @property
    def m(self) -> int:
        return sum(mask.bit_count() for mask in self.masks) // 2

    @property
    def vertices(self) -> range:
        return range(1, self.n + 1)


def graph_from_edges(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """The graph with these edges: endpoints checked, self-loops rejected,
    repeated pairs merged."""
    if n < 0:
        raise InputError("vertex count must be nonnegative")
    masks = [0] * n
    for u, v in edges:
        if not (1 <= u <= n and 1 <= v <= n):
            raise InputError(f"edge ({u},{v}) has an endpoint outside 1..{n}")
        if u == v:
            raise InputError(f"self-loop ({u},{v}) not allowed")
        masks[u - 1] |= 1 << (v - 1)
        masks[v - 1] |= 1 << (u - 1)
    return Graph(n, tuple(masks))


def is_independent_set(graph: Graph, vertices: Iterable[int]) -> bool:
    """True iff no edge of the graph has both endpoints in the set."""
    masks = graph.masks
    chosen = touched = 0
    for v in vertices:
        if not 1 <= v <= graph.n:
            raise InputError(f"vertex {v} out of range 1..{graph.n}")
        chosen |= 1 << (v - 1)
        touched |= masks[v - 1]
    return not chosen & touched


def validate_coloring(graph: Graph, coloring: Coloring) -> bool:
    """True iff endpoints of every edge differ; InputError unless the
    coloring assigns exactly the graph's vertices.

    One pass in vertex order keeps each color's class as a vertex mask; v
    conflicts with its class iff the class meets masks[v-1]. A conflict
    does not end the pass, so a partial coloring always raises.
    """
    if len(coloring) > graph.n:
        stray = next(v for v in coloring if v not in graph.vertices)
        raise InputError(f"coloring assigns {stray!r}, not a vertex of the graph")
    classes: dict[ColorId, int] = {}
    conflict = 0
    for v, mask in enumerate(graph.masks):
        try:
            c = coloring[v + 1]
        except KeyError:
            raise InputError(f"coloring is partial: vertex {v + 1} unassigned") from None
        members = classes.get(c, 0)
        conflict |= members & mask
        classes[c] = members | 1 << v
    return not conflict


def is_connected(graph: Graph) -> bool:
    masks = graph.masks
    if len(masks) <= 1:
        return True
    seen = 1
    stack = [0]
    while stack:
        new = masks[stack.pop()] & ~seen
        seen |= new
        stack.extend(kernels.bits(new))
    return seen == (1 << len(masks)) - 1


# --- online arrival events -------------------------------------------------

def events_from_graph(graph: Graph) -> list[int]:
    """The arrival sequence: entry v-1 is vertex v's back-edge mask, the low
    v-1 bits of masks[v-1] (bit u-1 for each earlier neighbour u)."""
    return [mask & ((1 << v) - 1) for v, mask in enumerate(graph.masks)]


def checked_events(n: int, events: Iterable[int]) -> Iterator[int]:
    """Pass the back-edge masks through, raising InputError unless there are
    n of them and vertex v's mask has bits for earlier vertices only."""
    v = 0
    for v, mask in enumerate(events, 1):
        if v > n:
            raise InputError(f"arrivals must be vertices 1..{n}: got a vertex {v}")
        if not isinstance(mask, int) or mask >> (v - 1):   # nonzero for a negative mask too
            raise InputError(f"vertex {v} needs a mask of earlier vertices, got {mask!r}")
        yield mask
    if v != n:
        raise InputError(f"arrivals must be vertices 1..{n}: they end after {v}")


def greedy_online_coloring(graph: Graph) -> Coloring:
    """Online First-Fit coloring in arrival order: each vertex takes the
    smallest color unused by its earlier neighbors."""
    return dict(enumerate(_first_fit(graph.masks, range(graph.n)), 1))


def _first_fit(masks: tuple[int, ...], order: Iterable[int]) -> list[int]:
    """First-Fit coloring of 0-based vertices in `order`: each takes the
    lowest color whose class, kept as one mask, holds none of its neighbours."""
    colors = [0] * len(masks)
    classes: list[int] = []
    for v in order:
        c = 0
        while c < len(classes) and classes[c] & masks[v]:
            c += 1
        if c == len(classes):
            classes.append(0)
        classes[c] |= 1 << v
        colors[v] = c
    return colors


# --- exact chromatic number ------------------------------------------------

def _greedy_clique_size(masks: tuple[int, ...], order: Iterable[int]) -> int:
    clique = 0
    for v in order:
        if not clique & ~masks[v]:
            clique |= 1 << v
    return clique.bit_count()


def chromatic_number_exact(
    graph: Graph, limit: int = DEFAULT_EXACT_COLOR_LIMIT
) -> tuple[int, Coloring]:
    """chi(G) with a witness coloring, by branch and bound.

    Raises ResourceLimitError when n exceeds the exact-search limit.
    """
    if graph.n > limit:
        raise ResourceLimitError(
            f"exact coloring limited to n <= {limit}, got n = {graph.n}"
        )
    if graph.n == 0:
        return 0, {}
    masks = graph.masks
    # One degree-descending order for both greedy bounds and the search.
    order = kernels.degree_order(masks)
    chi, colors = kernels.chromatic_bnb(
        masks, order, _greedy_clique_size(masks, order), _first_fit(masks, order)
    )
    return chi, {v + 1: colors[v] for v in range(graph.n)}


# --- fractional chromatic number -------------------------------------------

@dataclass(frozen=True)
class FractionalColoring:
    """Nonnegative rational weights on independent sets covering each vertex."""

    weights: dict[frozenset[int], Fraction]

    @property
    def value(self) -> Fraction:
        return sum(self.weights.values(), Fraction(0))


def validate_fractional_coloring(graph: Graph, fc: FractionalColoring) -> bool:
    """Check independence of every weighted set and coverage >= 1, exactly."""
    cover = {v: Fraction(0) for v in graph.vertices}
    for s, w in fc.weights.items():
        if w < 0:
            return False
        if not is_independent_set(graph, s):
            return False
        for v in s:
            cover[v] += w
    return all(cover[v] >= 1 for v in graph.vertices)


def maximal_independent_sets(graph: Graph) -> list[frozenset[int]]:
    """All maximal independent sets (Bron-Kerbosch with pivoting, bitmasks)."""
    n = graph.n
    if n == 0:
        return []
    full = (1 << n) - 1
    # complement adjacency: candidates that can extend an independent set
    comp = [full & ~(nbrs | 1 << v) for v, nbrs in enumerate(graph.masks)]
    found: list[int] = []

    def bk(r: int, p: int, x: int) -> None:
        if p == 0 and x == 0:
            found.append(r)
            return
        pivot = max(kernels.bits(p | x), key=lambda w: (p & comp[w]).bit_count())
        cand = p & ~comp[pivot]
        for v in kernels.bits(cand):
            vb = 1 << v
            bk(r | vb, p & comp[v], x & comp[v])
            p &= ~vb
            x |= vb

    bk(0, full, 0)
    del bk
    sets = [frozenset(i + 1 for i in kernels.bits(mask)) for mask in found]
    sets.sort(key=lambda s: tuple(sorted(s)))
    return sets


def fractional_chromatic_exact(
    graph: Graph, limit: int = DEFAULT_EXACT_LP_LIMIT
) -> tuple[Fraction, FractionalColoring]:
    """chi_f(G) as an exact rational, with a witness fractional coloring.

    Solves the packing dual (max sum y_v with y(S) <= 1 per maximal
    independent set) by exact simplex and reads the covering weights off
    the optimal reduced costs. Both sides of the resulting strong-duality
    certificate are re-verified before returning, so the value is exact by
    construction, not by trust in the pivoting.
    """
    if graph.n > limit:
        raise ResourceLimitError(
            f"exact fractional coloring limited to n <= {limit}, got n = {graph.n}"
        )
    if graph.n == 0:
        return Fraction(0), FractionalColoring({})
    sets = maximal_independent_sets(graph)
    zero = Fraction(0)
    a = [[int(v in s) for v in graph.vertices] for s in sets]
    value, y, duals = ratlp.simplex_max([1] * graph.n, a, [1] * len(sets))

    weights = {s: duals[i] for i, s in enumerate(sets) if duals[i] != 0}
    fc = FractionalColoring(weights)
    packing_ok = (
        all(yi >= 0 for yi in y)
        and all(sum((y[v - 1] for v in s), zero) <= 1 for s in sets)
        and sum(y, zero) == value
    )
    if not (packing_ok and fc.value == value and validate_fractional_coloring(graph, fc)):
        raise RuntimeError("fractional chromatic LP certificate failed")
    return value, fc


# --- text format -----------------------------------------------------------
# line 1: "g <n> <m>", then m lines "e <u> <v>" (1-based, arrival order = id
# order); copies instances add a "t <value>" line. "#" starts a comment.

def parse_instance_text(text: str) -> tuple[Graph, int | None]:
    """Parse the graph text format; t is None unless a copies header is present."""
    n = m = None
    t = None
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        parts = raw.split("#", 1)[0].split()
        if not parts:
            continue
        # InputError is a ValueError: every message gets its line prefix here.
        try:
            if parts[0] == "g" and len(parts) == 3:
                if n is not None:
                    raise InputError("duplicate 'g' header")
                n, m = int(parts[1]), int(parts[2])
            elif parts[0] == "t" and len(parts) == 2:
                if t is not None:
                    raise InputError("duplicate 't' header")
                t = int(parts[1])
                if t < 1:
                    raise InputError("t must be >= 1")
            elif parts[0] == "e" and len(parts) == 3:
                edges.append((int(parts[1]), int(parts[2])))
            else:
                raise InputError(f"unrecognized line {raw!r}")
        except ValueError as exc:
            raise InputError(f"line {lineno}: {exc}") from exc
    if n is None:
        raise InputError("missing 'g <n> <m>' header")
    if m != len(edges):
        raise InputError(f"header declares {m} edges but {len(edges)} found")
    return graph_from_edges(n, edges), t


def format_graph_text(graph: Graph, t: int | None = None) -> str:
    lines = [f"g {graph.n} {graph.m}"]
    if t is not None:
        lines.append(f"t {t}")
    lines.extend(f"e {u} {v}" for u, v in sorted(graph.edges))
    return "\n".join(lines) + "\n"
