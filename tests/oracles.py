"""Independent brute-force oracles for freezing expected test values.

Deliberately naive and structured differently from the library's search
kernels (natural vertex/item order, no symmetry breaking, no bounds), so
agreement between the two is meaningful evidence rather than the same
code tested against itself.
"""

from fractions import Fraction
from itertools import combinations

from vbplab.graphs import Graph


def brute_chromatic(graph: Graph) -> int:
    """Smallest k admitting a proper coloring, by plain backtracking."""
    n = graph.n
    if n == 0:
        return 0
    adj = [sorted(u - 1 for u in graph.adjacency[v]) for v in graph.vertices]

    def colorable(k: int) -> bool:
        colors = [-1] * n

        def go(v: int) -> bool:
            if v == n:
                return True
            for c in range(k):
                if all(colors[u] != c for u in adj[v]):
                    colors[v] = c
                    if go(v + 1):
                        return True
                    colors[v] = -1
            return False

        return go(0)

    k = 1
    while not colorable(k):
        k += 1
    return k


def brute_opt_bins(items, d: int) -> int:
    """Fewest unit bins for exact rational items, by plain backtracking."""
    n = len(items)
    if n == 0:
        return 0
    one = Fraction(1)

    def packable(k: int) -> bool:
        loads = [[Fraction(0)] * d for _ in range(k)]

        def go(i: int) -> bool:
            if i == n:
                return True
            w = items[i]
            for b in range(k):
                if all(loads[b][j] + w[j] <= one for j in range(d)):
                    for j in range(d):
                        loads[b][j] += w[j]
                    if go(i + 1):
                        return True
                    for j in range(d):
                        loads[b][j] -= w[j]
            return False

        return go(0)

    k = 1
    while not packable(k):
        k += 1
    return k


def naive_first_fit(items, d: int) -> list[tuple[list[int], tuple[Fraction, ...]]]:
    """First-Fit on exact Fractions against unit bins: (members, load) per bin."""
    one = Fraction(1)
    bins: list[tuple[list[int], list[Fraction]]] = []
    for i, w in enumerate(items):
        for members, load in bins:
            if all(load[j] + w[j] <= one for j in range(d)):
                break
        else:
            members, load = [], [Fraction(0)] * d
            bins.append((members, load))
        members.append(i)
        for j in range(d):
            load[j] += w[j]
    return [(members, tuple(load)) for members, load in bins]


def fraction_fits(items, d: int) -> bool:
    """True iff the exact Fraction items share one unit bin, summed coordinate by coordinate."""
    return all(sum((w[j] for w in items), Fraction(0)) <= 1 for j in range(d))


def brute_is_independent(graph: Graph, subset) -> bool:
    s = set(subset)
    return not any(u in s and v in s for u, v in graph.edges)


def naive_greedy_coloring(graph: Graph) -> dict[int, int]:
    """First-Fit in arrival order on neighbour sets: each vertex takes the
    smallest color no earlier neighbour has."""
    out: dict[int, int] = {}
    for v in graph.vertices:
        used = {out[u] for u in graph.adjacency[v] if u < v}
        c = 0
        while c in used:
            c += 1
        out[v] = c
    return out


def brute_maximal_independent_sets(graph: Graph) -> set[frozenset[int]]:
    """All maximal independent sets by filtering the full subset lattice."""
    verts = list(graph.vertices)
    independent = [
        frozenset(s)
        for r in range(len(verts) + 1)
        for s in combinations(verts, r)
        if brute_is_independent(graph, s)
    ]
    pool = set(independent)
    return {
        s for s in pool
        if not any(s < other for other in pool)
    }


def odd_cycle_fractional_chi(n: int) -> Fraction:
    """chi_f of C_n for odd n >= 3: n / floor(n/2)."""
    assert n >= 3 and n % 2 == 1
    return Fraction(n, n // 2)
