"""Independent brute-force oracles for freezing expected test values.

Deliberately naive and structured differently from the library's search
kernels (natural vertex/item order, no bounds; the coloring backtrack breaks
color-label symmetry only, by opening at most one new color), so agreement
between the two is meaningful evidence rather than the same code tested
against itself. Graph oracles read a graph's `edges` view, never its
neighbour masks.
"""

from fractions import Fraction
from itertools import combinations, compress

from vbplab.copies import CopiesInstance
from vbplab.graphs import Graph, is_independent_set
from vbplab.pool import special_color
from vbplab.ratlp import SimplexError
from vbplab.rng import make_rng
from vbplab.vbp import VbpInstance, fits_together
from vbplab.verify import CheckResult


def neighbours(graph: Graph) -> list[set[int]]:
    """Neighbour sets from the edge list, indexed by vertex id (index 0 unused)."""
    nbrs: list[set[int]] = [set() for _ in range(graph.n + 1)]
    for u, v in graph.edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    return nbrs


def bfs_connected(graph: Graph) -> bool:
    """True iff a breadth-first search from vertex 1 over the edges reaches every vertex."""
    if graph.n <= 1:
        return True
    nbrs = neighbours(graph)
    seen = {1}
    frontier = [1]
    while frontier:
        frontier = [u for v in frontier for u in nbrs[v] if u not in seen]
        seen.update(frontier)
    return len(seen) == graph.n


def edge_list_blow_up(inst: CopiesInstance) -> frozenset[tuple[int, int]]:
    """The blow-up's edges, pair by pair: copy (v, k) is vertex (v-1)*t + k,
    with a K_t on each vertex's copies and a K_{t,t} across each edge."""
    t = inst.t

    def copy_id(v: int, k: int) -> int:
        return (v - 1) * t + k

    edges = set()
    for v in inst.base.vertices:
        for i, j in combinations(range(1, t + 1), 2):
            edges.add((copy_id(v, i), copy_id(v, j)))
    for u, v in inst.base.edges:
        for i in range(1, t + 1):
            for j in range(1, t + 1):
                edges.add((copy_id(u, i), copy_id(v, j)))
    return frozenset(edges)


def fraction_items(inst: VbpInstance) -> tuple[tuple[Fraction, ...], ...]:
    """The instance's rows as Fractions of a unit bin, entry by entry."""
    return tuple(tuple(Fraction(x, inst.scale) for x in row) for row in inst.rows)


def shift_pack(row, capacity: int) -> tuple[int, int]:
    """(field width, packed int) of an int row over `capacity`, by shift and
    sum: the narrowest of 8, 16, 32 and 64 bits that holds
    capacity.bit_length() + 1, or exactly that many past 64, with entry j
    in bits [j*width, (j+1)*width)."""
    bits = capacity.bit_length() + 1
    width = min([w for w in (8, 16, 32, 64) if w >= bits], default=bits)
    return width, sum(x << (j * width) for j, x in enumerate(row))


def brute_chromatic(graph: Graph) -> int:
    """Smallest k admitting a proper coloring, by backtracking in vertex
    order. A vertex may take colors 0..used, where used colors are 0..used-1,
    so it opens at most one new color: only color-label symmetry is broken."""
    n = graph.n
    if n == 0:
        return 0
    nbrs = neighbours(graph)
    adj = [sorted(u - 1 for u in nbrs[v]) for v in graph.vertices]

    def colorable(k: int) -> bool:
        colors = [-1] * n

        def go(v: int, used: int) -> bool:
            if v == n:
                return True
            for c in range(min(used + 1, k)):
                if all(colors[u] != c for u in adj[v]):
                    colors[v] = c
                    if go(v + 1, max(used, c + 1)):
                        return True
                    colors[v] = -1
            return False

        return go(0, 0)

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


def naive_first_fit(items, d: int) -> list[list[int]]:
    """First-Fit on exact Fractions against unit bins: the members of each bin."""
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
    return [members for members, _ in bins]


def fraction_fits(items, d: int) -> bool:
    """True iff the exact Fraction items share one unit bin, summed coordinate by coordinate."""
    return all(sum((w[j] for w in items), Fraction(0)) <= 1 for j in range(d))


def naive_pool_phase(copy_colors, first_use, p, rng):
    """B's pool phase on Python sets: one draw per color of first_use, in
    that order, then per step the smallest pooled copy color, or the step's
    special color when there is none. Returns the pool's size and the picks."""
    pool = set(compress(first_use, (rng.random(len(first_use)) < p).tolist()))
    picks = []
    for step, colors in enumerate(copy_colors, 1):
        candidates = pool.intersection(colors)
        picks.append(min(candidates) if candidates else special_color(step))
    return len(pool), picks


def naive_greedy_copies(graph: Graph, t: int) -> list[list[int]]:
    """First-Fit on each vertex's t copies in arrival order: per vertex, the
    t smallest colors that no copy of an earlier neighbour took."""
    nbrs = neighbours(graph)
    out: list[list[int]] = []
    for v in graph.vertices:
        used = {c for u in nbrs[v] if u < v for c in out[u - 1]}
        colors: list[int] = []
        c = 0
        while len(colors) < t:
            if c not in used:
                colors.append(c)
            c += 1
        out.append(colors)
    return out


def reference_run(graph: Graph, copy_colors, p, seed):
    """A single run of algorithm B on sets, from A's copy colors per step:
    make_rng(seed).random(k) < p pools A's k colors in first-use order, and
    each vertex takes its lowest pooled copy color, or its step's special
    color. Returns B's coloring and its stats as a tuple: colors_A,
    colors_B, fails, pool size, p and whether the coloring is proper."""
    first_use = list(dict.fromkeys(c for colors in copy_colors for c in sorted(colors)))
    pool_size, picks = naive_pool_phase(copy_colors, first_use, p, make_rng(seed))
    coloring = dict(enumerate(picks, 1))
    fails = sum(isinstance(c, str) for c in picks)
    proper = all(coloring[u] != coloring[v] for u, v in graph.edges)
    return coloring, (len(first_use), len(set(picks)), fails, pool_size, p, proper)


def brute_is_independent(graph: Graph, subset) -> bool:
    s = set(subset)
    return not any(u in s and v in s for u, v in graph.edges)


def naive_subset_independence(graphs, reduction) -> CheckResult:
    """The subset-independence check subset by subset: each subset built
    afresh by `combinations` and tested with `is_independent_set`."""
    failures = []
    count = 0
    for g in graphs:
        count += 1
        inst = reduction(g)
        verts = list(g.vertices)
        for r in range(len(verts) + 1):
            for subset in combinations(verts, r):
                fits = fits_together(inst, [v - 1 for v in subset])
                indep = is_independent_set(g, subset)
                if fits != indep:
                    failures.append(
                        f"subset {subset} fits={fits} independent={indep} "
                        f"on n={g.n} edges={sorted(g.edges)}"
                    )
    return CheckResult("subset-independence", count, tuple(failures))


def naive_greedy_coloring(graph: Graph) -> dict[int, int]:
    """First-Fit in arrival order on neighbour sets: each vertex takes the
    smallest color no earlier neighbour has."""
    nbrs = neighbours(graph)
    out: dict[int, int] = {}
    for v in graph.vertices:
        used = {out[u] for u in nbrs[v] if u < v}
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


# The Fraction-tableau simplex that vbplab.ratlp replaced by its fraction-free
# int tableau: every pivot divides whole rows in Fractions. Same rules (slack
# basis, Bland's lowest index, ratio ties to the lowest basic index).
ZERO = Fraction(0)
ONE = Fraction(1)


def fraction_simplex_max(c: list[Fraction], a: list[list[Fraction]], b: list[Fraction]):
    """Maximize c.y over {A y <= b, y >= 0}; b must be nonnegative.

    Returns (value, y, duals) where duals are the optimal multipliers of
    the <= rows, i.e. the optimal solution of the dual min b.x program.
    """
    m = len(a)
    nv = len(c)
    if any(bi < 0 for bi in b):
        raise SimplexError("slack basis needs b >= 0")

    # Tableau columns: nv originals, m slacks, rhs. Row m is the z-row
    # holding reduced costs (z_j - c_j); optimal when all >= 0.
    width = nv + m + 1
    rows = []
    for i in range(m):
        row = list(a[i]) + [ZERO] * m + [b[i]]
        row[nv + i] = ONE
        rows.append(row)
    zrow = [-ci for ci in c] + [ZERO] * m + [ZERO]
    basis = [nv + i for i in range(m)]

    while True:
        enter = -1
        for j in range(nv + m):  # Bland: lowest eligible index
            if zrow[j] < 0:
                enter = j
                break
        if enter < 0:
            break
        leave = -1
        best_ratio = None
        for i in range(m):
            aij = rows[i][enter]
            if aij > 0:
                ratio = rows[i][-1] / aij
                if (best_ratio is None or ratio < best_ratio
                        or (ratio == best_ratio and basis[i] < basis[leave])):
                    best_ratio = ratio
                    leave = i
        if leave < 0:
            raise SimplexError("unbounded LP")
        piv = rows[leave][enter]
        rows[leave] = [x / piv for x in rows[leave]]
        for i in range(m):
            if i != leave and rows[i][enter] != 0:
                f = rows[i][enter]
                rows[i] = [x - f * p for x, p in zip(rows[i], rows[leave])]
        if zrow[enter] != 0:
            f = zrow[enter]
            zrow = [x - f * p for x, p in zip(zrow, rows[leave])]
        basis[leave] = enter

    y = [ZERO] * nv
    for i, bv in enumerate(basis):
        if bv < nv:
            y[bv] = rows[i][-1]
    duals = [zrow[nv + i] for i in range(m)]
    return zrow[-1], y, duals
