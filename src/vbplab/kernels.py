"""Exact search kernels.

The two branch-and-bound searches behind the exact oracles: minimum
coloring (graphs.chromatic_number_exact) and minimum-bin vector packing
(vbp.opt_exact). Both run on plain Python ints, which bound neither the
number of vertices nor a VBP instance's capacity `scale`. The coloring
kernel takes a graph as the neighbour bitmasks of `graphs.Graph.masks`,
keeps each color class as the mask of its neighbourhood, and restores a
node's state by one slice assignment per branch.
The packing kernel takes its rows and bin loads in the one packed-int form
that `vbp.Lanes` defines, so its fit test is one add and one AND.

Both kernels take a feasible incumbent that seeds the upper bound and a
proven lower bound used to stop the search as soon as it is matched.

Both branch by saturation (DSATUR; Brélaz, CACM 1979): each node branches
on the most constrained vertex or item left, and a vertex or item may open
at most one new color or bin, which removes label-permutation symmetry.
Each kernel also breaks one input symmetry. Members of a class of
interchangeable vertices or items are placed in index order, each at or
above its predecessor's color or bin. This loses no optimum: permuting the
class's unplaced members so that their colors or bins rise with the index
maps any completion of a node to one the rule allows, and relabeling the
unused colors or bins, which the open-one-new rule needs, keeps that order.
Class members always tie under the branching rule, so the lowest-index tie
break already reaches them in index order.

Each search is a recursive closure, and so a reference cycle: the kernels
here and graphs.maximal_independent_sets `del` it once it returns, which
frees its lists then and not at a later gc pass.
"""

from __future__ import annotations

from typing import Iterator, Sequence

# The one kernel implementation's name. Only perfbench/run.py reads it, for
# its env line; it goes once the benchmark harness stops reading it.
BACKEND = "pure-python"


def bits(mask: int) -> Iterator[int]:
    """Positions of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def degree_order(masks: Sequence[int]) -> list[int]:
    """The vertices by degree, highest first, ties by lowest index."""
    return sorted(range(len(masks)), key=lambda v: (-masks[v].bit_count(), v))


def chromatic_bnb(
    masks: Sequence[int], order: Sequence[int], lb: int, incumbent: list[int]
) -> tuple[int, list[int]]:
    """Minimum proper coloring of a graph by branch and bound.

    masks are 0-based neighbour bitmasks (bit u of masks[v] set iff u ~ v,
    as `graphs.Graph.masks` holds them); order lists every vertex once
    (callers pass `degree_order(masks)`); incumbent a feasible coloring
    (colors 0..k-1). Each node branches on the uncolored vertex with the
    most distinct neighbour colors, ties broken by the first in order, so
    by degree, then by lowest index.

    The search keeps one mask per color: near[c] is the OR of masks over
    the vertices colored c, so bit u of near[c] says that c is forbidden
    for u, and sat[u] counts those colors. Coloring v with c raises sat
    only on the bits of masks[v] & ~near[c], the neighbours c newly
    saturates. A node copies sat once and restores it by slice assignment
    after each branch, with no undo loop.

    True twins (equal closed neighbourhoods N[v], the int masks[v] | 1 << v,
    as the copies of one vertex in a blow-up have) are interchangeable and
    pairwise adjacent, so each twin takes a color above its previous
    twin's. False twins (equal open neighbourhoods) get no rule: they may
    share a color.
    Returns (chi, coloring).
    """
    n = len(masks)
    if n == 0:
        return 0, []
    best = max(incumbent) + 1
    best_colors = list(incumbent)
    if best == lb:
        return best, best_colors

    prev_twin = [-1] * n
    last: dict[int, int] = {}
    for v in range(n):
        closed = masks[v] | 1 << v
        prev_twin[v] = last.get(closed, -1)
        last[closed] = v

    colors = [-1] * n
    sat = [0] * n        # sat[u]: colors c with bit u of near[c]
    near = [0] * best    # near[c]: OR of masks over the vertices colored c

    def dfs(depth: int, used: int) -> None:
        nonlocal best, best_colors
        if used >= best or best == lb:
            return
        if depth == n:
            best = used
            best_colors = colors.copy()
            return
        v = top = -1
        for u in order:
            if colors[u] < 0 and sat[u] > top:
                v, top = u, sat[u]
        p = prev_twin[v]
        c = colors[p] + 1 if p >= 0 else 0
        mask = masks[v]
        vbit = 1 << v
        saved_sat = sat.copy()
        while c <= used and c <= best - 2:
            was = near[c]
            if not was & vbit:
                near[c] = was | mask
                colors[v] = c
                new = mask & ~was
                while new:
                    low = new & -new
                    u = low.bit_length() - 1
                    sat[u] += 1
                    new ^= low
                dfs(depth + 1, used if c < used else used + 1)
                near[c] = was
                sat[:] = saved_sat
                colors[v] = -1
                if best == lb:
                    return
            c += 1

    dfs(0, 0)
    del dfs
    return best, best_colors


def packing_bnb(
    items: list[int],
    guard: int,
    empty: int,
    lb: int,
    incumbent: list[int],
) -> tuple[int, list[int]]:
    """Minimum-bin vector packing by branch and bound.

    items are a VbpInstance's rows in its `vbp.Lanes` form, with that
    form's guard mask and empty load: a bin's load is `empty` plus its
    items, and an item fits iff load + item has no guard bit set. Each
    node branches on the unplaced item that fits in the fewest open bins,
    ties broken by lowest position; an item that fits in no open bin ends
    the scan. Identical items are interchangeable, so each run of equal
    adjacent rows is placed in index order into non-decreasing bins. The
    rule sees only adjacent rows: callers group equal rows (opt_exact's
    sort does) for it to cover them all. Returns (bin_count, assignment).
    """
    n = len(items)
    if n == 0:
        return 0, []
    best = max(incumbent) + 1
    best_assign = list(incumbent)
    if best == lb:
        return best, best_assign

    prev_same = [i - 1 if i > 0 and items[i] == items[i - 1] else -1 for i in range(n)]

    assign = [-1] * n
    loads = [empty] * n

    def dfs(placed: int, used: int) -> None:
        nonlocal best, best_assign
        if used >= best or best == lb:
            return
        if placed == n:
            best = used
            best_assign = assign.copy()
            return
        i = -1
        fewest = used + 1
        for k in range(n):
            if assign[k] >= 0:
                continue
            w = items[k]
            fits = 0
            for b in range(used):
                if not (loads[b] + w) & guard:
                    fits += 1
                    if fits >= fewest:
                        break
            if fits < fewest:
                i, fewest = k, fits
                if fits == 0:
                    break
        w = items[i]
        p = prev_same[i]
        for b in range(assign[p] if p >= 0 else 0, used):
            if (loads[b] + w) & guard:
                continue
            loads[b] += w
            assign[i] = b
            dfs(placed + 1, used)
            loads[b] -= w
            assign[i] = -1
            if best == lb:
                return
        if used + 1 < best:
            loads[used] += w
            assign[i] = used
            dfs(placed + 1, used + 1)
            loads[used] -= w
            assign[i] = -1

    dfs(0, 0)
    del dfs
    return best, best_assign
