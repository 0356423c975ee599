"""Exact search kernels.

The two branch-and-bound searches behind the exact oracles: minimum
coloring (graphs.chromatic_number_exact) and minimum-bin vector packing
(vbp.opt_exact). Both run on plain Python ints, which bound neither the
number of vertices nor a VBP instance's capacity `scale`.

Both kernels take a feasible incumbent that seeds the upper bound and a
proven lower bound used to stop the search as soon as it is matched.
"""

from __future__ import annotations

# The one kernel implementation; `vbplab bench` reports carry this name.
BACKEND = "pure-python"


def chromatic_bnb(adj: list[list[int]], lb: int, incumbent: list[int]) -> tuple[int, list[int]]:
    """Minimum proper coloring of a graph by branch and bound.

    adj is a 0-based adjacency list; incumbent a feasible coloring (colors
    0..k-1). Vertices are branched in degree-descending order (ties by
    index) and a vertex may introduce at most one new color, which removes
    color-permutation symmetry. Returns (chi, coloring).
    """
    n = len(adj)
    if n == 0:
        return 0, []
    best = max(incumbent) + 1
    best_colors = list(incumbent)
    if best == lb:
        return best, best_colors

    order = sorted(range(n), key=lambda v: (-len(adj[v]), v))
    colors = [-1] * n

    def dfs(idx: int, used: int) -> None:
        nonlocal best, best_colors
        if used >= best or best == lb:
            return
        if idx == n:
            best = used
            best_colors = colors.copy()
            return
        v = order[idx]
        forbid = 0
        for u in adj[v]:
            cu = colors[u]
            if cu >= 0:
                forbid |= 1 << cu
        c = 0
        while c <= used and c <= best - 2:
            if not (forbid >> c) & 1:
                colors[v] = c
                dfs(idx + 1, used if c < used else used + 1)
                colors[v] = -1
                if best == lb:
                    return
            c += 1

    dfs(0, 0)
    return best, best_colors


def packing_bnb(
    items: list[tuple[int, ...]],
    capacity: int,
    lb: int,
    incumbent: list[int],
) -> tuple[int, list[int]]:
    """Minimum-bin vector packing by branch and bound.

    items are a VbpInstance's int rows and capacity its `scale`, so
    feasibility is exact integer arithmetic. Pruning: a bin may only be opened as bin k+1 when
    bins 1..k are in use, and an item identical to its predecessor never
    goes to a lower-indexed bin than that predecessor. Returns
    (bin_count, assignment).
    """
    n = len(items)
    if n == 0:
        return 0, []
    d = len(items[0])
    best = max(incumbent) + 1
    best_assign = list(incumbent)
    if best == lb:
        return best, best_assign

    same_prev = [i > 0 and items[i] == items[i - 1] for i in range(n)]
    assign = [-1] * n
    loads = [[0] * d for _ in range(n)]

    def dfs(idx: int, used: int) -> None:
        nonlocal best, best_assign
        if used >= best or best == lb:
            return
        if idx == n:
            best = used
            best_assign = assign.copy()
            return
        w = items[idx]
        start = assign[idx - 1] if same_prev[idx] else 0
        for b in range(start, used):
            load = loads[b]
            ok = True
            for j in range(d):
                if load[j] + w[j] > capacity:
                    ok = False
                    break
            if not ok:
                continue
            for j in range(d):
                load[j] += w[j]
            assign[idx] = b
            dfs(idx + 1, used)
            for j in range(d):
                load[j] -= w[j]
            if best == lb:
                assign[idx] = -1
                return
        if used + 1 < best:
            load = loads[used]
            for j in range(d):
                load[j] += w[j]
            assign[idx] = used
            dfs(idx + 1, used + 1)
            for j in range(d):
                load[j] -= w[j]
        assign[idx] = -1

    dfs(0, 0)
    return best, best_assign
