"""Exact rational linear programming, just big enough for covering LPs.

Solves  max c.y  subject to  A y <= b,  y >= 0  by dense tableau simplex
with Bland's anti-cycling rule. All arithmetic is exact, so optima like
5/2 come out as the rational 5/2 and not a float.

The tableau is fraction-free (Edmonds, "Systems of distinct
representatives and linear algebra", 1967; Bareiss, Math. Comp. 1968):
int entries over one common denominator, which is the previous pivot.
Each rational row (A_i, b_i) and c is first scaled to ints by the lcm of
its denominators; the slack columns stay unit columns, which substitutes
L_i * s_i for slack s_i. Scaling keeps every sign and ratio, so Bland's
rule pivots exactly as it would over Fractions. Fractions are built only
once, from the final tableau.

The starting basis is the slack basis, which requires b >= 0; that holds
for every use in this package (right-hand sides are all 1).
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


class SimplexError(RuntimeError):
    """Internal solver failure (unbounded or broken invariant)."""


def _scaled(values) -> tuple[list[int], int]:
    """(ints, L): the rationals (ints or Fractions) times L, the lcm of their denominators."""
    scale = lcm(*[x.denominator for x in values])
    return [x.numerator * (scale // x.denominator) for x in values], scale


def simplex_max(c: list[Fraction], a: list[list[Fraction]], b: list[Fraction]):
    """Maximize c.y over {A y <= b, y >= 0}; b must be nonnegative.

    Entries are ints or Fractions. Returns (value, y, duals) as Fractions,
    where duals are the optimal multipliers of the <= rows, i.e. the
    optimal solution of the dual min b.x program.
    """
    m = len(a)
    nv = len(c)
    if any(bi < 0 for bi in b):
        raise SimplexError("slack basis needs b >= 0")

    # Tableau columns: nv originals, m slacks, rhs; the true entries are
    # these ints divided by den > 0. Row m is the z-row holding reduced
    # costs (z_j - c_j) times L_c; optimal when all >= 0.
    rows = []
    row_scales = []
    for i in range(m):
        row, scale = _scaled([*a[i], b[i]])
        row[nv:nv] = [0] * m
        row[nv + i] = 1
        rows.append(row)
        row_scales.append(scale)
    zrow, c_scale = _scaled(c)
    zrow = [-x for x in zrow] + [0] * (m + 1)
    basis = [nv + i for i in range(m)]
    den = 1

    while True:
        enter = -1
        for j in range(nv + m):  # Bland: lowest eligible index
            if zrow[j] < 0:
                enter = j
                break
        if enter < 0:
            break
        # ratio rhs_i / a_i, compared by cross-multiplying (all a_i > 0)
        leave = -1
        for i in range(m):
            aij = rows[i][enter]
            if aij > 0:
                if leave < 0:
                    leave = i
                    continue
                lhs = rows[i][-1] * rows[leave][enter]
                rhs = rows[leave][-1] * aij
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave = i
        if leave < 0:
            raise SimplexError("unbounded LP")
        prow = rows[leave]
        piv = prow[enter]
        for i in range(m):
            if i != leave:
                rows[i] = _eliminate(rows[i], prow, piv, enter, den)
        zrow = _eliminate(zrow, prow, piv, enter, den)
        den = piv
        basis[leave] = enter

    y = [Fraction(0)] * nv
    for i, bv in enumerate(basis):
        if bv < nv:
            y[bv] = Fraction(rows[i][-1], den)
    zden = den * c_scale
    duals = [Fraction(zrow[nv + i] * row_scales[i], zden) for i in range(m)]
    return Fraction(zrow[-1], zden), y, duals


def _eliminate(row: list[int], prow: list[int], piv: int, enter: int, den: int) -> list[int]:
    """One fraction-free pivot step on a non-pivot row; the division is exact."""
    f = row[enter]
    return [(x * piv - f * p) // den for x, p in zip(row, prow)]
