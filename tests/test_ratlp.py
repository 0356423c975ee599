"""Exact simplex: known optima, certificate checks on random LPs, and
identical results to the Fraction-tableau oracle."""

import random
from fractions import Fraction

import numpy as np
import pytest

from oracles import fraction_simplex_max
from vbplab.generators import all_graphs
from vbplab.graphs import maximal_independent_sets
from vbplab.ratlp import SimplexError, simplex_max

F = Fraction


def test_box_lp():
    value, y, duals = simplex_max(
        [F(1), F(1)], [[F(1), F(0)], [F(0), F(1)]], [F(1), F(1)]
    )
    assert value == 2
    assert y == [F(1), F(1)]
    assert duals == [F(1), F(1)]


def test_two_constraint_lp_exact_rational():
    # max 3x + 2y  s.t.  x + y <= 4,  x + 3y <= 6
    value, y, duals = simplex_max(
        [F(3), F(2)],
        [[F(1), F(1)], [F(1), F(3)]],
        [F(4), F(6)],
    )
    assert value == 12
    assert y == [F(4), F(0)]
    # strong duality: b . duals equals the primal value exactly
    assert 4 * duals[0] + 6 * duals[1] == 12


def test_fractional_optimum_stays_rational():
    # max x + y  s.t.  2x + y <= 2,  x + 2y <= 2  -> corner (2/3, 2/3)
    for num in (F, int):  # int inputs still give Fractions
        value, y, duals = simplex_max(
            [num(1), num(1)],
            [[num(2), num(1)], [num(1), num(2)]],
            [num(2), num(2)],
        )
        assert (value, y, duals) == (F(4, 3), [F(2, 3), F(2, 3)], [F(1, 3), F(1, 3)])
        assert all(type(x) is Fraction for x in (value, *y, *duals))


def test_degenerate_zero_rhs():
    value, y, _ = simplex_max([F(1)], [[F(1)], [F(1)]], [F(0), F(0)])
    assert value == 0
    assert y == [F(0)]


def test_negative_rhs_rejected():
    for solve in (simplex_max, fraction_simplex_max):
        with pytest.raises(SimplexError):
            solve([F(1)], [[F(1)]], [F(-1)])
        with pytest.raises(SimplexError):
            solve([F(1), F(2)], [[F(1), F(1, 2)], [F(-1), F(1)]], [F(3), F(-1, 2)])


def test_unbounded_detected():
    for solve in (simplex_max, fraction_simplex_max):
        with pytest.raises(SimplexError):
            solve([F(1), F(1)], [[F(1), F(-1)]], [F(1)])


def test_random_lps_carry_optimality_certificates():
    # primal feasible + dual feasible + equal objectives proves optimality,
    # so no external solver is needed as an oracle
    rng = np.random.default_rng(12)
    for _ in range(40):
        m = int(rng.integers(1, 5))
        nv = int(rng.integers(1, 5))
        c = [F(int(rng.integers(0, 4))) for _ in range(nv)]
        a = [
            [F(int(rng.integers(0, 4)), 3) for _ in range(nv)]
            for _ in range(m)
        ]
        b = [F(int(rng.integers(0, 4))) for _ in range(m)]
        # cap every variable so the program is bounded
        a.append([F(1)] * nv)
        b.append(F(5))
        value, y, duals = simplex_max(c, a, b)

        assert all(yi >= 0 for yi in y)
        for row, bi in zip(a, b):
            assert sum(r * yi for r, yi in zip(row, y)) <= bi
        assert all(xi >= 0 for xi in duals)
        for j in range(nv):
            assert sum(a[i][j] * duals[i] for i in range(len(a))) >= c[j]
        assert value == sum(ci * yi for ci, yi in zip(c, y))
        assert value == sum(bi * xi for bi, xi in zip(b, duals))


def _outcome(solve, c, a, b):
    """(value, y, duals) with every entry's type, or the SimplexError raised."""
    try:
        value, y, duals = solve(c, a, b)
    except SimplexError:
        return SimplexError
    entries = [value, *y, *duals]
    return entries, [type(x) for x in entries]


def _random_lp(rng, zero_rhs: bool):
    m, nv = rng.randint(1, 5), rng.randint(1, 5)
    a = [[F(rng.randint(-3, 4), rng.randint(1, 4)) for _ in range(nv)] for _ in range(m)]
    c = [F(rng.randint(-2, 4), rng.randint(1, 3)) for _ in range(nv)]
    if zero_rhs:
        b = [F(0)] * m
    else:
        b = [F(rng.randint(0, 5), rng.randint(1, 3)) for _ in range(m)]
    if rng.random() < 0.5:  # cap every variable: bounded
        a.append([F(1, rng.randint(1, 3))] * nv)
        b.append(F(rng.randint(0, 3)))
    return c, a, b


@pytest.mark.parametrize("zero_rhs, count", [(False, 1200), (True, 400)])
def test_random_rational_lps_match_fraction_oracle(zero_rhs, count):
    rng = random.Random(2027 + zero_rhs)
    unbounded = 0
    for _ in range(count):
        c, a, b = _random_lp(rng, zero_rhs)
        want = _outcome(fraction_simplex_max, c, a, b)
        assert _outcome(simplex_max, c, a, b) == want
        unbounded += want is SimplexError
    # both outcomes are exercised, not just one of them
    assert count // 10 < unbounded < count - count // 10


def test_independent_set_lps_of_small_graphs_match_fraction_oracle():
    graphs = 0
    for n in range(1, 6):
        for graph in all_graphs(n):
            sets = maximal_independent_sets(graph)
            a = [[int(v in s) for v in graph.vertices] for s in sets]
            want = _outcome(
                fraction_simplex_max, [F(1)] * n,
                [[F(x) for x in row] for row in a], [F(1)] * len(sets),
            )
            assert _outcome(simplex_max, [1] * n, a, [1] * len(sets)) == want
            graphs += 1
    assert graphs == 1 + 2 + 8 + 64 + 1024
