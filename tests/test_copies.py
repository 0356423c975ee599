"""Blow-up ("copies") colorings: construction, validation, extraction, sandwich."""

from fractions import Fraction

import pytest

from oracles import brute_chromatic
from vbplab.copies import (
    CopiesInstance,
    blow_up_explicit,
    check_sandwich,
    chromatic_number_copies_exact,
    color_class_vertices,
    copy_vertex_id,
    fractional_coloring_from_copies,
    greedy_online_ccp,
    validate_copies_coloring,
)
from vbplab.errors import InputError, ResourceLimitError
from vbplab.generators import all_graphs, gen_complete, gen_cycle, gen_empty, gen_gnp, gen_path
from vbplab.graphs import (
    chromatic_number_exact,
    format_graph_text,
    graph_from_edges,
    is_independent_set,
    parse_instance_text,
    validate_fractional_coloring,
)
from vbplab.reductions import reduce_copies
from vbplab.vbp import opt_exact, validate_packing

K1 = graph_from_edges(1, [])
K2 = gen_complete(2)
C5 = gen_cycle(5)


def test_t_must_be_positive():
    with pytest.raises(InputError):
        CopiesInstance(K2, 0)


def test_copy_vertex_id_layout():
    assert copy_vertex_id(1, 1, 3) == 1
    assert copy_vertex_id(1, 3, 3) == 3
    assert copy_vertex_id(2, 1, 3) == 4


# ------------------------------------------------------------------- blow-up


def test_blowup_single_vertex_is_clique():
    g = blow_up_explicit(CopiesInstance(K1, 4))
    assert g.n == 4 and g.m == 6  # K4


def test_blowup_k2_t3_is_k6():
    g = blow_up_explicit(CopiesInstance(K2, 3))
    assert g.n == 6 and g.m == 15  # K6


def test_blowup_p3_t2_edge_count():
    # 3 vertices * C(2,2) clique edges + 2 edges * 2*2 bipartite edges = 3 + 8
    g = blow_up_explicit(CopiesInstance(gen_path(3), 2))
    assert g.n == 6 and g.m == 11


def test_blowup_edge_count_formula():
    # n * C(t,2) + m * t^2 in general
    for i in range(10):
        base = gen_gnp(4, 0.5, 7000 + i)
        for t in (1, 2, 3):
            g = blow_up_explicit(CopiesInstance(base, t))
            assert g.m == base.n * t * (t - 1) // 2 + base.m * t * t


# ---------------------------------------------------------------- validation


def test_validate_copies_examples():
    inst = CopiesInstance(K2, 2)
    ok = {(1, 1): 1, (1, 2): 2, (2, 1): 3, (2, 2): 4}
    assert validate_copies_coloring(inst, ok)
    shared_across_edge = {(1, 1): 1, (1, 2): 2, (2, 1): 1, (2, 2): 4}
    assert not validate_copies_coloring(inst, shared_across_edge)
    empty2 = CopiesInstance(gen_empty(2), 2)
    reuse_ok = {(1, 1): 1, (1, 2): 2, (2, 1): 1, (2, 2): 2}
    assert validate_copies_coloring(empty2, reuse_ok)


def test_validate_copies_same_vertex_distinct():
    inst = CopiesInstance(K1, 2)
    assert not validate_copies_coloring(inst, {(1, 1): 9, (1, 2): 9})


def test_validate_copies_rejects_partial():
    with pytest.raises(InputError):
        validate_copies_coloring(CopiesInstance(K2, 2), {(1, 1): 1})


def test_validate_copies_rejects_copies_outside_the_instance():
    inst = CopiesInstance(K2, 1)
    # copy index 5 > t and vertex 9 > n; the two real copies are fine
    stray = {(1, 1): 0, (2, 1): 1, (1, 5): 7, (9, 1): 8}
    with pytest.raises(InputError, match=r"\(1, 5\)"):
        validate_copies_coloring(inst, stray)
    with pytest.raises(InputError):
        fractional_coloring_from_copies(inst, stray)


# --------------------------------------------------------------- extraction


def test_color_class_examples():
    inst = CopiesInstance(K2, 1)
    f = {(1, 1): 1, (2, 1): 2}
    assert color_class_vertices(inst, f, 1) == frozenset({1})
    assert color_class_vertices(inst, f, 99) == frozenset()
    empty3 = CopiesInstance(gen_empty(3), 1)
    all_one = {(v, 1): 1 for v in range(1, 4)}
    assert color_class_vertices(empty3, all_one, 1) == frozenset({1, 2, 3})


def test_color_classes_always_independent():
    for i in range(15):
        base = gen_gnp(5, 0.5, 8000 + i)
        inst = CopiesInstance(base, 2)
        f = greedy_online_ccp(inst)
        for r in set(f.values()):
            assert is_independent_set(base, color_class_vertices(inst, f, r))


def test_fractional_extraction_k2_t1():
    inst = CopiesInstance(K2, 1)
    frac = fractional_coloring_from_copies(inst, {(1, 1): 1, (2, 1): 2})
    assert frac.value == 2
    assert frac.weights == {frozenset({1}): 1, frozenset({2}): 1}


def test_fractional_extraction_single_vertex_t3():
    inst = CopiesInstance(K1, 3)
    frac = fractional_coloring_from_copies(inst, {(1, 1): 1, (1, 2): 2, (1, 3): 3})
    assert frac.value == 1
    assert frac.weights == {frozenset({1}): 1}  # three 1/3 weights accumulate


def test_fractional_extraction_c5_t2():
    inst = CopiesInstance(C5, 2)
    chi_t, witness = chromatic_number_copies_exact(inst)
    assert chi_t == 5
    frac = fractional_coloring_from_copies(inst, witness)
    assert frac.value == Fraction(5, 2)
    assert validate_fractional_coloring(C5, frac)


def test_fractional_extraction_rejects_invalid():
    inst = CopiesInstance(K2, 1)
    with pytest.raises(InputError):
        fractional_coloring_from_copies(inst, {(1, 1): 1, (2, 1): 1})


def test_fractional_extraction_value_is_colors_over_t():
    for i in range(10):
        base = gen_gnp(4, 0.6, 9000 + i)
        for t in (1, 2, 3):
            inst = CopiesInstance(base, t)
            f = greedy_online_ccp(inst)
            frac = fractional_coloring_from_copies(inst, f)
            assert frac.value == Fraction(len(set(f.values())), t)
            assert validate_fractional_coloring(base, frac)


# ------------------------------------------------------------- exact oracle


def test_chromatic_copies_examples():
    assert chromatic_number_copies_exact(CopiesInstance(K2, 3))[0] == 6
    assert chromatic_number_copies_exact(CopiesInstance(K1, 5))[0] == 5
    assert chromatic_number_copies_exact(CopiesInstance(C5, 2))[0] == 5
    # chi(C_{2k+1} blown up t times) = ceil(t(2k+1)/k); the copies of a
    # vertex are true twins, which the coloring kernel orders
    for n, t, chi_t in ((5, 4, 10), (7, 3, 7)):
        inst = CopiesInstance(gen_cycle(n), t)
        got, witness = chromatic_number_copies_exact(inst, limit=n * t)
        assert got == chi_t
        assert validate_copies_coloring(inst, witness) and len(set(witness.values())) == chi_t


def test_chromatic_copies_matches_brute():
    # every graph on at most 3 vertices with t <= 3, then seeded G(6, 1/2)
    # with t = 2; both exact oracles agree with plain backtracking
    corpus = [(base, t) for n in (1, 2, 3) for base in all_graphs(n) for t in (1, 2, 3)]
    corpus += [(gen_gnp(6, 0.5, 10000 + i), 2) for i in range(2)]
    for base, t in corpus:
        inst = CopiesInstance(base, t)
        chi_t, witness = chromatic_number_copies_exact(inst)
        assert chi_t == brute_chromatic(blow_up_explicit(inst))
        assert validate_copies_coloring(inst, witness)
        assert len(set(witness.values())) == chi_t
        packed = reduce_copies(inst)
        opt, packing = opt_exact(packed)
        assert opt == chi_t == packing.num_bins
        assert validate_packing(packed, packing)


def test_chromatic_copies_t1_equals_chi():
    for i in range(10):
        base = gen_gnp(5, 0.5, 11000 + i)
        assert (
            chromatic_number_copies_exact(CopiesInstance(base, 1))[0]
            == chromatic_number_exact(base)[0]
        )


def test_chromatic_copies_resource_limit():
    with pytest.raises(ResourceLimitError):
        chromatic_number_copies_exact(CopiesInstance(C5, 4), limit=16)


# ------------------------------------------------------------ online greedy


def test_greedy_ccp_examples():
    f = greedy_online_ccp(CopiesInstance(K1, 3))
    assert [f[(1, k)] for k in (1, 2, 3)] == [0, 1, 2]
    f = greedy_online_ccp(CopiesInstance(gen_empty(2), 2))
    assert {f[(1, 1)], f[(1, 2)]} == {0, 1} == {f[(2, 1)], f[(2, 2)]}
    f = greedy_online_ccp(CopiesInstance(K2, 2))
    assert {f[(1, 1)], f[(1, 2)]} == {0, 1} and {f[(2, 1)], f[(2, 2)]} == {2, 3}


def test_greedy_ccp_always_valid():
    for i in range(10):
        base = gen_gnp(5, 0.5, 12000 + i)
        for t in (1, 2, 4):
            inst = CopiesInstance(base, t)
            assert validate_copies_coloring(inst, greedy_online_ccp(inst))


# ------------------------------------------------------------------ sandwich


def test_sandwich_examples():
    r = check_sandwich(CopiesInstance(C5, 2))
    assert (r.chi_f, r.chi_t_over_t, r.chi) == (Fraction(5, 2), Fraction(5, 2), 3)
    assert r.holds
    r = check_sandwich(CopiesInstance(gen_complete(3), 2))
    assert (r.chi_f, r.chi_t_over_t, r.chi) == (3, 3, 3) and r.holds
    r = check_sandwich(CopiesInstance(gen_empty(4), 3))
    assert (r.chi_f, r.chi_t_over_t, r.chi) == (1, 1, 1) and r.holds


def test_sandwich_holds_on_random_graphs():
    for i in range(12):
        base = gen_gnp(5, 0.5, 14000 + i)
        for t in (1, 2, 3):
            assert check_sandwich(CopiesInstance(base, t)).holds


# -------------------------------------------------------------- file format


def test_copies_text_roundtrip():
    inst = CopiesInstance(C5, 3)
    base, t = parse_instance_text(format_graph_text(inst.base, t=inst.t))
    assert base == C5 and t == 3
