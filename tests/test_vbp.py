"""Vector bin packing: exact-rational feasibility, First-Fit, exact optimum."""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_opt_bins, fraction_fits, naive_first_fit
from vbplab.errors import InputError, ResourceLimitError
from vbplab.generators import gen_cycle
from vbplab.reductions import reduce_graph
from vbplab.rng import make_rng
from vbplab.vbp import (
    Bin,
    FirstFitPacker,
    PackingState,
    VbpInstance,
    first_fit_online,
    fits_together,
    format_vbp_text,
    lower_bound,
    make_instance,
    make_item,
    opt_exact,
    parse_vbp_text,
    validate_packing,
)
from vbplab.verify import check_subset_independence

F = Fraction


def basis(d):
    return make_instance(
        d, [tuple(F(int(i == j)) for j in range(d)) for i in range(d)]
    )


def ones(d, k):
    return make_instance(d, [tuple(F(1) for _ in range(d))] * k)


def random_instance(n, d, seed, denom=6):
    rng = make_rng(seed)
    items = [
        tuple(F(int(rng.integers(0, denom + 1)), denom) for _ in range(d))
        for _ in range(n)
    ]
    return make_instance(d, items)


# ------------------------------------------------------------- items & fits


def test_make_item_bounds():
    assert make_item((F(1), F(0))) == (F(1), F(0))
    with pytest.raises(InputError):
        make_item((F(3, 2),))
    with pytest.raises(InputError):
        make_item((F(-1, 2),))


@pytest.mark.parametrize("token", ["1/0", "x", None], ids=["zero-denominator", "not-a-number", "none"])
def test_make_item_reports_a_bad_coordinate_as_parse_vbp_text_does(token):
    with pytest.raises(InputError, match="^bad coordinate: ") as raised:
        make_item([token])
    if token is not None:  # a text token, so the file parser sees the same one
        with pytest.raises(InputError) as parsed:
            parse_vbp_text(f"vbp 1 1\n{token}\n")
        assert str(raised.value) == str(parsed.value)


def rows_fit(rows, d, capacity):
    """fits_together on these int rows as the items of one instance."""
    return fits_together(VbpInstance(d=d, scale=capacity, rows=tuple(rows)), range(len(rows)))


def test_fits_examples():
    assert rows_fit([(1, 0), (1, 2)], 2, 2)  # boundary 1 allowed
    assert not rows_fit([(3, 0), (4, 0)], 2, 6)
    assert rows_fit([(0,), (1,)], 1, 1)


def test_fits_dimension_mismatch():
    with pytest.raises(InputError):
        rows_fit([(1,), (1, 0)], 1, 2)


@pytest.mark.parametrize(
    "d, capacity, row",
    [(2, 3, (5, 0)), (1, 3, (-2,)), (1, 3, (4,))],
    ids=["above-capacity", "negative", "one-above-capacity"],
)
def test_place_rejects_an_entry_outside_capacity(d, capacity, row):
    packer = FirstFitPacker()
    packer.start(d, capacity)
    with pytest.raises(InputError):
        packer.place(row)


# Capacities at every lane width edge: 2^k - 1 fills its field's low bits,
# 2^k needs one bit more, and 2^62 is past a machine word.
LANE_CAPACITIES = st.one_of(
    st.sampled_from((1, 2**62)),
    st.integers(1, 62).flatmap(lambda k: st.sampled_from((2**k - 1, 2**k))),
)


@st.composite
def lane_rows(draw):
    """(d, capacity, rows); the last row may close every column at capacity or one unit above."""
    capacity = draw(LANE_CAPACITIES)
    d = draw(st.integers(1, 6))
    entry = st.integers(0, capacity)
    rows = draw(st.lists(st.tuples(*[entry] * d), min_size=1, max_size=4))
    if draw(st.booleans()):
        closing = []
        for j in range(d):
            rest = capacity - sum(row[j] for row in rows)
            bump = draw(st.integers(0, 1)) if 0 <= rest < capacity else 0
            closing.append(rest + bump if rest >= 0 else draw(entry))
        rows.append(tuple(closing))
    return d, capacity, rows


@settings(max_examples=200, deadline=None)
@given(case=lane_rows())
def test_lane_fit_test_matches_fraction_sums(case):
    d, capacity, rows = case
    inst = VbpInstance(d=d, scale=capacity, rows=tuple(rows))
    for r in range(inst.n + 1):
        for subset in combinations(range(inst.n), r):
            items = [tuple(F(x, capacity) for x in rows[i]) for i in subset]
            assert fits_together(inst, subset) == fraction_fits(items, d)


def test_instance_requires_uniform_dimension():
    with pytest.raises(InputError):
        make_instance(2, [(F(1), F(0)), (F(1),)])


# ---------------------------------------------------------------- first fit


def test_first_fit_all_ones():
    assert first_fit_online(ones(2, 3)).num_bins == 3


def test_first_fit_basis_one_bin():
    assert first_fit_online(basis(3)).num_bins == 1


def test_first_fit_crown_reduction():
    from vbplab.generators import gen_crown
    from vbplab.reductions import reduce_graph

    assert first_fit_online(reduce_graph(gen_crown(3))).num_bins == 3


def test_first_fit_always_valid():
    for i in range(20):
        inst = random_instance(8, 3, 15000 + i)
        assert validate_packing(inst, first_fit_online(inst))


def test_first_fit_lowest_index_rule():
    # second small item returns to bin 0 even though bin 1 also fits it
    inst = make_instance(1, [(F(2, 3),), (F(3, 4),), (F(1, 3),)])
    state = first_fit_online(inst)
    assert 2 in state.bins[0].items and state.num_bins == 2


# ---------------------------------------------------------------- validation


def test_validate_rejects_duplicate_item():
    inst = basis(2)
    assert validate_packing(inst, PackingState(bins=[Bin([0, 1])]))
    assert not validate_packing(inst, PackingState(bins=[Bin([0, 1]), Bin([1])]))
    assert not validate_packing(inst, PackingState(bins=[Bin([0, 0, 1])]))


def test_validate_rejects_missing_or_out_of_range_item():
    inst = basis(2)
    assert not validate_packing(inst, PackingState(bins=[Bin([0])]))
    assert not validate_packing(inst, PackingState(bins=[Bin([0, 1]), Bin([2])]))
    assert not validate_packing(inst, PackingState(bins=[Bin([-1, 0, 1])]))
    assert not validate_packing(inst, PackingState(bins=[]))


def test_validate_rejects_overfull_bin():
    inst = make_instance(1, [(F(2, 3),), (F(1, 2),)])
    assert not validate_packing(inst, PackingState(bins=[Bin([0, 1])]))
    assert validate_packing(inst, PackingState(bins=[Bin([0]), Bin([1])]))


def test_validate_rejects_a_bin_over_only_at_its_last_item():
    # coordinate 0 runs 2, 3, 5 over capacity 4; coordinate 1 ends exactly on it
    inst = VbpInstance(d=2, scale=4, rows=((2, 1), (1, 3), (2, 0)))
    assert validate_packing(inst, PackingState(bins=[Bin([0, 1]), Bin([2])]))
    assert not validate_packing(inst, PackingState(bins=[Bin([0, 1, 2])]))
    # summed unchecked, four (1, 0) rows over capacity 1 would carry into
    # the next lane and clear both guard bits
    carried = VbpInstance(d=2, scale=1, rows=((1, 0),) * 4)
    assert not validate_packing(carried, PackingState(bins=[Bin([0, 1, 2, 3])]))


# ------------------------------------------------------------- exact oracle


def test_opt_examples():
    assert opt_exact(basis(4))[0] == 1
    assert opt_exact(ones(2, 5))[0] == 5


def test_opt_p3_reduction():
    from vbplab.generators import gen_path
    from vbplab.reductions import reduce_graph

    assert opt_exact(reduce_graph(gen_path(3)))[0] == 2


def test_opt_witness_validates():
    for i in range(15):
        inst = random_instance(7, 2, 16000 + i)
        opt, witness = opt_exact(inst)
        assert validate_packing(inst, witness)
        assert witness.num_bins == opt


def test_opt_matches_brute():
    for i in range(15):
        inst = random_instance(7, 2, 17000 + i)
        assert opt_exact(inst)[0] == brute_opt_bins(inst.items, inst.d)
    for i in range(5):
        inst = random_instance(6, 3, 18000 + i, denom=4)
        assert opt_exact(inst)[0] == brute_opt_bins(inst.items, inst.d)


def test_opt_one_bin_iff_all_fit_together():
    for i in range(20):
        inst = random_instance(5, 2, 19000 + i)
        assert (opt_exact(inst)[0] == 1) == fits_together(inst, range(inst.n))


def test_first_fit_never_beats_opt_and_within_bound():
    for i in range(15):
        inst = random_instance(8, 2, 20000 + i)
        ff = first_fit_online(inst).num_bins
        opt, _ = opt_exact(inst)
        assert ff >= opt
        assert ff <= (F(inst.d) + F(7, 10)) * opt


def test_opt_resource_limit():
    with pytest.raises(ResourceLimitError):
        opt_exact(ones(1, 15), limit=14)


def test_opt_empty_instance():
    assert opt_exact(make_instance(2, []))[0] == 0


# -------------------------------------------------------------- text format


def test_vbp_text_roundtrip():
    inst = make_instance(2, [(F(1, 3), F(1)), (F(0), F(5, 7))])
    assert parse_vbp_text(format_vbp_text(inst)) == inst


def test_vbp_text_rejects_bad_header():
    with pytest.raises(InputError):
        parse_vbp_text("bin 2 2\n1 0\n0 1\n")
    with pytest.raises(InputError):
        parse_vbp_text("vbp 2 2\n1 0\n")  # row count mismatch
    with pytest.raises(InputError):
        parse_vbp_text("vbp 1 1\n3/2\n")  # out of [0,1]


@settings(max_examples=50, deadline=None)
@given(
    n=st.integers(0, 6),
    d=st.integers(1, 3),
    seed=st.integers(0, 10**6),
)
def test_roundtrip_and_monotone_property(n, d, seed):
    inst = random_instance(n, d, seed)
    assert parse_vbp_text(format_vbp_text(inst)) == inst
    state = first_fit_online(inst)
    assert validate_packing(inst, state)
    # removing an item from a bin never makes another item stop fitting
    rows, scale = inst.rows, inst.scale
    for b in state.bins:
        load = tuple(map(sum, zip(*(rows[i] for i in b.items))))
        for idx in b.items:
            reduced = tuple(load[j] - rows[idx][j] for j in range(d))
            for other in range(n):
                if rows_fit([load, rows[other]], d, scale):
                    assert rows_fit([reduced, rows[other]], d, scale)


# ------------------------------------------------------------ integer view
# Coprime denominators make the scale their product, and each item may be
# followed by its complement, so bin loads land exactly on 1.

COPRIME_DENOMINATORS = (6, 7, 11)


@st.composite
def exact_instances(draw, max_base=4):
    d = draw(st.integers(1, 3))
    coordinate = st.sampled_from(COPRIME_DENOMINATORS).flatmap(
        lambda q: st.integers(0, q).map(lambda p: F(p, q))
    )
    items = []
    for item in draw(st.lists(st.tuples(*[coordinate] * d), max_size=max_base)):
        items.append(item)
        if draw(st.booleans()):
            items.append(tuple(1 - c for c in item))
    if draw(st.booleans()):  # tests also build instances with plain int coordinates
        items = [tuple(int(c) if c.denominator == 1 else c for c in item) for item in items]
    return make_instance(d, items)


def test_scale_and_scaled_examples():
    inst = make_instance(2, [(F(1, 6), 1), (F(3, 7), F(10, 11))])
    assert inst.scale == 462
    assert inst.rows == ((77, 462), (198, 420))
    assert inst.items == ((F(1, 6), F(1)), (F(3, 7), F(10, 11)))
    assert VbpInstance.from_rows(2, 924, [(154, 924), (396, 840)]) == inst
    assert make_instance(3, []).scale == 1
    assert VbpInstance.from_rows(3, 7, []) == VbpInstance(d=3, scale=1, rows=())
    assert basis(2).scale == 1 and basis(2).rows == ((1, 0), (0, 1))


@settings(max_examples=60, deadline=None)
@given(inst=exact_instances())
def test_first_fit_matches_fraction_oracle(inst):
    packing = first_fit_online(inst)
    assert [b.items for b in packing.bins] == naive_first_fit(inst.items, inst.d)


@settings(max_examples=60, deadline=None)
@given(inst=exact_instances())
def test_fits_together_on_scaled_view_matches_fractions(inst):
    for r in range(inst.n + 1):
        for subset in combinations(range(inst.n), r):
            on_ints = fits_together(inst, subset)
            on_fractions = fraction_fits([inst.items[i] for i in subset], inst.d)
            assert on_ints == on_fractions


@settings(max_examples=40, deadline=None)
@given(inst=exact_instances())
def test_opt_witness_loads_are_fraction_sums(inst):
    opt, witness = opt_exact(inst)
    assert witness.num_bins == opt and validate_packing(inst, witness)
    assert sorted(i for b in witness.bins for i in b.items) == list(range(inst.n))
    for b in witness.bins:
        assert fraction_fits([inst.items[i] for i in b.items], inst.d)
    assert opt >= lower_bound(inst)


@settings(max_examples=30, deadline=None)
@given(inst=exact_instances())
def test_roundtrip_with_mixed_denominators(inst):
    parsed = parse_vbp_text(format_vbp_text(inst))
    assert parsed == inst
    assert all(type(c) is F for item in parsed.items for c in item)


def test_lower_bound_examples():
    assert lower_bound(make_instance(2, [])) == 0
    assert lower_bound(make_instance(2, [(F(0), F(0))])) == 1
    assert lower_bound(ones(2, 5)) == 5
    assert lower_bound(make_instance(1, [(F(1, 6),), (F(5, 7),)])) == 1
    assert lower_bound(make_instance(1, [(F(1, 6),), (F(5, 7),), (F(5, 42),)])) == 1  # exactly 1
    assert lower_bound(make_instance(1, [(F(1, 6),), (F(5, 7),), (F(1, 7),)])) == 2


def test_hot_paths_use_only_the_integer_view(monkeypatch):
    inst = reduce_graph(gen_cycle(5))

    def refuse(self):
        raise AssertionError("Fraction view on a hot path")

    monkeypatch.setattr(VbpInstance, "items", property(refuse))
    with pytest.raises(AssertionError):
        inst.items
    packing = first_fit_online(inst)
    assert packing.num_bins == 3
    assert validate_packing(inst, packing)
    assert lower_bound(inst) == 2
    opt, witness = opt_exact(inst)
    assert opt == 3 and validate_packing(inst, witness)
    result = check_subset_independence([gen_cycle(5)])
    assert result.ok and result.instances == 1
    assert parse_vbp_text(format_vbp_text(inst)) == inst


# ------------------------------------------------------------------ parser


@pytest.mark.parametrize("tok", ["0.5", "2/4", "01", "0", "1", "1/3"])
def test_parser_reads_tokens_as_fraction_does(tok):
    inst = parse_vbp_text(f"vbp 2 2\n{tok} 0\n1 {tok}\n")
    assert inst.items == ((F(tok), F(0)), (F(1), F(tok)))
    assert all(type(c) is F for item in inst.items for c in item)


def _syntax_message(tok: str) -> str:
    try:
        Fraction(tok)
    except (ValueError, ZeroDivisionError) as exc:
        return f"bad coordinate: {exc}"
    raise AssertionError(f"{tok!r} parses")


@pytest.mark.parametrize(
    "text, message",
    [
        ("vbp 1 1\n3/2\n", "coordinate 3/2 outside [0,1]"),
        ("vbp 1 1\n-1/2\n", "coordinate -1/2 outside [0,1]"),
        ("vbp 1 1\n1/0\n", _syntax_message("1/0")),
        ("vbp 1 1\nx\n", _syntax_message("x")),
        ("vbp 1 1\n\u00b2\n", _syntax_message("\u00b2")),
        ("vbp 2 2\n1\n0 1\n", "item 0 has dimension 1, expected 2"),
        ("vbp 0 0\n", "dimension must be >= 1"),
        # several faults: syntax anywhere first, then per item range before dimension
        ("vbp 2 2\n1\nx 1\n", _syntax_message("x")),
        ("vbp 2 2\n1 3/2\n0\n", "coordinate 3/2 outside [0,1]"),
        ("vbp 2 2\n1\n3/2 1\n", "item 0 has dimension 1, expected 2"),
    ],
)
def test_parser_rejects_with_the_same_messages(text, message):
    with pytest.raises(InputError) as exc:
        parse_vbp_text(text)
    assert str(exc.value) == message
