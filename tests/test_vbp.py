"""Vector bin packing: exact-rational feasibility, First-Fit, exact optimum."""

import pickle
import random
import time
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_opt_bins, fraction_fits, fraction_items, naive_first_fit, shift_pack
from vbplab import vbp
from vbplab.errors import InputError, ResourceLimitError
from vbplab.generators import gen_cycle
from vbplab.reductions import reduce_graph
from vbplab.rng import make_rng
from vbplab.vbp import (
    Bin,
    FirstFitPacker,
    Lanes,
    PackingState,
    VbpInstance,
    first_fit_online,
    fits_together,
    format_vbp_text,
    lower_bound,
    make_instance,
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


def test_make_instance_bounds():
    assert make_instance(2, [(F(1), F(0))]).rows == ((1, 0),)
    with pytest.raises(InputError, match="^coordinate 3/2 outside"):
        make_instance(1, [(F(3, 2),)])
    with pytest.raises(InputError, match="^coordinate -1/2 outside"):
        make_instance(1, [(F(-1, 2),)])


@pytest.mark.parametrize(
    "token", ["1/0", "x", None, [1]], ids=["zero-denominator", "not-a-number", "none", "unhashable"]
)
def test_make_instance_reports_a_bad_coordinate_as_parse_vbp_text_does(token):
    with pytest.raises(InputError, match="^bad coordinate: ") as raised:
        make_instance(1, [[token]])
    if isinstance(token, str):  # a text token, so the file parser sees the same one
        with pytest.raises(InputError) as parsed:
            parse_vbp_text(f"vbp 1 1\n{token}\n")
        assert str(raised.value) == str(parsed.value)


def rows_fit(rows, d, capacity):
    """fits_together on these int rows as the items of one instance."""
    return fits_together(VbpInstance(d=d, scale=capacity, rows=tuple(rows)), range(len(rows)))


@pytest.mark.parametrize("index", [-1, -3, 3, 10, "0", 1.0, None])
def test_fits_together_refuses_an_index_outside_the_instance(index):
    inst = make_instance(2, [(1, 0), (1, 0), (0, 1)])
    assert fits_together(inst, [0, 2]) and not fits_together(inst, [0, 1])
    with pytest.raises(InputError, match="^item index not in 0..2: "):
        fits_together(inst, [0, index])


def test_fits_examples():
    assert rows_fit([(1, 0), (1, 2)], 2, 2)  # boundary 1 allowed
    assert not rows_fit([(3, 0), (4, 0)], 2, 6)
    assert rows_fit([(0,), (1,)], 1, 1)


def test_fits_dimension_mismatch():
    with pytest.raises(InputError):
        rows_fit([(1,), (1, 0)], 1, 2)


def _malformed_rows(capacity):
    """(id, row) pairs over d = 2 that no pack may take."""
    carry = 2 ** Lanes(2, capacity).width - 1    # fills a field: carries past its guard
    return [
        ("short", (0,)),
        ("long", (0, 0, 0)),
        ("negative", (0, -1)),
        ("above-capacity", (capacity + 1, 0)),
        ("float", (0, 1.0)),
        ("fraction", (Fraction(1), 0)),
        ("field-full-first", (carry, 0)),
        ("field-full-last", (0, carry)),
        ("string", ("1", 0)),
    ]


MALFORMED = [
    pytest.param(2, capacity, row, id=f"{capacity.bit_length()}-bit-{name}")
    for capacity in (1, 3, 300, 2**63 - 1, 2**100)
    for name, row in _malformed_rows(capacity)
]


@pytest.mark.parametrize(
    "d, capacity, row",
    [
        pytest.param(2, 3, (5, 0), id="above-capacity"),
        pytest.param(1, 3, (-2,), id="negative"),
        pytest.param(1, 3, (4,), id="one-above-capacity"),
        *MALFORMED,
    ],
)
def test_place_rejects_an_entry_outside_capacity(d, capacity, row):
    """Packing, placing and an instance's packed rows all refuse a row that
    is not d ints in 0..capacity, with InputError."""
    with pytest.raises(InputError):
        Lanes(d, capacity).pack(row)
    packer = FirstFitPacker()
    packer.start(d, capacity)
    packer.place((0,) * d)
    with pytest.raises(InputError):
        packer.place(row)
    with pytest.raises(InputError):
        VbpInstance(d=d, scale=capacity, rows=((0,) * d, row)).packed


@pytest.mark.parametrize("seed", range(30))
def test_packer_on_repeated_runs_matches_fraction_first_fit(seed):
    # runs of equal rows, with some rows coming back after a different one:
    # only a row equal to the one just placed may skip the earlier bins
    rng = random.Random(seed)
    d, capacity = rng.randint(1, 3), rng.randint(2, 6)
    pool = [tuple(rng.randint(0, capacity) for _ in range(d)) for _ in range(3)]
    rows = [row for _ in range(rng.randint(1, 8)) for row in [rng.choice(pool)] * rng.randint(1, 5)]
    packer = FirstFitPacker()
    packer.start(d, capacity)
    bins: list[list[int]] = []
    for i, row in enumerate(rows):
        b = packer.place(row)
        if b == len(bins):
            bins.append([])
        bins[b].append(i)
    items = [tuple(Fraction(x, capacity) for x in row) for row in rows]
    assert bins == naive_first_fit(items, d)


# Capacities at every lane width edge: 2^k - 1 fills its field's low bits,
# 2^k needs one bit more. A field holds capacity.bit_length() + 1 bits in
# 8, 16, 32 or 64, so 2^7, 2^15, 2^31 widen it to the next byte width, and
# from 2^63 on (here 2^63 and 2^100) rows pack by shift and sum.
BYTE_WIDTH_EDGES = tuple(x for k in (7, 15, 31, 63) for x in (2**k - 1, 2**k))
LANE_CAPACITIES = st.one_of(
    st.sampled_from((1, 2**62, 2**100, *BYTE_WIDTH_EDGES)),
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


@settings(max_examples=200, deadline=None)
@given(case=lane_rows())
def test_packed_rows_equal_shift_and_sum(case):
    d, capacity, rows = case
    inst = VbpInstance(d=d, scale=capacity, rows=tuple(rows))
    width = shift_pack(rows[0], capacity)[0]
    assert inst.lanes.width == width
    assert inst.packed == tuple(shift_pack(row, capacity)[1] for row in rows)


@pytest.mark.parametrize(
    "capacity, width",
    [(1, 8), (2**7 - 1, 8), (2**7, 16), (300, 16), (2**15 - 1, 16), (2**15, 32),
     (2**31 - 1, 32), (2**31, 64), (2**63 - 1, 64), (2**63, 65), (2**100, 102)],
)
def test_lane_width_is_the_narrowest_byte_width_past_capacity(capacity, width):
    lanes = Lanes(2, capacity)
    assert lanes.width == width
    copied = pickle.loads(pickle.dumps(lanes))
    assert (type(copied), copied.width, copied.guard) == (type(lanes), width, lanes.guard)
    assert copied.pack((1, capacity)) == lanes.pack((1, capacity))


def test_lanes_of_a_large_dimension_build_in_linear_time():
    """An empty instance of dimension 200,000 parses and First-Fit packs it
    at once; a mask summed field by field took seconds."""
    start = time.perf_counter()
    inst = parse_vbp_text("vbp 0 200000\n")
    assert first_fit_online(inst).num_bins == 0 and inst.lanes.width == 8
    assert time.perf_counter() - start < 1


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
        assert opt_exact(inst)[0] == brute_opt_bins(fraction_items(inst), inst.d)
    for i in range(5):
        inst = random_instance(6, 3, 18000 + i, denom=4)
        assert opt_exact(inst)[0] == brute_opt_bins(fraction_items(inst), inst.d)


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


@st.composite
def coordinate_texts(draw):
    """(d, coordinates, text): the coordinates written as unreduced p/q tokens."""
    d = draw(st.integers(1, 3))
    q = st.sampled_from((1, 2, 4, 6, 7, 9, 11, 12))
    coordinate = q.flatmap(lambda q: st.integers(0, q).map(lambda p: F(p, q)))
    items = draw(st.lists(st.tuples(*[coordinate] * d), max_size=5))
    k = draw(st.integers(1, 3))
    lines = [f"vbp {len(items)} {d}"]
    lines.extend(" ".join(f"{c.numerator * k}/{c.denominator * k}" for c in item) for item in items)
    return d, items, "\n".join(lines) + "\n"


@settings(max_examples=60, deadline=None)
@given(case=coordinate_texts())
def test_parsed_instance_is_make_instance_of_the_same_coordinates(case):
    d, items, text = case
    inst = make_instance(d, items)
    assert parse_vbp_text(text) == inst
    assert parse_vbp_text(format_vbp_text(inst)) == inst


# Denominators 2 and the primes 2^31 - 1 and 2^61 - 1 make a 93-bit scale,
# past every array item, so the rows take 94-bit fields and pack by shift
# and sum.
WIDE_DENOMINATORS = (2, 2**31 - 1, 2**61 - 1)


@st.composite
def wide_texts(draw):
    """(d, coordinates, text) over every wide denominator, some items followed by their complement."""
    d = draw(st.integers(1, 3))
    coordinate = st.sampled_from(WIDE_DENOMINATORS).flatmap(
        lambda q: st.integers(0, q).map(lambda p: F(p, q))
    )
    items = [tuple([F(1, q)] * d) for q in WIDE_DENOMINATORS]
    for item in draw(st.lists(st.tuples(*[coordinate] * d), max_size=3)):
        items.append(item)
        if draw(st.booleans()):
            items.append(tuple(1 - c for c in item))
    lines = [f"vbp {len(items)} {d}"]
    lines.extend(" ".join(map(str, item)) for item in items)
    return d, items, "\n".join(lines) + "\n"


@settings(max_examples=25, deadline=None)
@given(case=wide_texts())
def test_reader_over_a_wide_capacity_matches_fractions(case):
    d, items, text = case
    inst = parse_vbp_text(text)
    assert inst.scale.bit_length() == 93 and inst.lanes.width == 94
    assert inst == make_instance(d, items) and fraction_items(inst) == tuple(items)
    assert [b.items for b in first_fit_online(inst).bins] == naive_first_fit(items, d)
    for r in range(inst.n + 1):
        for subset in combinations(range(inst.n), r):
            assert fits_together(inst, subset) == fraction_fits([items[i] for i in subset], d)
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
    assert fraction_items(inst) == ((F(1, 6), F(1)), (F(3, 7), F(10, 11)))
    assert VbpInstance.from_rows(2, 924, [(154, 924), (396, 840)]) == inst
    assert make_instance(3, []).scale == 1
    assert VbpInstance.from_rows(3, 7, []) == VbpInstance(d=3, scale=1, rows=())
    assert basis(2).scale == 1 and basis(2).rows == ((1, 0), (0, 1))


@settings(max_examples=60, deadline=None)
@given(inst=exact_instances())
def test_first_fit_matches_fraction_oracle(inst):
    packing = first_fit_online(inst)
    assert [b.items for b in packing.bins] == naive_first_fit(fraction_items(inst), inst.d)


@settings(max_examples=60, deadline=None)
@given(inst=exact_instances())
def test_fits_together_on_scaled_view_matches_fractions(inst):
    items = fraction_items(inst)
    for r in range(inst.n + 1):
        for subset in combinations(range(inst.n), r):
            on_ints = fits_together(inst, subset)
            on_fractions = fraction_fits([items[i] for i in subset], inst.d)
            assert on_ints == on_fractions


@settings(max_examples=40, deadline=None)
@given(inst=exact_instances())
def test_opt_witness_loads_are_fraction_sums(inst):
    opt, witness = opt_exact(inst)
    assert witness.num_bins == opt and validate_packing(inst, witness)
    assert sorted(i for b in witness.bins for i in b.items) == list(range(inst.n))
    items = fraction_items(inst)
    for b in witness.bins:
        assert fraction_fits([items[i] for i in b.items], inst.d)
    assert opt >= lower_bound(inst)


@settings(max_examples=30, deadline=None)
@given(inst=exact_instances())
def test_roundtrip_with_mixed_denominators(inst):
    parsed = parse_vbp_text(format_vbp_text(inst))
    assert parsed == inst


def test_lower_bound_examples():
    assert lower_bound(make_instance(2, [])) == 0
    assert lower_bound(make_instance(2, [(F(0), F(0))])) == 1
    assert lower_bound(ones(2, 5)) == 5
    assert lower_bound(make_instance(1, [(F(1, 6),), (F(5, 7),)])) == 1
    assert lower_bound(make_instance(1, [(F(1, 6),), (F(5, 7),), (F(5, 42),)])) == 1  # exactly 1
    assert lower_bound(make_instance(1, [(F(1, 6),), (F(5, 7),), (F(1, 7),)])) == 2


def test_hot_paths_use_only_the_integer_view(monkeypatch):
    inst = reduce_graph(gen_cycle(5))
    assert parse_vbp_text(format_vbp_text(inst)) == inst

    def refuse(*args):
        raise AssertionError("Fraction on a hot path")

    monkeypatch.setattr(vbp, "Fraction", refuse)
    with pytest.raises(AssertionError):
        format_vbp_text(inst)   # the text format is I/O and needs Fractions
    packing = first_fit_online(inst)
    assert packing.num_bins == 3
    assert validate_packing(inst, packing)
    assert lower_bound(inst) == 2
    opt, witness = opt_exact(inst)
    assert opt == 3 and validate_packing(inst, witness)
    result = check_subset_independence([gen_cycle(5)])
    assert result.ok and result.instances == 1


# ------------------------------------------------------------------ parser


@pytest.mark.parametrize("tok", ["0.5", "2/4", "01", "0", "1", "1/3"])
def test_parser_reads_tokens_as_fraction_does(tok):
    inst = parse_vbp_text(f"vbp 2 2\n{tok} 0\n1 {tok}\n")
    assert fraction_items(inst) == ((F(tok), F(0)), (F(1), F(tok)))


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
    """The file and make_instance on the same tokens give the same first error."""
    with pytest.raises(InputError) as exc:
        parse_vbp_text(text)
    assert str(exc.value) == message
    header, *lines = text.splitlines()
    with pytest.raises(InputError) as exc:
        make_instance(int(header.split()[2]), [line.split() for line in lines])
    assert str(exc.value) == message
