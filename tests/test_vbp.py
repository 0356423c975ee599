"""Vector bin packing: exact-rational feasibility, First-Fit, exact optimum."""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_opt_bins, naive_first_fit
from vbplab.errors import InputError, ResourceLimitError
from vbplab.generators import gen_cycle
from vbplab.reductions import reduce_graph
from vbplab.rng import make_rng
from vbplab.vbp import (
    Bin,
    PackingState,
    VbpInstance,
    competitive_gap,
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


def test_fits_examples():
    assert fits_together([(F(1, 2), F(0)), (F(1, 2), F(1))], 2)  # boundary 1 allowed
    assert not fits_together([(F(1, 2), F(0)), (F(2, 3), F(0))], 2)
    assert fits_together([(F(0),), (F(1),)], 1)


def test_fits_dimension_mismatch():
    with pytest.raises(InputError):
        fits_together([(F(1, 2),), (F(1, 2), F(0))], 1)


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
    assert state.bin_of()[2] == 0 and state.num_bins == 2


# ---------------------------------------------------------------- validation


def test_validate_rejects_duplicate_item():
    inst = basis(2)
    state = first_fit_online(inst)
    bad = PackingState(
        d=2, bins=[Bin(items=[0, 1], load=state.bins[0].load), Bin(items=[1], load=inst.items[1])]
    )
    assert not validate_packing(inst, bad)


def test_validate_rejects_overfull_bin():
    inst = make_instance(1, [(F(2, 3),), (F(1, 2),)])
    bad = PackingState(d=1, bins=[Bin(items=[0, 1], load=(F(7, 6),))])
    assert not validate_packing(inst, bad)


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
        assert (opt_exact(inst)[0] == 1) == fits_together(inst.items, inst.d)


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


# -------------------------------------------------------------------- gaps


def test_competitive_gap_examples():
    assert competitive_gap(3, 3) == 1
    assert competitive_gap(6, 2) == 3
    assert competitive_gap(7, 2) == F(7, 2)
    with pytest.raises(InputError):
        competitive_gap(3, 0)


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
    for b in state.bins:
        for idx in b.items:
            reduced = tuple(
                b.load[j] - inst.items[idx][j] for j in range(d)
            )
            for other in range(n):
                if fits_together([b.load, inst.items[other]], d):
                    assert fits_together([reduced, inst.items[other]], d)


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
    return VbpInstance(d=d, items=tuple(items))


def test_scale_and_scaled_examples():
    inst = VbpInstance(d=2, items=((F(1, 6), 1), (F(3, 7), F(10, 11))))
    assert inst.scale == 462
    assert inst.scaled == ((77, 462), (198, 420))
    assert VbpInstance(d=3, items=()).scale == 1
    assert basis(2).scale == 1 and basis(2).scaled == ((1, 0), (0, 1))


@settings(max_examples=60, deadline=None)
@given(inst=exact_instances())
def test_first_fit_matches_fraction_oracle(inst):
    packing = first_fit_online(inst)
    assert [(b.items, b.load) for b in packing.bins] == naive_first_fit(inst.items, inst.d)
    assert all(type(c) is F for b in packing.bins for c in b.load)


@settings(max_examples=60, deadline=None)
@given(inst=exact_instances())
def test_fits_together_on_scaled_view_matches_fractions(inst):
    for r in range(inst.n + 1):
        for subset in combinations(range(inst.n), r):
            on_ints = fits_together([inst.scaled[i] for i in subset], inst.d, inst.scale)
            on_fractions = fits_together([inst.items[i] for i in subset], inst.d)
            assert on_ints == on_fractions


@settings(max_examples=40, deadline=None)
@given(inst=exact_instances())
def test_opt_witness_loads_are_fraction_sums(inst):
    opt, witness = opt_exact(inst)
    assert witness.num_bins == opt and validate_packing(inst, witness)
    for b in witness.bins:
        assert b.load == tuple(
            sum((inst.items[i][j] for i in b.items), F(0)) for j in range(inst.d)
        )
    assert opt >= lower_bound(inst)


@settings(max_examples=60, deadline=None)
@given(inst=exact_instances(), data=st.data())
def test_validate_rejects_load_off_by_one_unit(inst, data):
    packing = first_fit_online(inst)
    assert validate_packing(inst, packing)
    if not packing.bins:
        return
    b = data.draw(st.integers(0, packing.num_bins - 1))
    j = data.draw(st.integers(0, inst.d - 1))
    delta = data.draw(st.sampled_from((F(1, inst.scale), F(-1, inst.scale))))
    load = packing.bins[b].load
    for bad in (
        load[:j] + (load[j] + delta,) + load[j + 1:],
        load + (F(0),),
        load[:-1],
    ):
        bins = list(packing.bins)
        bins[b] = Bin(items=bins[b].items, load=bad)
        assert not validate_packing(inst, PackingState(d=inst.d, bins=bins))


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


class _NoArithmetic(Fraction):
    """A Fraction whose arithmetic and ordering raise: code given it may
    read only its numerator and denominator (equality and hashing stay)."""

    def _refuse(self, *args):
        raise AssertionError("Fraction arithmetic on a hot path")

    __add__ = __radd__ = __le__ = __lt__ = __mul__ = __rmul__ = _refuse


def _no_arithmetic(inst: VbpInstance) -> VbpInstance:
    items = tuple(
        tuple(_NoArithmetic(c.numerator, c.denominator) for c in item) for item in inst.items
    )
    return VbpInstance(d=inst.d, items=items)


def test_hot_paths_use_only_the_integer_view():
    with pytest.raises(AssertionError):
        _NoArithmetic(1, 2) + 1
    inst = _no_arithmetic(reduce_graph(gen_cycle(5)))
    packing = first_fit_online(inst)
    assert packing.num_bins == 3
    assert validate_packing(inst, packing)
    assert lower_bound(inst) == 2
    opt, witness = opt_exact(inst)
    assert opt == 3 and validate_packing(inst, witness)
    result = check_subset_independence(
        [gen_cycle(5)], reduction=lambda g: _no_arithmetic(reduce_graph(g))
    )
    assert result.ok and result.instances == 1


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
