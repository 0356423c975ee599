"""Vector bin packing on exact integer rows.

An instance stores item coordinate c in [0,1] as the int c * scale, where
`scale`, a bin's capacity, is the lcm of the reduced denominators (1 with
no items), so equal instances have equal fields and boundary sums like
n * (1/n) land on the capacity exactly, never on 0.999... Every bin load is
one int in the `Lanes` form, so each fit test in First-Fit, packing
validation and the exact optimum's kernel is one add and one AND. A packing
is its bins' item lists; loads live only inside those fit tests. Fractions
appear only at I/O: `make_instance` and the text format.

A row enters the `Lanes` form only through `Lanes.pack`, which also checks
it: `VbpInstance.packed`, `FirstFitPacker.place` and the reductions' shadow
loads all call it, and it raises InputError on a row that is not d ints in
0..capacity. Each coordinate takes an 8-, 16-, 32- or 64-bit field, so a
row packs in one C call, from its bytes as an unsigned array; a capacity of
2^63 or more fits no array item and its rows pack by shift and sum.
"""

from __future__ import annotations

import math
import sys
from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from typing import Iterable, Sequence

from . import kernels
from .errors import InputError, ResourceLimitError

Row = tuple[int, ...]
Vector = tuple[Fraction, ...]

DEFAULT_EXACT_PACK_LIMIT = 14

# Unsigned array codes by item width in bits, picked by itemsize since a
# letter's size varies by platform.
_ARRAY_CODES = {8 * array(c).itemsize: c for c in "BHILQ"}    # 8, 16, 32, 64
_BIG_ENDIAN = sys.byteorder == "big"


def _coordinate(value) -> Fraction:
    """One exact coordinate from an int, Fraction or 'p/q' string."""
    try:
        return Fraction(value)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad coordinate: {exc}") from exc


def make_item(coords: Sequence) -> Vector:
    """Validated item vector; accepts ints, Fractions, or 'p/q' strings."""
    out = []
    for c in coords:
        f = _coordinate(c)
        if not 0 <= f <= 1:
            raise InputError(f"coordinate {f} outside [0,1]")
        out.append(f)
    return tuple(out)


class Lanes:
    """The packed-int bin-load form for d coordinates over one capacity,
    read only through the guard bits.

    A row packs into one int with entry j in bits [j*width, (j+1)*width).
    A load is `empty` plus the packed rows in the bin: `empty` lifts each
    field by 2^(width-1) - 1 - capacity, so the field's top bit, set in the
    `guard` mask, comes on exactly when its coordinate exceeds capacity. A
    fitting load plus one row stays below 2^width in every field, so no
    field carries into the next as long as no load over capacity takes
    another add.

    `width` is the smallest of 8, 16, 32 and 64 bits that holds
    capacity.bit_length() + 1, so a row is one unsigned machine array and
    `pack` is one C call: the array's little-endian bytes read as an int.
    A capacity of 2^63 or more fits no array item; construction then
    returns a `_ShiftedLanes`, whose fields are exactly
    capacity.bit_length() + 1 bits wide and whose rows pack by shift and
    sum. Either `pack` raises InputError on a row that is not d ints in
    0..capacity.
    """

    __slots__ = ("d", "capacity", "width", "guard", "empty", "_code", "_high", "_shifts")

    def __new__(cls, d: int, capacity: int):
        if capacity.bit_length() >= max(_ARRAY_CODES):
            cls = _ShiftedLanes
        return super().__new__(cls)

    def __getnewargs__(self):
        return self.d, self.capacity

    def __init__(self, d: int, capacity: int):
        if d < 1:
            raise InputError("dimension must be >= 1")
        self.d = d
        self.capacity = capacity
        bits = capacity.bit_length()
        self.width = next((w for w in _ARRAY_CODES if w > bits), bits + 1)
        self._code = _ARRAY_CODES.get(self.width)
        self._shifts = range(0, d * self.width, self.width)
        ones = sum(1 << s for s in self._shifts)
        half = 1 << (self.width - 1)
        self.guard = ones * half
        self.empty = ones * (half - 1 - capacity)
        # Every bit at or above capacity.bit_length() in every field.
        self._high = ones * (half * 2 - (1 << bits))

    def pack(self, row: Row) -> int:
        """The row as one int, from its bytes as an array of `width`-bit
        unsigned items. The array refuses a negative, too wide or non-int
        entry. An entry that fits its field but exceeds capacity sets a bit
        of `_high`, or else its guard bit once lifted by `empty`; the guard
        alone would miss an entry near 2^width, which carries into the next
        field and clears its own guard bit."""
        if len(row) != self.d:
            raise InputError("dimension mismatch")
        try:
            lanes = array(self._code, row)
        except (OverflowError, TypeError) as exc:
            raise InputError(f"row entry not an int in 0..{self.capacity}: {exc}") from exc
        if _BIG_ENDIAN:
            lanes.byteswap()
        w = int.from_bytes(lanes.tobytes(), "little")
        if w & self._high or (self.empty + w) & self.guard:
            raise InputError(f"row entry outside 0..{self.capacity}")
        return w


class _ShiftedLanes(Lanes):
    """`Lanes` over a capacity of 2^63 or more, whose fields no array item holds."""

    __slots__ = ()

    def pack(self, row: Row) -> int:
        """The row as one int, by shift and sum."""
        if len(row) != self.d:
            raise InputError("dimension mismatch")
        try:
            if min(row) < 0 or max(row) > self.capacity:
                raise InputError(f"row entry outside 0..{self.capacity}")
            return sum([x << s for x, s in zip(row, self._shifts)])
        except TypeError as exc:
            raise InputError(f"row entry not an int in 0..{self.capacity}: {exc}") from exc


@dataclass(frozen=True)
class VbpInstance:
    """Ordered d-dimensional int rows over capacity `scale`, in arrival order."""

    d: int
    scale: int
    rows: tuple[Row, ...]

    @classmethod
    def from_rows(cls, d: int, capacity: int, rows: Iterable[Row]) -> VbpInstance:
        """Canonical instance of int rows over `capacity`: divided by gcd(capacity, *entries)."""
        rows = tuple(rows)
        g = math.gcd(capacity, *(math.gcd(*row) for row in rows))
        if g > 1:
            rows = tuple(tuple([e // g for e in row]) for row in rows)
        return cls(d=d, scale=capacity // g, rows=rows)

    @property
    def n(self) -> int:
        return len(self.rows)

    @cached_property
    def lanes(self) -> Lanes:
        return Lanes(self.d, self.scale)

    @cached_property
    def packed(self) -> tuple[int, ...]:
        """The rows in the `lanes` form."""
        return tuple(map(self.lanes.pack, self.rows))


def make_instance(d: int, items: Iterable[Sequence]) -> VbpInstance:
    if d < 1:
        raise InputError("dimension must be >= 1")
    validated = []
    for i, coords in enumerate(items):
        item = make_item(coords)
        if len(item) != d:
            raise InputError(f"item {i} has dimension {len(item)}, expected {d}")
        validated.append(item)
    scale = math.lcm(*{c.denominator for item in validated for c in item})
    return VbpInstance.from_rows(d, scale, [tuple(int(c * scale) for c in item) for item in validated])


def fits_together(inst: VbpInstance, items: Iterable[int]) -> bool:
    """True iff the items with these indices can share one bin of `inst`."""
    packed, lanes = inst.packed, inst.lanes
    load = lanes.empty
    for i in items:
        load += packed[i]
        if load & lanes.guard:
            return False
    return True


@dataclass
class Bin:
    items: list[int]


@dataclass
class PackingState:
    bins: list[Bin]

    @property
    def num_bins(self) -> int:
        return len(self.bins)


def _first_fit_step(lanes: Lanes, loads: list[int], w: int, first: int = 0) -> int:
    """Add the packed row w to the lowest-indexed load from `first` on that
    it fits in, opening a new load if none; returns that load's index."""
    for b in range(first, len(loads)):
        load = loads[b] + w
        if not load & lanes.guard:
            loads[b] = load
            return b
    loads.append(lanes.empty + w)
    return len(loads) - 1


class FirstFitPacker:
    """Online First-Fit: each int row goes to the lowest-indexed bin it fits in.

    The online packer protocol: start(d, capacity), then place(row) -> bin.
    A row equal to the one placed just before reuses its packed int and
    starts the scan at its bin: loads only grow, so every earlier bin still
    rejects it. The t copies of a vertex in the copies reduction are such
    runs.
    """

    deterministic = True

    def start(self, d: int, capacity: int) -> None:
        self.lanes = Lanes(d, capacity)
        self.loads: list[int] = []
        self._last: tuple[Row, int, int] | None = None    # (row, packed, bin)

    def place(self, row: Row) -> int:
        last = self._last
        if last is not None and row == last[0]:
            key, w, first = last
        else:
            key, w, first = tuple(row), self.lanes.pack(row), 0
        b = _first_fit_step(self.lanes, self.loads, w, first)
        self._last = (key, w, b)
        return b


def first_fit_online(inst: VbpInstance) -> PackingState:
    """Deterministic First-Fit packing of the items in arrival order."""
    lanes = inst.lanes
    loads: list[int] = []
    bins: list[list[int]] = []
    for i, w in enumerate(inst.packed):
        b = _first_fit_step(lanes, loads, w)
        if b == len(bins):
            bins.append([])
        bins[b].append(i)
    return PackingState(bins=[Bin(members) for members in bins])


def validate_packing(inst: VbpInstance, packing: PackingState) -> bool:
    """Exact check: items partitioned and capacity held in every bin.

    Rows join a bin's load one at a time, and the bin fails at the first
    guard bit, before an overfull field could carry into the next.
    """
    packed, lanes = inst.packed, inst.lanes
    seen: set[int] = set()
    for bin_ in packing.bins:
        load = lanes.empty
        for i in bin_.items:
            if i in seen or not 0 <= i < inst.n:
                return False
            seen.add(i)
            load += packed[i]
            if load & lanes.guard:
                return False
    return len(seen) == inst.n


def lower_bound(inst: VbpInstance) -> int:
    """Bins no packing can do without: the heaviest coordinate total, rounded up.

    0 for an empty instance, otherwise at least 1.
    """
    if inst.n == 0:
        return 0
    heaviest = max(sum(column) for column in zip(*inst.rows))
    return max(1, -(-heaviest // inst.scale))


def opt_exact(inst: VbpInstance, limit: int = DEFAULT_EXACT_PACK_LIMIT) -> tuple[int, PackingState]:
    """Minimum bin count with a witness packing, by exact branch and bound.

    The kernel works on the packed rows, sorted by max coordinate then
    coordinate sum, both descending. That order is First-Fit's, whose bin
    count seeds the upper bound (`lower_bound` seeds the lower one); it
    breaks the kernel's ties between equally constrained items, so the
    search starts from the largest; and it puts equal rows next to each
    other, which the kernel's identical-item rule needs.
    """
    if inst.n > limit:
        raise ResourceLimitError(
            f"exact packing limited to {limit} items, got {inst.n}"
        )
    if inst.n == 0:
        return 0, PackingState(bins=[])

    rows, packed, lanes = inst.rows, inst.packed, inst.lanes
    order = sorted(
        range(inst.n),
        key=lambda i: (-max(rows[i]), -sum(rows[i]), rows[i], i),
    )

    loads: list[int] = []
    incumbent = [_first_fit_step(lanes, loads, packed[i]) for i in order]

    count, assign = kernels.packing_bnb(
        [packed[i] for i in order], lanes.guard, lanes.empty, lower_bound(inst), incumbent
    )

    bins: list[list[int]] = [[] for _ in range(count)]
    for pos, b in enumerate(assign):
        bins[b].append(order[pos])
    return count, PackingState(bins=[Bin(sorted(members)) for members in bins])


# --- text format -----------------------------------------------------------
# line 1: "vbp <n> <d>", then n lines of d whitespace-separated rationals
# ("p/q" or integers); line order is arrival order. "#" starts a comment.

def parse_vbp_text(text: str) -> VbpInstance:
    header = None
    rows: list[list[str]] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if header is None:
            if parts[0] != "vbp" or len(parts) != 3:
                raise InputError(f"line {lineno}: expected 'vbp <n> <d>' header")
            try:
                header = (int(parts[1]), int(parts[2]))
            except ValueError as exc:
                raise InputError(f"line {lineno}: {exc}") from exc
        else:
            rows.append(parts)
    if header is None:
        raise InputError("missing 'vbp <n> <d>' header")
    n, d = header
    if len(rows) != n:
        raise InputError(f"header declares {n} items but {len(rows)} found")
    # Each distinct token is parsed and range-checked once (a reduced file
    # holds a handful among n*d), in first-appearance order, so errors are
    # reported as make_instance would: syntax first, then per item range
    # before dimension.
    values: dict[str, Fraction] = dict.fromkeys(chain.from_iterable(rows))
    for tok in values:
        values[tok] = _coordinate(tok)
    if d < 1:
        raise InputError("dimension must be >= 1")
    outside = {tok for tok, f in values.items() if not 0 <= f <= 1}
    for i, row in enumerate(rows):
        if outside and not outside.isdisjoint(row):
            bad = next(tok for tok in row if tok in outside)
            raise InputError(f"coordinate {values[bad]} outside [0,1]")
        if len(row) != d:
            raise InputError(f"item {i} has dimension {len(row)}, expected {d}")
    scale = math.lcm(*{f.denominator for f in values.values()})
    entry = {tok: f.numerator * scale // f.denominator for tok, f in values.items()}
    # Already canonical: a denominator carrying scale's full power of a
    # prime p has a numerator prime to p, so its entry is too, and the gcd
    # of scale with the entries is 1.
    return VbpInstance(d, scale, tuple([tuple(map(entry.__getitem__, row)) for row in rows]))


def format_vbp_text(inst: VbpInstance) -> str:
    token = {e: str(Fraction(e, inst.scale)) for e in set().union(*inst.rows)}
    lines = [f"vbp {inst.n} {inst.d}"]
    lines.extend(" ".join(map(token.__getitem__, row)) for row in inst.rows)
    return "\n".join(lines) + "\n"
