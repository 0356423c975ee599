"""Vector bin packing on exact integer rows.

An instance stores item coordinate c in [0,1] as the int c * scale, where
`scale`, a bin's capacity, is the lcm of the reduced denominators (1 with
no items), so equal instances have equal fields. Fit tests, First-Fit,
packing validation, the lower bound and the exact optimum all add plain
ints, so boundary sums like n * (1/n) land on the capacity exactly, never
on 0.999... Fractions appear only at I/O: the `items` view,
`make_instance`, the text format, and bin loads in reports (converted
back once per bin).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

from . import kernels
from .errors import InputError, ResourceLimitError

Row = tuple[int, ...]
Vector = tuple[Fraction, ...]

DEFAULT_EXACT_PACK_LIMIT = 14


def make_item(coords: Sequence) -> Vector:
    """Validated item vector; accepts ints, Fractions, or 'p/q' strings."""
    out = []
    for c in coords:
        f = Fraction(c)
        if not 0 <= f <= 1:
            raise InputError(f"coordinate {f} outside [0,1]")
        out.append(f)
    return tuple(out)


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
    def items(self) -> tuple[Vector, ...]:
        """The rows as Fractions of a unit bin: the I/O view."""
        return tuple(map(self.unscale, self.rows))

    def unscale(self, load: Sequence[int]) -> Vector:
        """An integer load over `scale`, back as Fractions of a unit bin."""
        return tuple(Fraction(x, self.scale) for x in load)


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


def _column_sums(rows: Sequence[Row], d: int) -> list[int]:
    """Per-coordinate totals of the rows (zeros for no rows)."""
    return [sum(column) for column in zip(*rows)] if rows else [0] * d


def fits_together(rows: Iterable[Row], d: int, capacity: int) -> bool:
    """True iff all given int rows can share one bin of the given capacity."""
    rows = list(rows)
    if any(len(row) != d for row in rows):
        raise InputError("dimension mismatch")
    return all(t <= capacity for t in _column_sums(rows, d))


@dataclass
class Bin:
    items: list[int]
    load: Vector


@dataclass
class PackingState:
    d: int
    bins: list[Bin]

    @property
    def num_bins(self) -> int:
        return len(self.bins)

    def bin_of(self) -> dict[int, int]:
        """Item index -> bin index (items packed in exactly one bin assumed)."""
        out: dict[int, int] = {}
        for b, bin_ in enumerate(self.bins):
            for i in bin_.items:
                out[i] = b
        return out


class FirstFitPacker:
    """Online First-Fit: each int row goes to the lowest-indexed bin it fits in.

    The online packer protocol: start(d, capacity), then place(row) -> bin.
    """

    deterministic = True

    def start(self, d: int, capacity: int) -> None:
        if d < 1:
            raise InputError("dimension must be >= 1")
        self.d = d
        self.capacity = capacity
        self.loads: list[list[int]] = []

    def place(self, row: Row) -> int:
        if len(row) != self.d:
            raise InputError("dimension mismatch")
        capacity = self.capacity
        for b, load in enumerate(self.loads):
            if all(l + c <= capacity for l, c in zip(load, row)):
                self.loads[b] = [l + c for l, c in zip(load, row)]
                return b
        self.loads.append(list(row))
        return len(self.loads) - 1


def first_fit_online(inst: VbpInstance) -> PackingState:
    """Deterministic First-Fit packing of the items in arrival order."""
    packer = FirstFitPacker()
    packer.start(inst.d, inst.scale)
    bins: list[list[int]] = []
    for i, row in enumerate(inst.rows):
        b = packer.place(row)
        if b == len(bins):
            bins.append([])
        bins[b].append(i)
    return PackingState(
        d=inst.d,
        bins=[Bin(items=members, load=inst.unscale(packer.loads[b])) for b, members in enumerate(bins)],
    )


def validate_packing(inst: VbpInstance, packing: PackingState) -> bool:
    """Exact check: items partitioned, stored loads consistent, capacity held."""
    if packing.d != inst.d:
        return False
    rows = inst.rows
    seen: set[int] = set()
    for bin_ in packing.bins:
        for i in bin_.items:
            if i in seen or not 0 <= i < inst.n:
                return False
            seen.add(i)
        total = _column_sums([rows[i] for i in bin_.items], inst.d)
        if inst.unscale(total) != tuple(bin_.load):
            return False
        if any(t > inst.scale for t in total):
            return False
    return len(seen) == inst.n


def lower_bound(inst: VbpInstance) -> int:
    """Bins no packing can do without: the heaviest coordinate total, rounded up.

    0 for an empty instance, otherwise at least 1.
    """
    if inst.n == 0:
        return 0
    heaviest = max(_column_sums(inst.rows, inst.d))
    return max(1, -(-heaviest // inst.scale))


def opt_exact(inst: VbpInstance, limit: int = DEFAULT_EXACT_PACK_LIMIT) -> tuple[int, PackingState]:
    """Minimum bin count with a witness packing, by exact branch and bound.

    The kernel works on the int rows, with capacity `scale`, sorted by max
    coordinate then coordinate sum, both descending. That order is
    First-Fit's, whose bin count seeds the upper bound (`lower_bound` seeds
    the lower one); it breaks the kernel's ties between equally
    constrained items, so the search starts from the largest; and it puts
    equal rows next to each other, which the kernel's identical-item rule
    needs.
    """
    if inst.n > limit:
        raise ResourceLimitError(
            f"exact packing limited to {limit} items, got {inst.n}"
        )
    if inst.n == 0:
        return 0, PackingState(d=inst.d, bins=[])

    rows = inst.rows
    order = sorted(
        range(inst.n),
        key=lambda i: (-max(rows[i]), -sum(rows[i]), rows[i], i),
    )
    sorted_items = [rows[i] for i in order]

    packer = FirstFitPacker()
    packer.start(inst.d, inst.scale)
    incumbent = [packer.place(w) for w in sorted_items]

    count, assign = kernels.packing_bnb(sorted_items, inst.scale, lower_bound(inst), incumbent)

    bins: list[list[int]] = [[] for _ in range(count)]
    for pos, b in enumerate(assign):
        bins[b].append(order[pos])
    state = PackingState(
        d=inst.d,
        bins=[
            Bin(
                items=sorted(members),
                load=inst.unscale(_column_sums([rows[i] for i in members], inst.d)),
            )
            for members in bins
        ],
    )
    return count, state


def competitive_gap(alg_bins: int, opt_bins: int) -> Fraction:
    """alg/opt as an exact rational."""
    if opt_bins < 1:
        raise InputError("optimal bin count must be >= 1")
    return Fraction(alg_bins, opt_bins)


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
    values: dict[str, Fraction] = dict.fromkeys(tok for row in rows for tok in row)
    try:
        for tok in values:
            values[tok] = Fraction(tok)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad coordinate: {exc}") from exc
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
    return VbpInstance.from_rows(d, scale, [tuple(map(entry.__getitem__, row)) for row in rows])


def format_vbp_text(inst: VbpInstance) -> str:
    token = {e: str(Fraction(e, inst.scale)) for e in {e for row in inst.rows for e in row}}
    lines = [f"vbp {inst.n} {inst.d}"]
    lines.extend(" ".join(map(token.__getitem__, row)) for row in inst.rows)
    return "\n".join(lines) + "\n"
