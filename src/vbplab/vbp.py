"""Vector bin packing with exact rational arithmetic.

Items are d-dimensional vectors of Fractions in [0,1]; bins have unit
capacity per coordinate. Each instance also carries an exact integer view,
computed once: every coordinate multiplied by `scale`, the lcm of all
denominators, so a bin's capacity becomes `scale`. Fit tests, First-Fit,
packing validation, the lower bound and the exact optimum all add plain
ints on that view, so boundary sums like n * (1/n) land on the capacity
exactly, never on 0.999... Fractions appear only at I/O and in reports
(bin loads are converted back once per bin).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

from . import kernels
from .errors import InputError, ResourceLimitError

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
    """Ordered d-dimensional items; sequence order is the online arrival order."""

    d: int
    items: tuple[Vector, ...]

    @property
    def n(self) -> int:
        return len(self.items)

    @cached_property
    def scale(self) -> int:
        """Lcm of all coordinate denominators (1 with no items): the capacity of `scaled`."""
        return math.lcm(*{c.denominator for item in self.items for c in item})

    @cached_property
    def scaled(self) -> tuple[tuple[int, ...], ...]:
        """The items as exact ints: coordinate c becomes c * scale."""
        s = self.scale
        return tuple(tuple([c.numerator * s // c.denominator for c in item]) for item in self.items)

    def unscale(self, load: Sequence[int]) -> Vector:
        """An integer load on the scaled view, back as Fractions of a unit bin."""
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
    return VbpInstance(d=d, items=tuple(validated))


def _column_sums(rows: Sequence[Sequence], d: int) -> list:
    """Per-coordinate totals of the rows, in their own number type (zeros for no rows)."""
    return [sum(column) for column in zip(*rows)] if rows else [0] * d


def fits_together(items: Iterable[Sequence], d: int, capacity=1) -> bool:
    """True iff all given items can share one bin of the given capacity.

    Sums in whatever number type the items hold: Fraction items against the
    unit capacity, or rows of `VbpInstance.scaled` against `scale`.
    """
    rows = list(items)
    if any(len(item) != d for item in rows):
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
    """Online First-Fit: each item goes to the lowest-indexed bin it fits in.

    Loads are summed in the items' own number type against `capacity`:
    Fraction vectors with the default unit capacity, or rows of
    `VbpInstance.scaled` with capacity `scale`.
    """

    deterministic = True

    def start(self, d: int, capacity=1) -> None:
        if d < 1:
            raise InputError("dimension must be >= 1")
        self.d = d
        self.capacity = capacity
        self.loads: list[list] = []

    def place(self, coords: Sequence) -> int:
        if len(coords) != self.d:
            raise InputError("dimension mismatch")
        capacity = self.capacity
        for b, load in enumerate(self.loads):
            if all(l + c <= capacity for l, c in zip(load, coords)):
                self.loads[b] = [l + c for l, c in zip(load, coords)]
                return b
        self.loads.append(list(coords))
        return len(self.loads) - 1


def first_fit_online(inst: VbpInstance) -> PackingState:
    """Deterministic First-Fit packing of the items in arrival order."""
    packer = FirstFitPacker()
    packer.start(inst.d, inst.scale)
    bins: list[list[int]] = []
    for i, item in enumerate(inst.scaled):
        b = packer.place(item)
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
    scaled = inst.scaled
    seen: set[int] = set()
    for bin_ in packing.bins:
        for i in bin_.items:
            if i in seen or not 0 <= i < inst.n:
                return False
            seen.add(i)
        total = _column_sums([scaled[i] for i in bin_.items], inst.d)
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
    heaviest = max(_column_sums(inst.scaled, inst.d))
    return max(1, -(-heaviest // inst.scale))


def opt_exact(inst: VbpInstance, limit: int = DEFAULT_EXACT_PACK_LIMIT) -> tuple[int, PackingState]:
    """Minimum bin count with a witness packing, by exact branch and bound.

    The kernel works on the integer view (`scaled`, capacity `scale`).
    Search order: max coordinate then coordinate sum, both descending,
    which also groups identical items for symmetry pruning. First-Fit on
    that order seeds the upper bound and `lower_bound` the lower one.
    """
    if inst.n > limit:
        raise ResourceLimitError(
            f"exact packing limited to {limit} items, got {inst.n}"
        )
    if inst.n == 0:
        return 0, PackingState(d=inst.d, bins=[])

    scaled = inst.scaled
    order = sorted(
        range(inst.n),
        key=lambda i: (-max(scaled[i]), -sum(scaled[i]), scaled[i], i),
    )
    sorted_items = [scaled[i] for i in order]

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
                load=inst.unscale(_column_sums([scaled[i] for i in members], inst.d)),
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
    return VbpInstance(d=d, items=tuple(tuple(map(values.__getitem__, row)) for row in rows))


def _fmt_fraction(f: Fraction) -> str:
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def format_vbp_text(inst: VbpInstance) -> str:
    lines = [f"vbp {inst.n} {inst.d}"]
    lines.extend(" ".join(_fmt_fraction(c) for c in item) for item in inst.items)
    return "\n".join(lines) + "\n"
