"""Per-layer spans recorded from outside the program.

A Tracer replaces chosen public functions of vbplab with wrappers that
record one span per call: name, start, end and the enclosing span. Several
modules import names directly (verify, cli and copies do), and some
functions take another one as a default argument (the verify checks take
`reduction=reduce_graph`), so patching one module attribute would miss
calls. `installed()` therefore replaces every binding of each original: the
attribute of every loaded vbplab module and class that holds it, and every
function default that holds it. Leaving the context restores them all.

Spans stay in memory while the traced code runs; `take()` turns them into
per-function call counts and self times when a traced pass ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from contextlib import contextmanager
from typing import Callable, Iterable, Sequence

# Public functions wrapped in a traced run, as "<module>.<name>" within vbplab.
TRACED = (
    "generators.gen_gnp",
    "generators.all_connected_graphs",
    "generators.all_graphs",
    "reductions.reduce_graph",
    "reductions.reduce_copies",
    "reductions.packing_to_copies_coloring",
    "vbp.fits_together",
    "vbp.first_fit_online",
    "vbp.validate_packing",
    "vbp.parse_vbp_text",
    "vbp.format_vbp_text",
    "vbp.opt_exact",
    "kernels.packing_bnb",
    "kernels.chromatic_bnb",
    "graphs.chromatic_number_exact",
    "graphs.maximal_independent_sets",
    "graphs.fractional_chromatic_exact",
    "graphs.is_independent_set",
    "graphs.greedy_online_coloring",
    "graphs.parse_instance_text",
    "ratlp.simplex_max",
    "copies.blow_up_explicit",
    "copies.check_sandwich",
    "copies.GreedyCcp.color_copies",
    "pool.run_algorithm_b",
    "pool.monte_carlo_verify",
    "verify.check_reduction_equivalence",
    "verify.check_subset_independence",
    "verify.check_sandwich_chain",
    "verify.check_copies_reduction_equivalence",
    "verify.check_packing_coloring_roundtrip",
    "verify.check_first_fit_correspondence",
    "verify.check_crown_gaps",
    "verify.check_simulation_feasibility",
    "cli.main",
)

# A span is [name, start, end, parent index or -1, counts as a call].
# A generator records one span per resumption; only the first is a call.
Span = list


def self_times(spans: Sequence[Span]) -> dict[str, tuple[int, float]]:
    """name -> (calls, self seconds); self time is a span's duration minus
    the durations of the spans directly inside it."""
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, tuple[int, float]] = {}
    for i, (name, start, end, _, call) in enumerate(spans):
        calls, total = out.get(name, (0, 0.0))
        out[name] = (calls + bool(call), total + (end - start) - child[i])
    return out


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def take(self) -> dict[str, tuple[int, float]]:
        """Self times of the spans recorded since the last take; clears them."""
        if self._stack:
            raise RuntimeError("take() inside an open span")
        out = self_times(self.spans)
        self.spans = []
        return out

    def wrap(self, name: str, fn: Callable) -> Callable:
        tracer = self

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def traced_generator(*args, **kwargs):
                it = fn(*args, **kwargs)
                first = True
                while True:
                    spans, stack = tracer.spans, tracer._stack
                    idx = len(spans)
                    spans.append([name, tracer.clock(), 0.0, stack[-1] if stack else -1, first])
                    first = False
                    stack.append(idx)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        stack.pop()
                        spans[idx][2] = tracer.clock()
                    yield item

            return traced_generator

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans, stack = tracer.spans, tracer._stack
            idx = len(spans)
            spans.append([name, tracer.clock(), 0.0, stack[-1] if stack else -1, True])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = tracer.clock()

        return traced

    @contextmanager
    def installed(self, targets: Iterable[str] = TRACED):
        """Replace every binding of each target with its traced wrapper."""
        wrapped: dict[int, tuple[Callable, Callable]] = {}
        for target in targets:
            modname, *path = target.split(".")
            owner = importlib.import_module(f"vbplab.{modname}")
            for part in path[:-1]:
                owner = getattr(owner, part)
            fn = vars(owner)[path[-1]]
            wrapped[id(fn)] = (fn, self.wrap(target, fn))

        def replacement(value):
            hit = wrapped.get(id(value))
            return hit[1] if hit is not None and hit[0] is value else None

        namespaces: dict[int, object] = {}
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "vbplab" or name.startswith("vbplab.")):
                continue
            namespaces[id(module)] = module
            for value in list(vars(module).values()):
                if isinstance(value, type) and value.__module__.startswith("vbplab."):
                    namespaces[id(value)] = value

        undo: list[Callable[[], None]] = []
        try:
            seen: set[int] = set()
            for ns in namespaces.values():
                for attr, value in list(vars(ns).items()):
                    new = replacement(value)
                    if new is not None:
                        setattr(ns, attr, new)
                        undo.append(functools.partial(setattr, ns, attr, value))
                    elif inspect.isfunction(value) and id(value) not in seen:
                        seen.add(id(value))
                        _patch_defaults(value, replacement, undo)
            for fn, _ in wrapped.values():
                if id(fn) not in seen:
                    seen.add(id(fn))
                    _patch_defaults(fn, replacement, undo)
            yield self
        finally:
            for restore in reversed(undo):
                restore()


def _patch_defaults(fn, replacement, undo) -> None:
    defaults = fn.__defaults__
    if defaults:
        new = tuple(replacement(d) or d for d in defaults)
        if any(a is not b for a, b in zip(new, defaults)):
            fn.__defaults__ = new
            undo.append(functools.partial(setattr, fn, "__defaults__", defaults))
    kwdefaults = fn.__kwdefaults__
    if kwdefaults:
        new_kw = {k: replacement(v) or v for k, v in kwdefaults.items()}
        if any(new_kw[k] is not v for k, v in kwdefaults.items()):
            fn.__kwdefaults__ = new_kw
            undo.append(functools.partial(setattr, fn, "__kwdefaults__", kwdefaults))
