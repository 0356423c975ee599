"""Named invariant checks tying the reductions to their exact oracles.

Each check runs a corpus of small instances against the relevant
equivalence (reduction optimum = chromatic number, subset fits iff
independent, sandwich chain, First-Fit/greedy correspondence, packing ->
copies-coloring round-trip, crown gaps, simulation feasibility) and
reports failures as human-readable strings. The suite is deterministic
given (max_n, samples, seed).

The `reduction` parameter exists for fault injection: tests swap in a
deliberately corrupted reduction and assert the suite names the broken
invariant.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations
from typing import Callable, Iterable, Sequence

from .copies import (
    CopiesInstance,
    GreedyCcp,
    chromatic_number_copies_exact,
    fractional_coloring_from_copies,
    sandwich_report,
)
from .errors import InputError
from .generators import all_connected_graphs, all_graphs, gen_crown, gen_cycle, gen_gnp
from .graphs import (
    Graph,
    chromatic_number_exact,
    events_from_graph,
    fractional_chromatic_exact,
    greedy_online_coloring,
    is_independent_set,
    validate_coloring,
)
from .pool import run_algorithm_b
from .reductions import packing_to_copies_coloring, reduce_copies, reduce_graph
from .rng import make_rng, trial_seed
from .vbp import (
    VbpInstance,
    first_fit_online,
    fits_together,
    opt_exact,
    validate_packing,
)

FF_COMPETITIVE_SLOPE = Fraction(7, 10)   # First-Fit is (d + 0.7)-competitive
FF_ORACLE_LIMIT = 10        # items up to which First-Fit is held to (d + 0.7) * Opt
SANDWICH_TS = (1, 2, 3)     # copies per vertex in the sandwich chain


@dataclass(frozen=True)
class CheckResult:
    name: str
    instances: int
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "instances": self.instances,
            "failures": list(self.failures),
            "ok": self.ok,
        }


@dataclass(frozen=True)
class SuiteReport:
    max_n: int
    samples: int
    seed: int
    results: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(r.ok for r in self.results)

    def to_dict(self) -> dict:
        return {
            "max_n": self.max_n,
            "samples": self.samples,
            "seed": self.seed,
            "passed": self.passed,
            "checks": [r.to_dict() for r in self.results],
        }


def _sample_graphs(count: int, max_n: int, min_n: int, seed: int) -> list[Graph]:
    rng = make_rng(seed)
    graphs = []
    for i in range(count):
        n = int(rng.integers(min_n, max_n + 1))
        graphs.append(gen_gnp(n, 0.5, trial_seed(seed, i)))
    return graphs


def _label(graph: Graph) -> str:
    return f"n={graph.n} edges={sorted(graph.edges)}"


def check_reduction_equivalence(
    graphs: Iterable[Graph],
    reduction: Callable[[Graph], VbpInstance] = reduce_graph,
) -> CheckResult:
    """opt_exact(reduction(G)) = chromatic_number_exact(G), exactly."""
    failures = []
    count = 0
    for g in graphs:
        count += 1
        chi, _ = chromatic_number_exact(g)
        opt, _ = opt_exact(reduction(g))
        if opt != chi:
            failures.append(f"reduction optimum {opt} != chi {chi} on {_label(g)}")
    return CheckResult("reduction-equivalence", count, tuple(failures))


def check_subset_independence(
    graphs: Iterable[Graph],
    reduction: Callable[[Graph], VbpInstance] = reduce_graph,
) -> CheckResult:
    """S fits in one unit bin iff S is independent, over all 2^n subsets."""
    failures = []
    count = 0
    for g in graphs:
        count += 1
        inst = reduction(g)
        verts = list(g.vertices)
        for r in range(len(verts) + 1):
            for subset in combinations(verts, r):
                fits = fits_together(inst, [v - 1 for v in subset])
                indep = is_independent_set(g, subset)
                if fits != indep:
                    failures.append(
                        f"subset {subset} fits={fits} independent={indep} on {_label(g)}"
                    )
    return CheckResult("subset-independence", count, tuple(failures))


def check_sandwich_chain(graphs: Iterable[Graph]) -> CheckResult:
    """chi_f(G) <= chi(G^t)/t <= chi(G) as exact rationals."""
    failures = []
    count = 0
    for g in graphs:
        chi_f, _ = fractional_chromatic_exact(g)
        chi, _ = chromatic_number_exact(g)
        for t in SANDWICH_TS:
            count += 1
            chi_t, _ = chromatic_number_copies_exact(CopiesInstance(g, t))
            report = sandwich_report(chi_f, chi_t, t, chi)
            if not report.holds:
                failures.append(
                    f"sandwich violated at t={t}: {report.chi_f} <= "
                    f"{report.chi_t_over_t} <= {report.chi} on {_label(g)}"
                )
    return CheckResult("sandwich-chain", count, tuple(failures))


def check_copies_reduction_equivalence(
    instances: Iterable[CopiesInstance],
) -> CheckResult:
    """opt_exact(ccp_to_vbp(G,t)) = chromatic number of the blow-up."""
    failures = []
    count = 0
    for inst in instances:
        count += 1
        chi_t, _ = chromatic_number_copies_exact(inst)
        opt, _ = opt_exact(reduce_copies(inst))
        if opt != chi_t:
            failures.append(
                f"copies reduction optimum {opt} != chi(G^t) {chi_t} on "
                f"{_label(inst.base)} t={inst.t}"
            )
    return CheckResult("copies-reduction-equivalence", count, tuple(failures))


def check_packing_coloring_roundtrip(
    instances: Iterable[CopiesInstance],
) -> CheckResult:
    """First-Fit packing of the copies reduction maps back to a valid

    copies coloring with exactly as many colors as bins, and that coloring
    yields a fractional coloring of weight bins/t.
    """
    failures = []
    count = 0
    for inst in instances:
        count += 1
        packing = first_fit_online(reduce_copies(inst))
        try:
            coloring = packing_to_copies_coloring(inst, packing)
        except InputError as exc:
            failures.append(f"round-trip rejected on {_label(inst.base)} t={inst.t}: {exc}")
            continue
        n_colors = len(set(coloring.values()))
        if n_colors != packing.num_bins:
            failures.append(
                f"round-trip colors {n_colors} != bins {packing.num_bins} on "
                f"{_label(inst.base)} t={inst.t}"
            )
        frac = fractional_coloring_from_copies(inst, coloring)
        if frac.value != Fraction(packing.num_bins, inst.t):
            failures.append(
                f"fractional weight {frac.value} != bins/t on {_label(inst.base)} t={inst.t}"
            )
    return CheckResult("packing-coloring-roundtrip", count, tuple(failures))


def check_first_fit_correspondence(
    graphs: Iterable[Graph],
    reduction: Callable[[Graph], VbpInstance] = reduce_graph,
) -> CheckResult:
    """FF bin count on the reduction equals greedy's color count; where the

    exact oracle runs, FF stays within the (d + 0.7) guarantee.
    """
    failures = []
    count = 0
    for g in graphs:
        count += 1
        inst = reduction(g)
        packing = first_fit_online(inst)
        if not validate_packing(inst, packing):
            failures.append(f"FF packing infeasible on {_label(g)}")
        coloring = greedy_online_coloring(g)
        n_colors = len(set(coloring.values()))
        if packing.num_bins != n_colors:
            failures.append(
                f"FF bins {packing.num_bins} != greedy colors {n_colors} on {_label(g)}"
            )
        if inst.n <= FF_ORACLE_LIMIT:
            opt, _ = opt_exact(inst)
            if packing.num_bins > (Fraction(inst.d) + FF_COMPETITIVE_SLOPE) * opt:
                failures.append(
                    f"FF bins {packing.num_bins} exceed (d+0.7)*opt with opt={opt} on {_label(g)}"
                )
    return CheckResult("first-fit-correspondence", count, tuple(failures))


def check_crown_gaps(ks: Sequence[int] = (3, 4, 5, 6)) -> CheckResult:
    """Crown k: greedy burns k colors while chi = 2 (gap k/2)."""
    failures = []
    for k in ks:
        g = gen_crown(k)
        greedy_colors = len(set(greedy_online_coloring(g).values()))
        chi, _ = chromatic_number_exact(g)
        if greedy_colors != k:
            failures.append(f"crown k={k}: greedy used {greedy_colors} colors, expected {k}")
        if chi != 2:
            failures.append(f"crown k={k}: chi = {chi}, expected 2")
    return CheckResult("crown-gap", len(ks), tuple(failures))


def check_simulation_feasibility(
    graphs: Iterable[Graph], t: int, seed: int
) -> CheckResult:
    """Every pool-sampling run reports itself feasible and properly colors the graph."""
    failures = []
    count = 0
    for i, g in enumerate(graphs):
        count += 1
        coloring, stats = run_algorithm_b(
            g.n, events_from_graph(g), GreedyCcp(), t, trial_seed(seed, i)
        )
        try:
            if not validate_coloring(g, coloring):
                failures.append(f"improper simulated coloring on {_label(g)}")
        except InputError as exc:
            failures.append(f"infeasible simulated coloring on {_label(g)}: {exc}")
        if not stats.feasible:
            failures.append(f"simulation reported infeasible on {_label(g)}")
    return CheckResult("simulation-feasibility", count, tuple(failures))


def run_verification_suite(
    max_n: int = 5,
    samples: int = 50,
    seed: int = 0,
    reduction: Callable[[Graph], VbpInstance] = reduce_graph,
) -> SuiteReport:
    """The full invariant suite over enumerated and seeded small instances.

    max_n caps the exhaustive enumeration (hard-limited to 5); samples sets
    the number of seeded G(n, 1/2) draws per sampled check.
    """
    if max_n < 1 or samples < 1:
        raise InputError("need max_n >= 1 and samples >= 1")
    enum_cap = min(max_n, 5)
    enumerated = [
        g for n in range(1, enum_cap + 1) for g in all_connected_graphs(n)
    ]
    sampled_small = _sample_graphs(samples, enum_cap, 2, seed)
    sampled_mid = _sample_graphs(samples, min(max_n + 5, 10), 2, seed + 1)

    ccp_instances = [
        CopiesInstance(g, t)
        for n in range(1, min(max_n, 3) + 1)
        for g in all_graphs(n)
        for t in (1, 2, 3)
    ]
    if max_n >= 5:
        ccp_instances.append(CopiesInstance(gen_cycle(5), 2))

    corpus = list(chain(enumerated, sampled_small))
    results = (
        check_reduction_equivalence(corpus, reduction),
        check_subset_independence(corpus, reduction),
        check_sandwich_chain(sampled_small[: min(samples, 100)]),
        check_copies_reduction_equivalence(ccp_instances),
        check_packing_coloring_roundtrip(ccp_instances),
        check_first_fit_correspondence(sampled_mid, reduction),
        check_crown_gaps(),
        check_simulation_feasibility(sampled_small, t=16, seed=seed + 2),
    )
    return SuiteReport(max_n=max_n, samples=samples, seed=seed, results=results)
