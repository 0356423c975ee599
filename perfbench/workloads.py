"""The benchmark's workloads: seeded inputs, one timed pass, and its checks.

Every workload calls vbplab through module attributes (`vbp.opt_exact`, not
a name imported from vbp), so a traced run sees each call. A pass runs the
workload's operations on the inputs its setup built and checks every output
with the program's own validators; both are timed. A pass returns how many
operations it attempted and how many failed, the output-derived counts, and
a digest of its outputs that must repeat exactly across passes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from vbplab import cli, copies, generators, graphs, pool, reductions, vbp, verify
from vbplab.errors import InputError
from vbplab.rng import trial_seed

# Output-derived counts every workload reports (0 where it has none).
OUTPUT_COUNTS = ("pool.draws", "pool.fails", "verify.instances", "vbp.bins")


@dataclass(frozen=True)
class PassResult:
    attempted: int
    failed: int
    counts: dict[str, int]
    digest: str


@dataclass(frozen=True)
class Workload:
    setup: Callable[[int, str], object]        # (seed, workdir) -> inputs
    run_pass: Callable[[object], PassResult]


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def _counts(given: dict[str, int]) -> dict[str, int]:
    unknown = set(given) - set(OUTPUT_COUNTS)
    if unknown:
        raise KeyError(f"unknown output counts {sorted(unknown)}")
    return {name: given.get(name, 0) for name in OUTPUT_COUNTS}


def _ready(graph: graphs.Graph) -> graphs.Graph:
    graph.adjacency  # the cached neighbour sets are part of a ready input
    return graph


def _gnp(n: int, seed: int, stream: int, index: int) -> graphs.Graph:
    """G(n, 1/2) from its own stream, so the input families never share draws."""
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(stream, index))
    return _ready(generators.gen_gnp(n, 0.5, seq))


# ----------------------------------------------------------------- verify
# What `vbplab verify` runs at its defaults: many tiny instances, where the
# exact-rational fit tests dominate and the B&B kernels barely register.

def _setup_verify(seed: int, workdir: str) -> dict:
    return {"seed": seed}


def _pass_verify(inp: dict) -> PassResult:
    report = verify.run_verification_suite(max_n=5, samples=50, seed=inp["seed"])
    data = report.to_dict()
    failed = sum(1 for c in data["checks"] if not c["ok"])
    if not data["passed"] and failed == 0:
        failed = 1
    return PassResult(
        attempted=len(data["checks"]),
        failed=failed,
        counts=_counts({"verify.instances": sum(c["instances"] for c in data["checks"])}),
        digest=_digest(json.dumps(data, sort_keys=True)),
    )


# ------------------------------------------------------------------ exact
# The exact oracles on seeded G(n, 1/2): B&B kernels, maximal independent
# sets and the rational simplex do the work. Sizes are a ladder of many
# moderate instances because single-instance search time is heavy-tailed:
# a pass over a few large graphs would measure which seed drew a hard one.

OPT_SIZES = (15, 16)              # opt_exact(reduce_graph(G)), G(n, 1/2)
OPT_GRAPHS = 240
CHI_SIZES = (23, 24, 25, 26)      # chromatic_number_exact(G), G(n, 1/2)
CHI_GRAPHS = 500
LP_N, LP_T, LP_GRAPHS = 12, 1, 16  # fractional chi and sandwich, G(12, 1/2)
COPIES_CYCLES = ((5, 4), (7, 3))   # chi of the blow-up of C_n with t copies


def _setup_exact(seed: int, workdir: str) -> dict:
    return {
        "opt": [_gnp(OPT_SIZES[i % len(OPT_SIZES)], seed, 1, i) for i in range(OPT_GRAPHS)],
        "chi": [_gnp(CHI_SIZES[i % len(CHI_SIZES)], seed, 2, i) for i in range(CHI_GRAPHS)],
        "lp": [_gnp(LP_N, seed, 3, i) for i in range(LP_GRAPHS)],
        "cycles": {n: _ready(generators.gen_cycle(n)) for n in (5, 7)},
    }


def _coloring_ok(graph: graphs.Graph, chi: int, coloring: dict) -> bool:
    return graphs.validate_coloring(graph, coloring) and len(set(coloring.values())) == chi


def _pass_exact(inp: dict) -> PassResult:
    results = []
    bins = 0
    for g in inp["opt"]:
        inst = reductions.reduce_graph(g)
        opt, packing = vbp.opt_exact(inst, limit=g.n)
        chi, coloring = graphs.chromatic_number_exact(g, limit=g.n)
        ok = (
            opt == chi
            and packing.num_bins == opt
            and vbp.validate_packing(inst, packing)
            and _coloring_ok(g, chi, coloring)
        )
        bins += opt
        results.append((ok, opt, [b.items for b in packing.bins], sorted(coloring.items())))
    for g in inp["chi"]:
        chi, coloring = graphs.chromatic_number_exact(g, limit=g.n)
        results.append((_coloring_ok(g, chi, coloring), chi, sorted(coloring.items())))
    for n, t in COPIES_CYCLES:
        inst = copies.CopiesInstance(inp["cycles"][n], t)
        chi_t, coloring = copies.chromatic_number_copies_exact(inst, limit=n * t)
        k = (n - 1) // 2   # chi(C_{2k+1} blown up t times) = ceil(t(2k+1)/k)
        ok = (
            chi_t == -(-t * n // k)
            and copies.validate_copies_coloring(inst, coloring)
            and len(set(coloring.values())) == chi_t
        )
        results.append((ok, chi_t, sorted(coloring.items())))
    for g in inp["lp"]:
        value, frac = graphs.fractional_chromatic_exact(g)
        rep = copies.check_sandwich(copies.CopiesInstance(g, LP_T), color_limit=g.n * LP_T)
        ok = (
            graphs.validate_fractional_coloring(g, frac)
            and frac.value == value
            and rep.holds
            and rep.chi_f == value
        )
        results.append((ok, str(value), str(rep.chi_t_over_t), rep.chi))
    rep = copies.check_sandwich(copies.CopiesInstance(inp["cycles"][5], 2))
    ok = (rep.chi_f, rep.chi_t_over_t, rep.chi) == (Fraction(5, 2), Fraction(5, 2), 3)
    results.append((ok, str(rep.chi_f), str(rep.chi_t_over_t), rep.chi))
    return PassResult(
        attempted=len(results),
        failed=sum(1 for r in results if not r[0]),
        counts=_counts({"vbp.bins": bins}),
        digest=_digest(results),
    )


# -------------------------------------------------------------- first-fit
# The CLI in-process as the README uses it: reduce a G(300, 0.1) graph file
# to a vbp file, then `run first-fit` on it. 300 items exceed --max-items,
# so the run takes the lower-bound path and does no B&B. Few, wide items
# (d = 300): parsing, the dense reduction, First-Fit, packing validation
# and report emission.

FF_N, FF_P = 300, 0.1


def _setup_first_fit(seed: int, workdir: str) -> dict:
    graph_path = os.path.join(workdir, "gnp.g")
    argv = ["gen", "gnp", "--n", str(FF_N), "--p", str(FF_P), "--seed", str(seed), "-o", graph_path]
    code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"vbplab {' '.join(argv)} exited {code}")
    return {"graph": graph_path, "vbp": os.path.join(workdir, "gnp.vbp")}


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _pass_first_fit(inp: dict) -> PassResult:
    reduce_code = cli.main(["reduce", inp["graph"], "-o", inp["vbp"]])
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        run_code = cli.main(["run", "first-fit", "--input", inp["vbp"]])
    agg = json.loads(out.getvalue())["aggregates"] if run_code == 0 else {}

    inst = vbp.parse_vbp_text(_read(inp["vbp"]))
    packing = vbp.first_fit_online(inst)
    graph, _ = graphs.parse_instance_text(_read(inp["graph"]))
    greedy_colors = len(set(graphs.greedy_online_coloring(graph).values()))
    run_ok = (
        run_code == 0
        and agg.get("items") == FF_N == inst.n
        and "lower_bound" in agg
        and vbp.validate_packing(inst, packing)
        and agg.get("bins") == packing.num_bins == greedy_colors
    )
    return PassResult(
        attempted=2,
        failed=(reduce_code != 0) + (not run_ok),
        counts=_counts({"vbp.bins": packing.num_bins}),
        digest=_digest((agg, [b.items for b in packing.bins])),
    )


# ------------------------------------------------------------ algorithm-b
# Batched pool phase, as `vbplab bench algorithm-b --family crown --k 8
# --t 64` runs it: one recorded trace, 10,000 vectorized trials. No exact
# arithmetic happens here.

MC_CROWN_K, MC_T, MC_TRIALS = 8, 64, 10_000


def _setup_algorithm_b(seed: int, workdir: str) -> dict:
    return {"seed": seed, "graph": _ready(generators.gen_crown(MC_CROWN_K))}


def _pass_algorithm_b(inp: dict) -> PassResult:
    mc = pool.monte_carlo_verify(
        inp["graph"], copies.GreedyCcp(), t=MC_T, trials=MC_TRIALS,
        master_seed=inp["seed"], jobs=1,
    )
    ok = mc.bound_holds and mc.per_trial_invariant_ok and len(mc.colors_b_per_trial) == MC_TRIALS
    return PassResult(
        attempted=MC_TRIALS,
        failed=0 if ok else MC_TRIALS,
        counts=_counts({"pool.draws": sum(mc.colors_a_per_trial), "pool.fails": sum(mc.fails_per_trial)}),
        digest=_digest((mc.colors_b_per_trial, mc.colors_a_per_trial, mc.fails_per_trial)),
    )


# ------------------------------------------------------- algorithm-b-runs
# Single runs, as `vbplab run algorithm-b` and acceptance criterion 5 do
# them: each run records a fresh trace and steps the pool one vertex at a
# time, over the criterion's small corpus with t in {1, 2, 4, 8}.

RUNS = 10_000
RUN_TS = (1, 2, 4, 8)


def _setup_algorithm_b_runs(seed: int, workdir: str) -> dict:
    corpus = [_gnp(2 + i, seed, 4, i) for i in range(6)]
    corpus += [generators.gen_cycle(n) for n in range(3, 9)]
    corpus += [generators.gen_path(n) for n in range(2, 9)]
    corpus += [generators.gen_complete(n) for n in range(2, 7)]
    corpus += [generators.gen_crown(k) for k in (2, 3, 4)]
    corpus += [generators.gen_empty(n) for n in range(1, 5)]
    corpus = [_ready(g) for g in corpus]
    return {
        "seed": seed,
        "corpus": corpus,
        "events": [graphs.events_from_graph(g) for g in corpus],
    }


def _pass_algorithm_b_runs(inp: dict) -> PassResult:
    corpus, events, seed = inp["corpus"], inp["events"], inp["seed"]
    failed = draws = fails = 0
    outcomes = []
    for i in range(RUNS):
        j = i % len(corpus)
        coloring, sim = pool.run_algorithm_b(
            corpus[j].n, events[j], copies.GreedyCcp(), RUN_TS[i % len(RUN_TS)], trial_seed(seed, i)
        )
        try:
            ok = graphs.validate_coloring(corpus[j], coloring)
        except InputError:
            ok = False
        failed += not ok
        draws += sim.colors_a
        fails += sim.fails
        outcomes.append((sim.colors_b, sim.fails))
    return PassResult(
        attempted=RUNS,
        failed=failed,
        counts=_counts({"pool.draws": draws, "pool.fails": fails}),
        digest=_digest(outcomes),
    )


# Why each workload is here is recorded beside its name in BENCHMARK.json.
WORKLOADS = {
    "verify": Workload(_setup_verify, _pass_verify),
    "exact": Workload(_setup_exact, _pass_exact),
    "first-fit": Workload(_setup_first_fit, _pass_first_fit),
    "algorithm-b": Workload(_setup_algorithm_b, _pass_algorithm_b),
    "algorithm-b-runs": Workload(_setup_algorithm_b_runs, _pass_algorithm_b_runs),
}
