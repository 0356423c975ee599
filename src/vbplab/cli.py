"""Command-line front door: gen / reduce / run / verify / bench.

Reports are canonical JSON (sorted keys) or CSV (the flat "aggregates"
block only); re-running a fixed config reproduces the JSON byte for byte
except the wall_time_s field. Exit codes: 0 success, 1 invariant failure,
2 bad input, 3 resource limit.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from fractions import Fraction

from . import __version__
from .copies import (
    CopiesInstance,
    GreedyCcp,
    chromatic_number_copies_exact,
    greedy_online_ccp,
)
from .errors import InputError, ProtocolError, ResourceLimitError
from .generators import (
    gen_complete,
    gen_crown,
    gen_cycle,
    gen_empty,
    gen_gnp,
    gen_path,
)
from .graphs import (
    Graph,
    chromatic_number_exact,
    format_graph_text,
    greedy_online_coloring,
    parse_instance_text,
)
from .kernels import BACKEND
from .pool import MonteCarloReport, monte_carlo_verify
from .reductions import check_reduced_size, reduce_copies, reduce_graph
from .rng import trial_seed
from .vbp import (
    VbpInstance,
    first_fit_online,
    format_vbp_text,
    lower_bound,
    opt_exact,
    parse_vbp_text,
)
from .verify import run_verification_suite

_FAMILIES = ("cycle", "path", "complete", "empty", "crown", "gnp")


def _fmt(x) -> str | int | float:
    """Fractions render as 'p/q' (or 'p'), everything else passes through."""
    return str(x) if isinstance(x, Fraction) else x


def _emit(report: dict, fmt: str, out=None) -> None:
    out = out if out is not None else sys.stdout
    if fmt == "json":
        out.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
    else:
        agg = report.get("aggregates", {})
        keys = sorted(agg)
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(keys)
        writer.writerow([agg[k] for k in keys])
        out.write(buf.getvalue())


def _write_text(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _config_echo(args, **extra) -> dict:
    cfg = {
        "subcommand": args.subcommand,
        "seed": args.seed,
        "jobs": args.jobs,
        "max_n": args.max_n,
        "max_items": args.max_items,
    }
    cfg.update(extra)
    return cfg


def _read_text(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _build_family(args) -> tuple[Graph, int | None]:
    fam = args.family
    if fam in ("cycle", "path", "complete", "empty", "gnp") and args.n is None:
        raise InputError(f"family {fam!r} requires --n")
    if fam == "cycle":
        g = gen_cycle(args.n)
    elif fam == "path":
        g = gen_path(args.n)
    elif fam == "complete":
        g = gen_complete(args.n)
    elif fam == "empty":
        g = gen_empty(args.n)
    elif fam == "crown":
        if args.k is None:
            raise InputError("family 'crown' requires --k")
        g = gen_crown(args.k)
    elif fam == "gnp":
        g = gen_gnp(args.n, args.p, args.seed)
    else:
        raise InputError(f"unknown family {fam!r}")
    return g, args.t


def _load_graph(args) -> tuple[Graph, int | None]:
    """Instance from --input (graph/copies file) or --family; returns (G, t)."""
    if getattr(args, "input", None) and getattr(args, "family", None):
        raise InputError("give either --input or --family, not both")
    if getattr(args, "input", None):
        graph, file_t = parse_instance_text(_read_text(args.input))
        return graph, args.t if args.t is not None else file_t
    if getattr(args, "family", None):
        return _build_family(args)
    raise InputError("need an instance: --input FILE or --family NAME")


def _reduce(graph: Graph, t: int | None) -> VbpInstance:
    """The graph's coloring reduction, or with t its copies reduction."""
    return reduce_copies(CopiesInstance(graph, t)) if t else reduce_graph(graph)


def _load_vbp(args) -> VbpInstance:
    """VBP instance from a vbp file, or the reduction of a graph/copies source."""
    if getattr(args, "input", None):
        text = _read_text(args.input)
        first = next(
            (ln for ln in text.splitlines() if ln.strip() and not ln.lstrip().startswith("#")),
            "",
        )
        if first.split()[:1] == ["vbp"]:
            if args.t is not None:
                raise InputError("--t applies to graph and copies inputs, not to a vbp file")
            return parse_vbp_text(text)
        graph, file_t = parse_instance_text(text)
        return _reduce(graph, args.t if args.t is not None else file_t)
    return _reduce(*_load_graph(args))


def _first_fit_vs_bound(inst: VbpInstance, max_items: int) -> tuple[int, str, int, Fraction | None]:
    """First-Fit's bins, its bound's name and value ("opt" within max_items,
    else "lower_bound"), and bins/bound (None for a zero bound)."""
    bins = first_fit_online(inst).num_bins
    if inst.n <= max_items:
        name, bound = "opt", opt_exact(inst, limit=max_items)[0]
    else:
        name, bound = "lower_bound", lower_bound(inst)
    return bins, name, bound, Fraction(bins, bound) if bound else None


# ---------------------------------------------------------------- subcommands


def cmd_gen(args) -> int:
    graph, t = _build_family(args)
    _write_text(format_graph_text(graph, t=t), args.output)
    return 0


def cmd_reduce(args) -> int:
    graph, t = parse_instance_text(_read_text(args.input))
    inst = _reduce(graph, args.t if args.t is not None else t)
    _write_text(format_vbp_text(inst), args.output)
    return 0


def _run_greedy(args, report: dict) -> int:
    graph, _ = _load_graph(args)
    coloring = greedy_online_coloring(graph)
    n_colors = len(set(coloring.values()))
    record = {"colors": n_colors}
    agg = {"colors": n_colors, "n": graph.n}
    if graph.n <= args.max_n:
        chi, _w = chromatic_number_exact(graph, limit=args.max_n)
        agg["chi"] = chi
        agg["gap"] = _fmt(Fraction(n_colors, chi)) if chi else None
    trials = args.trials or 1
    report["per_trial"] = [record] * trials
    report["aggregates"] = agg
    return 0


def _run_greedy_ccp(args, report: dict) -> int:
    graph, t = _load_graph(args)
    if not t:
        raise InputError("greedy-ccp needs a copies instance: add --t or a t line")
    inst = CopiesInstance(graph, t)
    coloring = greedy_online_ccp(inst)
    n_colors = len(set(coloring.values()))
    agg = {"colors": n_colors, "colors_over_t": _fmt(Fraction(n_colors, t)), "n": graph.n, "t": t}
    if graph.n * t <= args.max_n:
        chi_t, _w = chromatic_number_copies_exact(inst, limit=args.max_n)
        agg["chi_blowup"] = chi_t
    trials = args.trials or 1
    report["per_trial"] = [{"colors": n_colors}] * trials
    report["aggregates"] = agg
    return 0


def _run_first_fit(args, report: dict) -> int:
    inst = _load_vbp(args)
    bins, bound_name, bound, gap = _first_fit_vs_bound(inst, args.max_items)
    trials = args.trials or 1
    report["per_trial"] = [{"bins": bins}] * trials
    agg = {"bins": bins, "items": inst.n, "d": inst.d, bound_name: bound}
    agg["gap" if bound_name == "opt" else "gap_vs_lower"] = _fmt(gap)
    report["aggregates"] = agg
    return 0


def _algorithm_b(args, report: dict, default_trials: int) -> MonteCarloReport:
    """Seeded trials of algorithm B over GreedyCcp, one report row each."""
    graph, t = _load_graph(args)
    if not t:
        raise InputError("algorithm-b needs a copies parameter: add --t or a t line")
    mc = monte_carlo_verify(
        graph, GreedyCcp(), t, args.trials or default_trials, args.seed, jobs=args.jobs
    )
    report["per_trial"] = [
        {"colors_b": cb, "colors_a": ca, "fails": fl}
        for cb, ca, fl in zip(mc.colors_b_per_trial, mc.colors_a_per_trial, mc.fails_per_trial)
    ]
    return mc


def _run_algorithm_b(args, report: dict) -> int:
    mc = _algorithm_b(args, report, default_trials=1)
    report["aggregates"] = {
        "mean_colors_b": mc.mean_colors_b,
        "mean_colors_a": mc.mean_colors_a,
        "fail_rate": mc.empirical_fail_rate,
        "infeasible": mc.infeasible_trials,
        "p": mc.p,
        "t": mc.t,
        "n": mc.graph_n,
        "trials": mc.trials,
    }
    return 1 if mc.infeasible_trials else 0


def cmd_run(args) -> int:
    report = {
        "config": _config_echo(
            args,
            algorithm=args.algorithm,
            input=getattr(args, "input", None),
            family=getattr(args, "family", None),
            n=args.n,
            k=args.k,
            p=args.p,
            t=args.t,
            trials=args.trials or 1,
        ),
        "version": __version__,
    }
    start = time.perf_counter()
    runner = {
        "greedy": _run_greedy,
        "greedy-ccp": _run_greedy_ccp,
        "first-fit": _run_first_fit,
        "algorithm-b": _run_algorithm_b,
    }[args.algorithm]
    code = runner(args, report)
    report["wall_time_s"] = round(time.perf_counter() - start, 6)
    _emit(report, args.format)
    return code


def cmd_verify(args) -> int:
    start = time.perf_counter()
    suite = run_verification_suite(
        max_n=args.max_n, samples=args.trials or 50, seed=args.seed
    )
    d = suite.to_dict()
    report = {
        "config": _config_echo(args, trials=args.trials or 50),
        "version": __version__,
        "suite": d,
        "aggregates": {
            "passed": d["passed"],
            "checks": len(d["checks"]),
            "checks_failed": sum(not c["ok"] for c in d["checks"]),
            "instances": sum(c["instances"] for c in d["checks"]),
        },
        "wall_time_s": round(time.perf_counter() - start, 6),
    }
    _emit(report, args.format)
    return 0 if suite.passed else 1


def _bench_first_fit(args, report: dict) -> int:
    trials = args.trials or 1
    per_trial = []
    if args.family == "gnp" and args.input is None:
        if args.n is None:
            raise InputError("family 'gnp' requires --n")
        check_reduced_size(args.n, args.t or 1)
        instances = (
            _reduce(gen_gnp(args.n, args.p, trial_seed(args.seed, i)), args.t)
            for i in range(trials)
        )
    else:
        instances = [_load_vbp(args)]
    gaps = []
    for inst in instances:
        bins, bound_name, bound, gap = _first_fit_vs_bound(inst, args.max_items)
        per_trial.append({"bins": bins, "items": inst.n, bound_name: bound, "gap": _fmt(gap)})
        if gap is not None:
            gaps.append(gap)
    report["per_trial"] = per_trial
    agg = {"instances": len(per_trial)}
    if gaps:
        agg["mean_gap"] = _fmt(sum(gaps, Fraction(0)) / len(gaps))
        agg["max_gap"] = _fmt(max(gaps))
        agg["min_gap"] = _fmt(min(gaps))
        agg["mean_bins"] = sum(r["bins"] for r in per_trial) / len(per_trial)
    report["aggregates"] = agg
    return 0


def _bench_algorithm_b(args, report: dict) -> int:
    mc = _algorithm_b(args, report, default_trials=100)
    report["rng"] = {
        "master_seed": mc.master_seed,
        "derivation": mc.seed_derivation,
        "generator": mc.generator,
    }
    report["aggregates"] = {
        "mean_colors_b": mc.mean_colors_b,
        "mean_colors_a": mc.mean_colors_a,
        "fail_rate": mc.empirical_fail_rate,
        "bound_lhs": mc.bound_lhs,
        "bound_rhs": mc.bound_rhs,
        "slack": mc.slack,
        "bound_holds": mc.bound_holds,
        "invariant_ok": mc.per_trial_invariant_ok,
        "p": mc.p,
        "t": mc.t,
        "n": mc.graph_n,
        "trials": mc.trials,
    }
    ok = mc.bound_holds and mc.per_trial_invariant_ok and not mc.infeasible_trials
    return 0 if ok else 1


def cmd_bench(args) -> int:
    report = {
        "config": _config_echo(
            args,
            target=args.target,
            input=getattr(args, "input", None),
            family=getattr(args, "family", None),
            n=args.n,
            k=args.k,
            p=args.p,
            t=args.t,
            trials=args.trials,
        ),
        "version": __version__,
        "backend": BACKEND,
    }
    start = time.perf_counter()
    runner = {
        "first-fit": _bench_first_fit,
        "algorithm-b": _bench_algorithm_b,
    }[args.target]
    code = runner(args, report)
    report["wall_time_s"] = round(time.perf_counter() - start, 6)
    _emit(report, args.format)
    return code


# ---------------------------------------------------------------- arg parsing


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _global_flags() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    p.add_argument("--trials", type=_positive_int, default=None, help="trial/sample count")
    p.add_argument("--jobs", type=_positive_int, default=1, help="parallel workers for trials")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--max-n", type=int, default=16, dest="max_n",
                   help="largest graph the exact coloring oracle may attempt")
    p.add_argument("--max-items", type=int, default=14, dest="max_items",
                   help="largest instance the exact packing oracle may attempt")
    return p


def _instance_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", help="instance file (graph, copies, or vbp)")
    p.add_argument("--family", choices=_FAMILIES, help="generated instance family")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--k", type=int, default=None, help="crown half-size")
    p.add_argument("--p", type=float, default=0.5, help="gnp edge probability")
    p.add_argument("--t", type=_positive_int, default=None, help="copies per vertex")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vbplab",
        description="Online coloring / vector bin packing reduction lab",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    common = [_global_flags()]

    p_gen = sub.add_parser("gen", parents=common, help="write an instance file")
    p_gen.add_argument("family", choices=_FAMILIES)
    p_gen.add_argument("--n", type=int, default=None)
    p_gen.add_argument("--k", type=int, default=None)
    p_gen.add_argument("--p", type=float, default=0.5)
    p_gen.add_argument("--t", type=_positive_int, default=None)
    p_gen.add_argument("-o", "--output", default=None, help="output file (default stdout)")
    p_gen.set_defaults(func=cmd_gen)

    p_red = sub.add_parser("reduce", parents=common, help="graph/copies file -> vbp file")
    p_red.add_argument("input")
    p_red.add_argument("--t", type=_positive_int, default=None, help="override copies per vertex")
    p_red.add_argument("-o", "--output", default=None)
    p_red.set_defaults(func=cmd_reduce)

    p_run = sub.add_parser("run", parents=common, help="run one online algorithm")
    p_run.add_argument(
        "algorithm", choices=("greedy", "greedy-ccp", "first-fit", "algorithm-b")
    )
    _instance_flags(p_run)
    p_run.set_defaults(func=cmd_run)

    p_ver = sub.add_parser("verify", parents=common, help="run the invariant suite")
    p_ver.set_defaults(func=cmd_verify)

    p_bench = sub.add_parser("bench", parents=common, help="measurement harness")
    p_bench.add_argument("target", choices=("first-fit", "algorithm-b"))
    _instance_flags(p_bench)
    p_bench.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    except ProtocolError as exc:
        print(f"invariant failure: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
