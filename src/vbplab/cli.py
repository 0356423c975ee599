"""Command-line front door: gen / reduce / run / verify / bench.

`gen` writes a family's graph file and takes `--seed` (for gnp); `reduce`
turns a graph or copies file into a vbp file. Every instance, from a file
or a family, comes through `_load_graph`, which applies `--t` over a file's
`t` line. `verify`, each `run` algorithm and each `bench` target has its
own parser, which takes only the report flags its body reads (`_RUNS`,
`_BENCHES`, `_VERIFY`). They print a report framed by `_report`: the
config echo (every parsed flag but --format), the version, the body's
fields and wall_time_s. Reports are canonical JSON (sorted keys) or CSV
(the flat "aggregates" block only); re-running a fixed config reproduces
the JSON byte for byte except the wall_time_s field. Exit codes: 0
success, 1 invariant failure, 2 bad input (a bad flag or count, a negative
--seed, or a flag the command does not take), 3 resource limit.
"""

from __future__ import annotations

import argparse
import csv
import functools
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


def _emit(report: dict, fmt: str) -> None:
    if fmt == "json":
        sys.stdout.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
    else:
        agg = report.get("aggregates", {})
        keys = sorted(agg)
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(keys)
        writer.writerow([agg[k] for k in keys])
        sys.stdout.write(buf.getvalue())


def _write_text(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _read_text(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _build_family(args, seed: int | None = None) -> tuple[Graph, int | None]:
    """The --family graph and --t; gnp draws with `seed`, by default --seed."""
    fam = args.family
    if fam == "crown":
        if args.k is None:
            raise InputError("family 'crown' requires --k")
        return gen_crown(args.k), args.t
    if args.n is None:
        raise InputError(f"family {fam!r} requires --n")
    if fam == "gnp":
        return gen_gnp(args.n, args.p, args.seed if seed is None else seed), args.t
    by_n = {"cycle": gen_cycle, "path": gen_path, "complete": gen_complete, "empty": gen_empty}
    return by_n[fam](args.n), args.t


def _load_graph(args, text: str | None = None) -> tuple[Graph, int | None]:
    """Instance from --input (a graph/copies file, or its `text` when already
    read) or --family; returns (G, t), --t taking over a file's t line."""
    family = getattr(args, "family", None)  # reduce takes no --family
    if args.input and family:
        raise InputError("give either --input or --family, not both")
    if args.input:
        graph, file_t = parse_instance_text(_read_text(args.input) if text is None else text)
        return graph, args.t if args.t is not None else file_t
    if family:
        return _build_family(args)
    raise InputError("need an instance: --input FILE or --family NAME")


def _reduce(graph: Graph, t: int | None) -> VbpInstance:
    """The graph's coloring reduction, or with t its copies reduction."""
    return reduce_copies(CopiesInstance(graph, t)) if t else reduce_graph(graph)


def _load_vbp(args) -> VbpInstance:
    """VBP instance from a vbp file, or the reduction of a graph/copies source
    (where `_load_graph` refuses --input together with --family)."""
    text = None
    if args.input and not args.family:
        text = _read_text(args.input)
        first = next(
            (ln for ln in text.splitlines() if ln.strip() and not ln.lstrip().startswith("#")),
            "",
        )
        if first.split()[:1] == ["vbp"]:
            if args.t is not None:
                raise InputError("--t applies to graph and copies inputs, not to a vbp file")
            return parse_vbp_text(text)
    return _reduce(*_load_graph(args, text))


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
    _write_text(format_vbp_text(_reduce(*_load_graph(args))), args.output)
    return 0


def _report(body, args) -> int:
    """Emit the report that `body(args, report)` fills in after the config
    echo (every parsed flag but --format) and the version; wall_time_s
    times the body. Returns the body's exit code."""
    config = {k: v for k, v in vars(args).items() if k not in ("func", "format")}
    report = {"config": config, "version": __version__}
    start = time.perf_counter()
    code = body(args, report)
    report["wall_time_s"] = round(time.perf_counter() - start, 6)
    _emit(report, args.format)
    return code


def _run_greedy(args, report: dict) -> int:
    graph, _ = _load_graph(args)
    coloring = greedy_online_coloring(graph)
    n_colors = len(set(coloring.values()))
    agg = {"colors": n_colors, "n": graph.n}
    if graph.n <= args.max_n:
        chi, _w = chromatic_number_exact(graph, limit=args.max_n)
        agg["chi"] = chi
        agg["gap"] = _fmt(Fraction(n_colors, chi)) if chi else None
    report["per_trial"] = [{"colors": n_colors}]
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
    report["per_trial"] = [{"colors": n_colors}]
    report["aggregates"] = agg
    return 0


def _run_first_fit(args, report: dict) -> int:
    inst = _load_vbp(args)
    bins, bound_name, bound, gap = _first_fit_vs_bound(inst, args.max_items)
    report["per_trial"] = [{"bins": bins}]
    agg = {"bins": bins, "items": inst.n, "d": inst.d, bound_name: bound}
    agg["gap" if bound_name == "opt" else "gap_vs_lower"] = _fmt(gap)
    report["aggregates"] = agg
    return 0


def _algorithm_b(args, report: dict) -> MonteCarloReport:
    """Seeded trials of algorithm B over GreedyCcp, one report row each."""
    graph, t = _load_graph(args)
    if not t:
        raise InputError("algorithm-b needs a copies parameter: add --t or a t line")
    mc = monte_carlo_verify(graph, GreedyCcp(), t, args.trials, args.seed, jobs=args.jobs)
    report["per_trial"] = [
        {"colors_b": cb, "colors_a": ca, "fails": fl}
        for cb, ca, fl in zip(mc.colors_b_per_trial, mc.colors_a_per_trial, mc.fails_per_trial)
    ]
    return mc


def _run_algorithm_b(args, report: dict) -> int:
    mc = _algorithm_b(args, report)
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


def _verify(args, report: dict) -> int:
    suite = run_verification_suite(max_n=args.max_n, samples=args.trials, seed=args.seed)
    d = report["suite"] = suite.to_dict()
    report["aggregates"] = {
        "passed": d["passed"],
        "checks": len(d["checks"]),
        "checks_failed": sum(not c["ok"] for c in d["checks"]),
        "instances": sum(c["instances"] for c in d["checks"]),
    }
    return 0 if suite.passed else 1


def _bench_first_fit(args, report: dict) -> int:
    per_trial = []
    if args.family == "gnp" and args.input is None:
        check_reduced_size(args.n or 0, args.t or 1)  # a missing --n fails the first draw
        instances = (
            _reduce(*_build_family(args, trial_seed(args.seed, i)))
            for i in range(args.trials or 1)
        )
    elif args.trials is not None:
        raise InputError("bench first-fit takes --trials only with --family gnp, "
                         "which draws a new graph per trial")
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
    mc = _algorithm_b(args, report)
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


# Each report command's body and the report flags it reads beside --seed
# and --format, with their defaults.
_RUNS = {
    "greedy": (_run_greedy, {"--max-n": 16}),
    "greedy-ccp": (_run_greedy_ccp, {"--max-n": 16}),
    "first-fit": (_run_first_fit, {"--max-items": 14}),
    "algorithm-b": (_run_algorithm_b, {"--trials": 1, "--jobs": 1}),
}
_BENCHES = {
    "first-fit": (_bench_first_fit, {"--trials": None, "--max-items": 14}),
    "algorithm-b": (_bench_algorithm_b, {"--trials": 100, "--jobs": 1}),
}
_VERIFY = (_verify, {"--trials": 50, "--max-n": 16})


# ---------------------------------------------------------------- arg parsing


def _int_at_least(minimum: int):
    """argparse type: an int no smaller than `minimum`."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid integer: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value
    return parse


def _seed_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=_int_at_least(0), default=0, help="master seed (default 0)")


# The report flags a command may read beside --seed and --format, each
# with its least value and help.
_COUNT_FLAGS = {
    "--trials": (1, "trial/sample count"),
    "--jobs": (1, "parallel workers for trials"),
    "--max-n": (0, "largest graph the exact coloring oracle may attempt"),
    "--max-items": (0, "largest instance the exact packing oracle may attempt"),
}


def _report_parser(sub, name: str, body, flags: dict, **kwargs) -> argparse.ArgumentParser:
    """The parser of a report command: --seed, --format and the report
    `flags` its body reads, with their defaults; it runs the body under
    _report."""
    p = sub.add_parser(name, **kwargs)
    _seed_flag(p)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    for flag, default in flags.items():
        least, text = _COUNT_FLAGS[flag]
        p.add_argument(flag, type=_int_at_least(least), default=default, help=text)
    p.set_defaults(func=functools.partial(_report, body))
    return p


def _family_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--k", type=int, default=None, help="crown half-size")
    p.add_argument("--p", type=float, default=0.5, help="gnp edge probability")
    p.add_argument("--t", type=_int_at_least(1), default=None, help="copies per vertex")


def _instance_parsers(sub, commands: dict) -> None:
    """One report parser per run algorithm or bench target, each also taking
    --input or --family and the family flags."""
    for name, (body, flags) in commands.items():
        p = _report_parser(sub, name, body, flags)
        p.add_argument("--input", help="instance file (graph, copies, or vbp)")
        p.add_argument("--family", choices=_FAMILIES, help="generated instance family")
        _family_flags(p)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="vbplab",
        description="Online coloring / vector bin packing reduction lab",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_gen = sub.add_parser("gen", help="write an instance file")
    p_gen.add_argument("family", choices=_FAMILIES)
    _seed_flag(p_gen)
    _family_flags(p_gen)
    p_gen.add_argument("-o", "--output", default=None, help="output file (default stdout)")
    p_gen.set_defaults(func=cmd_gen)

    p_red = sub.add_parser("reduce", help="graph/copies file -> vbp file")
    p_red.add_argument("input")
    p_red.add_argument("--t", type=_int_at_least(1), default=None, help="override copies per vertex")
    p_red.add_argument("-o", "--output", default=None)
    p_red.set_defaults(func=cmd_reduce)

    p_run = sub.add_parser("run", help="run one online algorithm")
    _instance_parsers(p_run.add_subparsers(dest="algorithm", required=True), _RUNS)
    _report_parser(sub, "verify", *_VERIFY, help="run the invariant suite")
    p_bench = sub.add_parser("bench", help="measurement harness")
    _instance_parsers(p_bench.add_subparsers(dest="target", required=True), _BENCHES)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
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
