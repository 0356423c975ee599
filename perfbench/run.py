#!/usr/bin/env python3
"""Run one benchmark workload on one seed and print its metrics.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the program is imported from ./src. With
--trace 0 the run times several fresh-process set-ups, then repeats passes
over the seeded input for --seconds (at least three) and reports the
end-to-end metrics. With --trace 1 it repeats untraced passes, then traced
passes for another --seconds, and reports per-layer call counts and self
times instead. Before the last line it prints the environment, the
deterministic counters and a human-readable summary; the last line is one
JSON object with the keys correct, attempted, failed and metrics.

Outputs are checked in every pass, and the counters must repeat exactly
across passes, between traced and untraced passes, and across runs of the
same source tree and seed (recorded under .perfbench/counters).
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
SETUP_REPEATS = 5
MIN_PASSES = 3
SETUP_TIMEOUT_S = 120

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB", "ops_per_s": "1/s"}


def per_layer_units(traced, output_counts) -> dict[str, str]:
    units = {}
    for name in traced:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update(dict.fromkeys(output_counts, "count"))
    units["trace_overhead_s"] = "s"
    return units


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="build the inputs and exit; the run times this in fresh processes")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if args.seconds <= 0:
        ap.error("--seconds must be > 0")
    return args


def _import_program():
    """Import vbplab from ./src, never from anywhere else."""
    if not (SRC / "vbplab" / "__init__.py").is_file():
        raise SystemExit(f"error: {SRC / 'vbplab'} not found; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import vbplab

    if Path(vbplab.__file__).resolve().parent != (SRC / "vbplab").resolve():
        raise SystemExit(f"error: imported vbplab from {vbplab.__file__}, not from {SRC}")
    return vbplab


def _time_setups(args) -> list[float]:
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
            "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(argv, cwd=ROOT, check=True, timeout=SETUP_TIMEOUT_S,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return times


def _measure(workload, inputs, seconds, tracer=None):
    """Passes over the inputs for `seconds` (at least MIN_PASSES).

    Returns (pass wall times, pass results, per-pass self times or None).
    """
    walls, results, layers = [], [], []
    begin = time.perf_counter()
    while len(walls) < MIN_PASSES or time.perf_counter() - begin < seconds:
        start = time.perf_counter()
        result = workload.run_pass(inputs)
        walls.append(time.perf_counter() - start)
        results.append(result)
        if tracer is not None:
            layers.append(tracer.take())
    return walls, results, (layers if tracer is not None else None)


def _source_digest() -> str:
    """Digest of the program's and the benchmark's Python sources."""
    h = hashlib.sha256()
    files = [*(SRC / "vbplab").rglob("*.py"), *Path(__file__).resolve().parent.glob("*.py")]
    for path in sorted(files):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _check_against_record(workload: str, seed: int, counters: dict) -> list[str]:
    """Compare with the counters an earlier run of the same sources and seed
    recorded, then record the union."""
    folder = STATE / "counters"
    folder.mkdir(parents=True, exist_ok=True)
    path = folder / f"{_source_digest()}-{workload}-{seed}.json"
    recorded = json.loads(path.read_text()) if path.exists() else {}
    problems = [
        f"{key} differs from an earlier run with the same source and seed"
        for key in sorted(set(recorded) & set(counters))
        if recorded[key] != counters[key]
    ]
    if not problems:
        fd, tmp = tempfile.mkstemp(dir=folder, suffix=".tmp")
        with os.fdopen(fd, "w") as fh:
            json.dump({**recorded, **counters}, fh, sort_keys=True)
        os.replace(tmp, path)
    return problems


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def _environment(vbplab, args, load_start) -> dict:
    import numpy

    try:
        importlib.import_module("vbplab._exactcore")
        exactcore = True
    except ImportError:
        exactcore = False
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "backend": vbplab.kernels.BACKEND,
        "exactcore_imports": exactcore,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": [round(x, 2) for x in load_start],
        "loadavg_end": [round(x, 2) for x in os.getloadavg()],
        "commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _consistency(results, layers) -> list[str]:
    problems = []
    first = results[0]
    for i, r in enumerate(results[1:], 2):
        if (r.digest, r.counts) != (first.digest, first.counts):
            problems.append(f"pass {i} outputs differ from pass 1")
    if layers:
        calls = [{name: c for name, (c, _) in layer.items()} for layer in layers]
        for i, c in enumerate(calls[1:], 2):
            if c != calls[0]:
                problems.append(f"traced pass {i} call counts differ from traced pass 1")
    return problems


def main(argv=None) -> int:
    args = _parse_args(argv)
    load_start = os.getloadavg()
    vbplab = _import_program()
    import stats
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]

    (STATE / "tmp").mkdir(parents=True, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=STATE / "tmp")
    try:
        if args.setup_only:
            workload.setup(args.seed, workdir)
            return 0
        setup_times = [] if args.trace else _time_setups(args)
        inputs = workload.setup(args.seed, workdir)
        walls, results, _ = _measure(workload, inputs, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        layers = None
        if args.trace:
            tracer = tracing.Tracer()
            with tracer.installed():
                traced_walls, traced_results, layers = _measure(
                    workload, inputs, args.seconds, tracer)
            results = results + traced_results
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    problems = _consistency(results, layers)
    counters = {"digest": results[0].digest, "outputs": results[0].counts}
    if layers:
        counters["calls"] = {name: layers[0].get(name, (0, 0.0))[0] for name in tracing.TRACED}
    problems += _check_against_record(args.workload, args.seed, counters)

    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    wall_s = stats.median(walls)
    env = _environment(vbplab, args, load_start)

    if args.trace:
        metrics = {}
        for name in tracing.TRACED:
            metrics[f"{name}.calls"] = counters["calls"][name]
            metrics[f"{name}.self_s"] = stats.median(
                [layer.get(name, (0, 0.0))[1] for layer in layers])
        metrics.update(results[0].counts)
        metrics["trace_overhead_s"] = stats.median(traced_walls) - wall_s
        units = per_layer_units(tracing.TRACED, workloads.OUTPUT_COUNTS)
    else:
        metrics = {
            "wall_s": wall_s,
            "setup_s": stats.median(setup_times),
            "peak_rss_mb": peak_rss_mb,
            "ops_per_s": results[0].attempted / wall_s,
        }
        units = END_TO_END_UNITS

    print("env " + json.dumps(env, sort_keys=True))
    print("counters " + json.dumps(counters, sort_keys=True))
    q1, _, q3 = stats.quartiles(walls)
    print(f"wall_s {wall_s:.6f} s, median of {len(walls)} untraced passes (q1 {q1:.6f}, q3 {q3:.6f})")
    if args.trace:
        top = sorted(tracing.TRACED, key=lambda n: -metrics[f"{n}.self_s"])[:5]
        print("largest self times: " + ", ".join(f"{n} {metrics[n + '.self_s']:.4f} s" for n in top))
    else:
        print(f"setup_s {metrics['setup_s']:.6f} s, median of {len(setup_times)} fresh-process set-ups")
        print(f"peak_rss_mb {peak_rss_mb:.1f} MiB")
        print(f"ops_per_s {metrics['ops_per_s']:.3f} 1/s ({results[0].attempted} operations per pass)")
    print(f"error_rate {stats.error_rate(failed, attempted):.6g} ({failed} of {attempted} operations failed)")
    for problem in problems:
        print(f"inconsistent: {problem}", file=sys.stderr)

    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
