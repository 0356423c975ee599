#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarize each metric.

    python3 perfbench/summary.py --seeds 1-10
    python3 perfbench/summary.py --seeds 101 --workloads exact --trace 1

Reads the workloads, metrics and bounds from BENCHMARK.json and runs
perfbench/run.py once per workload and seed, one process at a time. For
each workload and metric it prints the median over the runs, the quartiles
as statistics.quantiles(values, n=4) gives them, and the spread: the
distance between the quartiles as a share of the median. A spread at or
above a third of the metric's bound is marked "wide"; the benchmark is
steady when none is. It also prints each workload's error rate and
whether every run reported correct outputs. Exits 1 if any run failed or
reported incorrect outputs.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import stats

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 900


def _seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=_seeds, default=_seeds("1-10"), help="e.g. 1-10 or 3,7")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    ok = True
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {m["name"]: [] for m in metrics}
        attempted = failed = 0
        correct = True
        for seed in args.seeds:
            cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                ok = correct = False
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            attempted += result["attempted"]
            failed += result["failed"]
            correct = correct and result["correct"]
            for name in values:
                values[name].append(result["metrics"][name]["value"])
        ok = ok and correct
        rate = stats.error_rate(failed, attempted) if attempted else float("nan")
        print(f"{workload}: {len(args.seeds)} seeds, correct={correct}, "
              f"error_rate {rate:.6g} ({failed} of {attempted})")
        for m in metrics:
            vals = values[m["name"]]
            if not vals:
                continue
            q1, mid, q3 = stats.quartiles(vals)
            line = f"  {m['name']:<44} {mid:>14.6g} {m['unit']:<6} q1 {q1:.6g}  q3 {q3:.6g}"
            if "bound" in m and mid != 0:
                spread = stats.relative_spread(vals)
                flag = "wide" if spread >= m["bound"] / 3 else "ok"
                line += f"  spread {spread:.4f} (bound {m['bound']}) {flag}"
                line += "\n    runs: " + " ".join(f"{v:.6g}" for v in vals)
            print(line, flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
