"""Self-tests of the benchmark's own arithmetic and tracing.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    # a [0,10] holds b [1,4] and c [5,9]; c holds d [6,7].
    spans = [
        ["a", 0.0, 10.0, -1, True],
        ["b", 1.0, 4.0, 0, True],
        ["c", 5.0, 9.0, 0, True],
        ["d", 6.0, 7.0, 2, True],
    ]
    out = tracing.self_times(spans)
    assert out == {"a": (1, 3.0), "b": (1, 3.0), "c": (1, 3.0), "d": (1, 1.0)}


def test_self_time_sums_calls_and_generator_resumptions():
    spans = [
        ["g", 0.0, 1.0, -1, True],    # first resumption is the call
        ["f", 1.0, 3.0, -1, True],
        ["g", 1.5, 2.0, 1, False],    # resumed inside f
        ["g", 3.0, 3.25, -1, False],
    ]
    out = tracing.self_times(spans)
    assert out["g"] == (1, 1.75)
    assert out["f"] == (1, 1.5)


def test_tracer_nests_spans_and_self_times_add_up():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    leaf = tracer.wrap("leaf", lambda: 1)

    def numbers():
        yield leaf()
        yield leaf()

    gen = tracer.wrap("gen", numbers)
    outer = tracer.wrap("outer", lambda: sum(gen()))
    assert outer() == 2
    assert [(s[0], s[3], s[4]) for s in tracer.spans] == [
        ("outer", -1, True),
        ("gen", 0, True),
        ("leaf", 1, True),
        ("gen", 0, False),
        ("leaf", 3, True),
        ("gen", 0, False),   # the resumption that ends the generator
    ]
    _, start, end, _, _ = tracer.spans[0]
    out = tracer.take()
    assert {name: calls for name, (calls, _) in out.items()} == {"outer": 1, "gen": 1, "leaf": 2}
    assert sum(self_s for _, self_s in out.values()) == end - start
    assert tracer.spans == []


def test_installed_replaces_every_binding_and_restores():
    import vbplab
    from vbplab import reductions, verify

    original = reductions.reduce_graph
    tracer = tracing.Tracer()
    with tracer.installed(["reductions.reduce_graph", "vbp.fits_together"]):
        assert reductions.reduce_graph is not original
        assert verify.reduce_graph is reductions.reduce_graph
        assert vbplab.reduce_graph is reductions.reduce_graph
        assert verify.check_subset_independence.__defaults__ == (reductions.reduce_graph,)
        result = verify.check_subset_independence([vbplab.gen_cycle(4)])
    assert result.ok
    out = tracer.take()
    assert out["reductions.reduce_graph"][0] == 1
    assert out["vbp.fits_together"][0] == 16
    assert reductions.reduce_graph is original and verify.reduce_graph is original
    assert verify.check_subset_independence.__defaults__ == (original,)


def test_quartiles_match_statistics_quantiles():
    values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0, 5.5, 3.5]
    q1, mid, q3 = stats.quartiles(values)
    assert [q1, mid, q3] == statistics.quantiles(values, n=4)
    assert stats.median(values) == 3.75
    assert stats.relative_spread(values) == pytest.approx((q3 - q1) / 3.75)
    assert stats.quartiles([2.0]) == (2.0, 2.0, 2.0)
    with pytest.raises(ValueError):
        stats.median([])


def test_error_rate():
    assert stats.error_rate(0, 8) == 0.0
    assert stats.error_rate(3, 12) == 0.25
    with pytest.raises(ValueError):
        stats.error_rate(0, 0)
    with pytest.raises(ValueError):
        stats.error_rate(5, 4)


def test_benchmark_json_names_the_metrics_the_run_prints():
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    layer = run.per_layer_units(tracing.TRACED, workloads.OUTPUT_COUNTS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layer
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
