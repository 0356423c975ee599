"""The benchmark's workloads on seed 1: every check passes and the output
digests match the ones the benchmark records, so a change to what a
packing, a verify report or a pool run holds cannot silently break the
benchmark's reads of it."""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
SEED_1_DIGESTS = {
    "verify": "b5f5995cf3279907",
    "exact": "53f6d11a399c5bae",
    "first-fit": "799ebf6c70af064f",
    "algorithm-b": "faca5a1b0c3dfe50",
    "algorithm-b-runs": "863e78c103ca04eb",
}


@pytest.fixture(scope="module")
def workloads():
    name = "perfbench_workloads"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, WORKLOADS_PY)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module  # @dataclass looks its module up while building a class
        spec.loader.exec_module(module)
    return sys.modules[name]


@pytest.mark.parametrize("name", sorted(SEED_1_DIGESTS))
def test_seed_1_pass_matches_recorded_digest(workloads, name, tmp_path):
    workload = workloads.WORKLOADS[name]
    result = workload.run_pass(workload.setup(1, str(tmp_path)))
    assert result.failed == 0 and result.attempted > 0
    assert result.digest == SEED_1_DIGESTS[name]
