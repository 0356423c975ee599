"""Backend parity: compiled and pure kernels must agree bit for bit."""

import os
import subprocess
import sys

import pytest

from vbplab import _exactcore_py, kernels
from vbplab.benchmark import _coloring_args, _packing_args
from vbplab.generators import gen_crown, gen_gnp
from vbplab.rng import trial_seed


def compiled_backend():
    return pytest.importorskip("vbplab._exactcore", reason="compiled extension not built")


def coloring_cases():
    for i in range(12):
        yield _coloring_args(gen_gnp(3 + i, 0.5, trial_seed(40000, i)))
    yield _coloring_args(gen_crown(5))


def packing_cases():
    for i in range(10):
        yield _packing_args(gen_gnp(3 + i, 0.5, trial_seed(41000, i)))


def test_chromatic_parity_with_witness():
    compiled = compiled_backend()
    for adj, lb, incumbent in coloring_cases():
        pure = _exactcore_py.chromatic_bnb(adj, lb, list(incumbent))
        fast = compiled.chromatic_bnb(adj, lb, list(incumbent))
        assert pure[0] == fast[0]
        assert list(pure[1]) == list(fast[1])  # identical search => identical witness


def test_packing_parity_with_witness():
    compiled = compiled_backend()
    for items, cap, lb, incumbent in packing_cases():
        pure = _exactcore_py.packing_bnb(items, cap, lb, list(incumbent))
        fast = compiled.packing_bnb(items, cap, lb, list(incumbent))
        assert pure[0] == fast[0]
        assert list(pure[1]) == list(fast[1])


@pytest.mark.skipif(
    os.environ.get("VBPLAB_PURE_PYTHON") == "1",
    reason="compiled backend disabled by override",
)
def test_selected_backend_is_compiled_here():
    compiled_backend()
    assert kernels.BACKEND == "cython"


def test_dispatch_falls_back_beyond_compiled_limits():
    # adjacency larger than the compiled color-count guard: pure twin answers
    n = 70
    adj = [[] for _ in range(n)]
    chi, colors = kernels.chromatic_bnb(adj, 1, [0] * n)
    assert chi == 1 and set(colors) == {0}

    # capacity beyond the compiled integer guard
    cap = 2**62
    items = [(cap,), (cap,)]
    bins, assign = kernels.packing_bnb(items, cap, 1, [0, 1])
    assert bins == 2 and sorted(assign) == [0, 1]


def test_env_override_selects_pure_backend():
    env = dict(os.environ, VBPLAB_PURE_PYTHON="1")
    out = subprocess.run(
        [sys.executable, "-c", "from vbplab.kernels import BACKEND; print(BACKEND)"],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    assert out.stdout.strip() == "pure-python"


def test_pure_backend_passes_an_oracle_spot_check():
    env = dict(os.environ, VBPLAB_PURE_PYTHON="1")
    code = (
        "from vbplab.generators import gen_cycle\n"
        "from vbplab.graphs import chromatic_number_exact\n"
        "from vbplab.reductions import reduce_graph\n"
        "from vbplab.vbp import opt_exact\n"
        "g = gen_cycle(5)\n"
        "assert chromatic_number_exact(g)[0] == 3\n"
        "assert opt_exact(reduce_graph(g))[0] == 3\n"
        "print('ok')\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert out.stdout.strip() == "ok"


def test_empty_inputs():
    assert kernels.chromatic_bnb([], 0, []) == (0, [])
    assert kernels.packing_bnb([], 1, 0, []) == (0, [])
