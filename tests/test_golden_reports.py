"""Golden reports: every subcommand's stdout and exit code, byte for byte.

Each case runs `vbplab <argv>` from a directory holding the input files
below, so `config.input` echoes the same relative path on every machine.
Its file under tests/golden/ holds the command, the exit code and stdout
with the `wall_time_s` line taken out, the one field that may differ
between runs. CSV rows keep their CRLF endings, so .gitattributes marks
the files binary. A change that means to alter a report edits its file
in the same diff.
"""

import re
from pathlib import Path

import pytest

from vbplab.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

INPUTS = {
    "c5.g": "g 5 5\ne 1 2\ne 1 5\ne 2 3\ne 3 4\ne 4 5\n",
    "crown3.g": "g 6 6\ne 1 4\ne 1 6\ne 2 3\ne 2 5\ne 3 6\ne 4 5\n",
    "k3t2.g": "# K3 with two copies per vertex\ng 3 3\nt 2\ne 1 2\ne 1 3\ne 2 3\n",
    "basis.vbp": "vbp 3 3\n1 0 0\n0 1 0\n0 0 1\n",
    "c5.vbp": "vbp 5 5\n1 0 0 0 0\n1/5 1 0 0 0\n0 1/5 1 0 0\n0 0 1/5 1 0\n1/5 0 0 1/5 1\n",
}

GEN_SIZES = {
    "cycle": ("--n", "5"),
    "path": ("--n", "4"),
    "complete": ("--n", "4"),
    "empty": ("--n", "3"),
    "crown": ("--k", "3"),
    "gnp": ("--n", "7", "--p", "0.4", "--seed", "7"),
}

CASES = {
    **{f"gen-{fam}": ("gen", fam, *size) for fam, size in GEN_SIZES.items()},
    **{f"gen-{fam}-t": ("gen", fam, *size, "--t", "3") for fam, size in GEN_SIZES.items()},
    "gen-missing-n": ("gen", "cycle"),
    "reduce-graph": ("reduce", "c5.g"),
    "reduce-copies": ("reduce", "k3t2.g"),
    "reduce-graph-t": ("reduce", "c5.g", "--t", "2"),
    "reduce-copies-t": ("reduce", "k3t2.g", "--t", "1"),
    "run-greedy-family": ("run", "greedy", "--family", "crown", "--k", "4"),
    "run-greedy-file": ("run", "greedy", "--input", "crown3.g", "--trials", "2"),
    "run-greedy-csv": ("run", "greedy", "--input", "c5.g", "--format", "csv"),
    "run-greedy-ccp-family": ("run", "greedy-ccp", "--family", "complete", "--n", "2", "--t", "2"),
    "run-greedy-ccp-file": ("run", "greedy-ccp", "--input", "k3t2.g"),
    "run-greedy-ccp-csv": ("run", "greedy-ccp", "--input", "c5.g", "--t", "3", "--format", "csv"),
    "run-first-fit-family": ("run", "first-fit", "--family", "crown", "--k", "5"),
    "run-first-fit-graph": ("run", "first-fit", "--input", "crown3.g"),
    "run-first-fit-graph-t": ("run", "first-fit", "--input", "c5.g", "--t", "2"),
    "run-first-fit-copies": ("run", "first-fit", "--input", "k3t2.g"),
    "run-first-fit-vbp": ("run", "first-fit", "--input", "c5.vbp", "--trials", "3"),
    "run-first-fit-lower-bound": (
        "run", "first-fit", "--family", "crown", "--k", "5", "--max-items", "5",
    ),
    "run-first-fit-csv": ("run", "first-fit", "--input", "basis.vbp", "--format", "csv"),
    "run-first-fit-input-and-family": (
        "run", "first-fit", "--input", "c5.g", "--family", "cycle", "--n", "5",
    ),
    "run-algorithm-b-family": (
        "run", "algorithm-b", "--family", "cycle", "--n", "6", "--t", "8",
        "--trials", "5", "--seed", "3",
    ),
    "run-algorithm-b-file": ("run", "algorithm-b", "--input", "k3t2.g", "--trials", "3"),
    "run-algorithm-b-csv": (
        "run", "algorithm-b", "--family", "crown", "--k", "3", "--t", "16",
        "--trials", "6", "--seed", "2", "--format", "csv",
    ),
    "verify": ("verify", "--max-n", "3", "--trials", "5"),
    "verify-csv": ("verify", "--max-n", "4", "--trials", "8", "--seed", "2", "--format", "csv"),
    "bench-first-fit-gnp": (
        "bench", "first-fit", "--family", "gnp", "--n", "7", "--trials", "5", "--seed", "11",
    ),
    "bench-first-fit-gnp-t": (
        "bench", "first-fit", "--family", "gnp", "--n", "5", "--p", "0.3", "--t", "2",
        "--trials", "3", "--format", "csv",
    ),
    "bench-first-fit-vbp": ("bench", "first-fit", "--input", "basis.vbp"),
    "bench-first-fit-graph": ("bench", "first-fit", "--input", "k3t2.g", "--max-items", "4"),
    "bench-first-fit-crown-t": ("bench", "first-fit", "--family", "crown", "--k", "3", "--t", "2"),
    "bench-algorithm-b": (
        "bench", "algorithm-b", "--family", "crown", "--k", "4", "--t", "32",
        "--trials", "50", "--seed", "5",
    ),
    "bench-algorithm-b-csv": (
        "bench", "algorithm-b", "--input", "k3t2.g", "--t", "16", "--trials", "20",
        "--format", "csv",
    ),
}

WALL_TIME = re.compile(r',\n  "wall_time_s": [^\n]*')


def render(argv, capsys) -> str:
    """The command, its exit code and its stdout without wall_time_s."""
    code = main(list(argv))
    out = capsys.readouterr().out
    return f"$ vbplab {' '.join(argv)}\nexit {code}\n{WALL_TIME.sub('', out)}"


@pytest.fixture
def inputs_dir(tmp_path, monkeypatch):
    for name, text in INPUTS.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(inputs_dir, capsys, name):
    expected = (GOLDEN / f"{name}.txt").read_bytes().decode("utf-8")
    assert render(CASES[name], capsys) == expected


def test_every_golden_file_has_a_case():
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == sorted(CASES)
