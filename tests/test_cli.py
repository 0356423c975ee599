"""CLI: subcommands, formats, exit codes, byte determinism."""

import json
import os

import pytest

from vbplab import cli, generators, pool, reductions
from vbplab.cli import main
from vbplab.copies import GreedyCcp
from vbplab.generators import gen_cycle
from vbplab.graphs import events_from_graph


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strip_time(report_text: str) -> dict:
    d = json.loads(report_text)
    d.pop("wall_time_s", None)
    return d


# ----------------------------------------------------------------------- gen


def test_gen_cycle(capsys):
    code, out, _ = run_cli(capsys, "gen", "cycle", "--n", "5")
    assert code == 0
    assert out.startswith("g 5 5\n") and out.count("\ne ") == 5


def test_gen_crown_with_t(capsys):
    code, out, _ = run_cli(capsys, "gen", "crown", "--k", "3", "--t", "4")
    assert code == 0 and "\nt 4\n" in out


def test_gen_gnp_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "gen", "gnp", "--n", "6", "--p", "0.5", "--seed", "7")
    _, out2, _ = run_cli(capsys, "gen", "gnp", "--n", "6", "--p", "0.5", "--seed", "7")
    assert out1 == out2


def test_gen_gnp_refuses_oversized_n_before_building(capsys, monkeypatch):
    def no_pairs(*_):
        raise AssertionError("pairs built before the size check")

    monkeypatch.setattr(generators, "combinations", no_pairs)
    code, out, err = run_cli(capsys, "gen", "gnp", "--n", "100000")
    assert code == 3 and out == "" and "limited to 4096 vertices" in err


@pytest.mark.parametrize(
    "family, size, first_step",
    [
        ("complete", ("--n", "100000"), "combinations"),
        ("crown", ("--k", "50000"), "crown_vertex_ids"),
    ],
    ids=["complete", "crown"],
)
def test_gen_dense_family_refuses_oversized_n_before_building(
    capsys, monkeypatch, family, size, first_step
):
    def not_reached(*_):
        raise AssertionError("pairs built before the size check")

    monkeypatch.setattr(generators, first_step, not_reached)
    code, out, err = run_cli(capsys, "gen", family, *size)
    assert code == 3 and out == "" and "limited to 4096 vertices" in err


def test_gen_missing_param_exits_2(capsys):
    code, _, err = run_cli(capsys, "gen", "cycle")
    assert code == 2 and "requires --n" in err


def test_gen_bad_choice_exits_2(capsys):
    assert run_cli(capsys, "gen", "moebius", "--n", "5")[0] == 2


def test_gen_writes_file(tmp_path, capsys):
    path = tmp_path / "c5.graph"
    code, _, _ = run_cli(capsys, "gen", "cycle", "--n", "5", "-o", str(path))
    assert code == 0
    assert path.read_text().startswith("g 5 5\n")


# -------------------------------------------------------------------- reduce


def test_reduce_graph_file(tmp_path, capsys):
    path = tmp_path / "k3.graph"
    run_cli(capsys, "gen", "complete", "--n", "3", "-o", str(path))
    code, out, _ = run_cli(capsys, "reduce", str(path))
    assert code == 0
    assert out.splitlines()[0] == "vbp 3 3"
    assert out.splitlines()[1:] == ["1 0 0", "1/3 1 0", "1/3 1/3 1"]


def test_reduce_copies_file(tmp_path, capsys):
    path = tmp_path / "k2t2.graph"
    run_cli(capsys, "gen", "complete", "--n", "2", "--t", "2", "-o", str(path))
    code, out, _ = run_cli(capsys, "reduce", str(path))
    assert code == 0 and out.splitlines()[0] == "vbp 4 2"


def test_reduce_missing_file_exits_2(capsys):
    assert run_cli(capsys, "reduce", "/nonexistent/x.graph")[0] == 2


@pytest.mark.parametrize(
    "argv", [("reduce",), ("run", "first-fit", "--input"), ("bench", "first-fit", "--input")]
)
def test_reduction_size_limit_exits_3(tmp_path, monkeypatch, capsys, argv):
    graph = tmp_path / "k4.graph"
    run_cli(capsys, "gen", "complete", "--n", "4", "-o", str(graph))

    def no_items(*args):
        raise AssertionError("built an item above the size limit")

    monkeypatch.setattr(reductions, "MAX_REDUCED_COORDINATES", 15)  # K4 needs 16
    monkeypatch.setattr(reductions, "_reduced_vector", no_items)
    code, out, err = run_cli(capsys, *argv, str(graph))
    assert code == 3 and out == "" and "reduction limited" in err


def test_bench_gnp_checks_size_limit_before_generating(monkeypatch, capsys):
    def no_graph(*args):
        raise AssertionError("generated a graph above the size limit")

    monkeypatch.setattr(reductions, "MAX_REDUCED_COORDINATES", 15)  # n = 4 needs 16
    monkeypatch.setattr(cli, "gen_gnp", no_graph)
    code, out, err = run_cli(capsys, "bench", "first-fit", "--family", "gnp", "--n", "4")
    assert code == 3 and out == "" and "reduction limited" in err


# ----------------------------------------------------------------------- run


def test_run_greedy_crown(capsys):
    code, out, _ = run_cli(capsys, "run", "greedy", "--family", "crown", "--k", "4")
    assert code == 0
    agg = json.loads(out)["aggregates"]
    assert agg["colors"] == 4 and agg["chi"] == 2 and agg["gap"] == "2"


def test_run_first_fit_crown5(capsys):
    code, out, _ = run_cli(capsys, "run", "first-fit", "--family", "crown", "--k", "5")
    agg = json.loads(out)["aggregates"]
    assert code == 0 and (agg["bins"], agg["opt"], agg["gap"]) == (5, 2, "5/2")


def test_run_first_fit_on_vbp_file(tmp_path, capsys):
    graph = tmp_path / "g.graph"
    vbp = tmp_path / "inst.vbp"
    run_cli(capsys, "gen", "cycle", "--n", "5", "-o", str(graph))
    run_cli(capsys, "reduce", str(graph), "-o", str(vbp))
    code, out, _ = run_cli(capsys, "run", "first-fit", "--input", str(vbp))
    assert code == 0 and json.loads(out)["aggregates"]["bins"] == 3


def test_first_fit_lower_bound_branch_in_run_and_bench(capsys):
    # 10 items exceed --max-items 5, so the bound is the coordinate-sum one
    argv = ("first-fit", "--family", "crown", "--k", "5", "--max-items", "5")
    code, out, _ = run_cli(capsys, "run", *argv)
    assert code == 0
    assert json.loads(out)["aggregates"] == {
        "bins": 5, "d": 10, "items": 10, "lower_bound": 2, "gap_vs_lower": "5/2",
    }
    code, out, _ = run_cli(capsys, "bench", *argv)
    assert code == 0
    assert json.loads(out)["per_trial"] == [
        {"bins": 5, "items": 10, "lower_bound": 2, "gap": "5/2"}
    ]


def test_first_fit_empty_instance_has_opt_zero_and_no_gap(tmp_path, capsys):
    vbp = tmp_path / "empty.vbp"
    vbp.write_text("vbp 0 2\n")
    code, out, _ = run_cli(capsys, "run", "first-fit", "--input", str(vbp))
    assert code == 0
    assert json.loads(out)["aggregates"] == {
        "bins": 0, "d": 2, "items": 0, "opt": 0, "gap": None,
    }
    code, out, _ = run_cli(capsys, "bench", "first-fit", "--input", str(vbp))
    report = json.loads(out)
    assert code == 0
    assert report["per_trial"] == [{"bins": 0, "items": 0, "opt": 0, "gap": None}]
    assert report["aggregates"] == {"instances": 1}


@pytest.mark.parametrize("subcommand", ["run", "bench"])
def test_t_with_vbp_input_exits_2(tmp_path, capsys, subcommand):
    vbp = tmp_path / "basis.vbp"
    vbp.write_text("vbp 3 3\n1 0 0\n0 1 0\n0 0 1\n")
    code, out, err = run_cli(capsys, subcommand, "first-fit", "--input", str(vbp), "--t", "3")
    assert code == 2 and out == "" and "--t" in err and "vbp file" in err


@pytest.mark.parametrize("text", ["vbp 1 1\n1\n", "g 2 1\ne 1 2\n"], ids=["vbp-file", "graph-file"])
@pytest.mark.parametrize("subcommand", ["run", "bench"])
def test_first_fit_refuses_input_with_family(tmp_path, capsys, subcommand, text):
    path = tmp_path / "instance.txt"
    path.write_text(text)
    code, out, err = run_cli(
        capsys, subcommand, "first-fit", "--input", str(path), "--family", "cycle", "--n", "5"
    )
    assert code == 2 and out == "" and "not both" in err


def test_run_algorithm_b(capsys):
    code, out, _ = run_cli(
        capsys, "run", "algorithm-b", "--family", "cycle", "--n", "6",
        "--t", "8", "--trials", "5", "--seed", "3",
    )
    assert code == 0
    report = json.loads(out)
    assert len(report["per_trial"]) == 5
    assert report["aggregates"]["infeasible"] == 0


ALGORITHM_B_ARGS = ("--family", "crown", "--k", "4", "--t", "32", "--trials", "40", "--seed", "5")


def test_run_and_bench_algorithm_b_share_trials(capsys):
    _, run_out, _ = run_cli(capsys, "run", "algorithm-b", *ALGORITHM_B_ARGS)
    _, bench_out, _ = run_cli(capsys, "bench", "algorithm-b", *ALGORITHM_B_ARGS)
    run, bench = json.loads(run_out), json.loads(bench_out)
    assert run["per_trial"] == bench["per_trial"]
    shared = ("mean_colors_b", "mean_colors_a", "fail_rate", "p", "t", "n", "trials")
    assert [run["aggregates"][k] for k in shared] == [bench["aggregates"][k] for k in shared]


def test_run_algorithm_b_honours_jobs(monkeypatch, capsys, recording_executor):
    monkeypatch.setattr(pool, "MIN_US_PER_WORKER", 1)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    reports = []
    for jobs in ("1", "2"):
        code, out, _ = run_cli(capsys, "run", "algorithm-b", *ALGORITHM_B_ARGS, "--jobs", jobs)
        assert code == 0
        report = strip_time(out)
        assert report["config"].pop("jobs") == int(jobs)
        reports.append(report)
    assert reports[0] == reports[1]
    assert recording_executor == [2]


def test_algorithm_b_counts_infeasible_trials(monkeypatch, capsys):
    # B gives vertices 1, 3 and 6 of C6 a color of their own: 1 and 6 are
    # adjacent, and 3, which is adjacent to neither, joins the class between
    real = pool._pool_phase

    def clashing_pool_phase(trace, p, rng):
        size, picks = real(trace, p, rng)
        picks[0] = picks[2] = picks[5] = -1
        return size, picks

    monkeypatch.setattr(pool, "_pool_phase", clashing_pool_phase)
    g = gen_cycle(6)
    assert pool.monte_carlo_verify(g, GreedyCcp(), 8, 7, 3).infeasible_trials == 7
    assert not pool.run_algorithm_b(6, events_from_graph(g), GreedyCcp(), 8, 3)[1].feasible
    argv = ("--family", "cycle", "--n", "6", "--t", "8", "--trials", "7", "--seed", "3")
    code, out, _ = run_cli(capsys, "run", "algorithm-b", *argv)
    assert code == 1 and json.loads(out)["aggregates"]["infeasible"] == 7
    code, out, _ = run_cli(capsys, "bench", "algorithm-b", *argv)
    agg = json.loads(out)["aggregates"]
    assert code == 1 and agg["bound_holds"] and agg["invariant_ok"]


def test_run_algorithm_b_needs_t(capsys):
    code, _, err = run_cli(capsys, "run", "algorithm-b", "--family", "cycle", "--n", "5")
    assert code == 2 and "--t" in err


def test_run_greedy_ccp(capsys):
    code, out, _ = run_cli(
        capsys, "run", "greedy-ccp", "--family", "complete", "--n", "2", "--t", "2"
    )
    agg = json.loads(out)["aggregates"]
    assert code == 0 and agg["colors"] == 4 and agg["colors_over_t"] == "2"
    assert agg["chi_blowup"] == 4


def test_run_requires_instance(capsys):
    assert run_cli(capsys, "run", "greedy")[0] == 2


# -------------------------------------------------------------------- verify


def test_verify_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--max-n", "4", "--trials", "8")
    assert code == 0
    report = json.loads(out)
    assert report["aggregates"]["passed"] is True
    assert report["aggregates"]["checks_failed"] == 0
    names = {c["name"] for c in report["suite"]["checks"]}
    assert {"reduction-equivalence", "sandwich-chain", "first-fit-correspondence"} <= names


def test_verify_csv(capsys):
    code, out, _ = run_cli(capsys, "verify", "--max-n", "3", "--trials", "5", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split(",") == ["checks", "checks_failed", "instances", "passed"]
    assert lines[1].endswith("True")


# --------------------------------------------------------------------- bench


def test_bench_first_fit_gnp(capsys):
    code, out, _ = run_cli(
        capsys, "bench", "first-fit", "--family", "gnp", "--n", "7",
        "--trials", "5", "--seed", "11",
    )
    assert code == 0
    report = json.loads(out)
    assert len(report["per_trial"]) == 5
    assert "mean_gap" in report["aggregates"]


def test_bench_first_fit_basis_gap_one(tmp_path, capsys):
    vbp = tmp_path / "basis.vbp"
    vbp.write_text("vbp 3 3\n1 0 0\n0 1 0\n0 0 1\n")
    code, out, _ = run_cli(capsys, "bench", "first-fit", "--input", str(vbp))
    agg = json.loads(out)["aggregates"]
    assert code == 0 and agg["mean_gap"] == "1"


def test_bench_algorithm_b(capsys):
    code, out, _ = run_cli(
        capsys, "bench", "algorithm-b", "--family", "crown", "--k", "4",
        "--t", "32", "--trials", "50", "--seed", "5",
    )
    assert code == 0
    agg = json.loads(out)["aggregates"]
    assert agg["bound_holds"] and agg["invariant_ok"]
    assert agg["fail_rate"] <= 2 / 8


def test_bench_byte_determinism(capsys):
    argv = [
        "bench", "first-fit", "--family", "gnp", "--n", "6",
        "--trials", "4", "--seed", "9",
    ]
    _, out1, _ = run_cli(capsys, *argv)
    _, out2, _ = run_cli(capsys, *argv)
    # byte-identical after dropping the wall-time field
    assert json.dumps(strip_time(out1), sort_keys=True) == json.dumps(
        strip_time(out2), sort_keys=True
    )


def test_run_byte_determinism(capsys):
    argv = ["run", "algorithm-b", "--family", "crown", "--k", "3", "--t", "16",
            "--trials", "6", "--seed", "2"]
    _, out1, _ = run_cli(capsys, *argv)
    _, out2, _ = run_cli(capsys, *argv)
    assert strip_time(out1) == strip_time(out2)


# ----------------------------------------------------------------- exit codes


def test_no_subcommand_exits_2(capsys):
    assert main([]) == 2


@pytest.fixture
def no_work(monkeypatch):
    """Every way into real work raises, so a test sees the argument checks only."""
    def refuse(*args, **kwargs):
        raise AssertionError("ran despite a bad argument")

    for name in ("monte_carlo_verify", "_build_family", "_read_text", "run_verification_suite"):
        monkeypatch.setattr(cli, name, refuse)


@pytest.mark.parametrize(
    "argv",
    [
        ("run", "algorithm-b", "--family", "cycle", "--n", "5", "--t", "4", "--trials", "0"),
        ("run", "algorithm-b", "--family", "cycle", "--n", "5", "--t", "4", "--trials", "-3"),
        ("bench", "algorithm-b", "--family", "crown", "--k", "3", "--t", "4", "--jobs", "0"),
        ("gen", "cycle", "--n", "5", "--t", "-3"),
        ("reduce", "in.graph", "--t", "0"),
        ("run", "greedy-ccp", "--family", "cycle", "--n", "5", "--t", "0"),
    ],
)
def test_non_positive_counts_exit_2_before_any_work(no_work, capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == "" and "must be at least 1" in err


@pytest.mark.parametrize("algorithm", ["greedy", "greedy-ccp", "first-fit"])
def test_trials_on_a_deterministic_run_exits_2_before_any_work(no_work, capsys, algorithm):
    # one run of a deterministic algorithm is every run: --trials would
    # only repeat its row
    argv = ("run", algorithm, "--family", "cycle", "--n", "5", "--t", "2", "--trials", "3")
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == "" and f"{algorithm} is deterministic" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("--input", "c5.g"),
        ("--input", "c5.vbp"),
        ("--family", "crown", "--k", "3"),
        ("--family", "cycle", "--n", "5", "--t", "2"),
    ],
    ids=["graph-file", "vbp-file", "crown", "cycle-t"],
)
def test_bench_first_fit_trials_without_gnp_exits_2_before_any_work(no_work, capsys, argv):
    # only gnp draws a new instance per trial; any other instance would
    # be packed once whatever --trials says
    code, out, err = run_cli(capsys, "bench", "first-fit", *argv, "--trials", "4")
    assert code == 2 and out == "" and "only with --family gnp" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("gen", "gnp", "--n", "5", "--seed", "-1"),
        ("run", "algorithm-b", "--family", "cycle", "--n", "5", "--t", "2", "--seed", "-3"),
        ("verify", "--seed", "-1"),
        ("bench", "first-fit", "--family", "gnp", "--n", "5", "--seed", "-2"),
    ],
    ids=["gen", "run", "verify", "bench"],
)
def test_negative_seed_exits_2_before_any_work(no_work, capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == "" and "must be at least 0" in err


@pytest.mark.parametrize("flag", ["--max-n", "--max-items"])
@pytest.mark.parametrize(
    "argv",
    [
        ("run", "greedy", "--family", "cycle", "--n", "5"),
        ("run", "first-fit", "--family", "cycle", "--n", "5"),
        ("verify",),
    ],
    ids=["run-greedy", "run-first-fit", "verify"],
)
def test_negative_size_limit_exits_2_before_any_work(no_work, capsys, argv, flag):
    code, out, err = run_cli(capsys, *argv, flag, "-1")
    assert code == 2 and out == "" and "must be at least 0" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("gen", "cycle", "--n", "5", "--jobs", "2"),
        ("gen", "cycle", "--n", "5", "--format", "csv"),
        ("reduce", "f.g", "--trials", "3"),
        ("reduce", "f.g", "--max-items", "3"),
        ("reduce", "f.g", "--seed", "1"),
    ],
    ids=["gen-jobs", "gen-format", "reduce-trials", "reduce-max-items", "reduce-seed"],
)
def test_flags_a_subcommand_does_not_read_exit_2(no_work, capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == "" and "unrecognized arguments" in err


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    out = capsys.readouterr().out
    assert "vbplab" in out
