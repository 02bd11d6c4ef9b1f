import argparse
import dataclasses
import gc
import json
import subprocess
import sys
import time
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

import patrolgame.cli
import patrolgame.errors
import patrolgame.graphs as graphs
import patrolgame.oracles
import patrolgame.synthesis
from patrolgame import (InvalidSpec, PatrolGameError, SearchSpaceExceeded, Unsupported,
                        allocate, capture_probability, generic_capture_bound)
from patrolgame.allocation import complete_split
from patrolgame.cli import (
    ADJACENCY_LIMIT,
    RECURSION_STEP_LIMIT,
    WALK_WORK_LIMIT,
    build_parser,
    main,
)
from patrolgame.markov import WALK_STEP_WALKERS

pytestmark = pytest.mark.usefixtures("capsys")


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- solve ------------------------------------------------------------------

def test_solve_star(capsys):
    code, out, _ = run_cli(capsys, ["solve", "--family", "star", "--n", "3", "--tau", "2,2,2"])
    assert code == 0
    payload = json.loads(out)
    assert payload["mu"] == pytest.approx(0.5, abs=1e-9)
    assert payload["optimality"] == "optimal"


def test_solve_complete(capsys):
    code, out, _ = run_cli(capsys, ["solve", "--family", "complete", "--n", "3", "--tau", "2,2,2"])
    assert code == 0
    assert json.loads(out)["mu"] == pytest.approx(5 / 9, abs=1e-9)


def test_solve_emit_cdf_runs_the_recursion_once(capsys, monkeypatch):
    calls = []

    def counted(P, tau):
        calls.append(1)
        return capture_probability(P, tau)

    monkeypatch.setattr(patrolgame.cli, "capture_probability", counted)
    code, out, _ = run_cli(capsys, ["solve", "--family", "star", "--n", "4",
                                    "--tau", "3,2,4,5", "--emit-cdf"])
    assert code == 0
    payload = json.loads(out)
    assert len(calls) == 1
    assert min(map(min, payload["cdf"])) == pytest.approx(payload["mu"], abs=1e-9)


def test_solve_general_unsupported(capsys):
    code, _, err = run_cli(capsys, ["solve", "--family", "general"])
    assert code == 3
    assert err


def test_solve_infeasible_reports_on_stderr(capsys):
    code, out, err = run_cli(capsys, ["solve", "--family", "star", "--n", "3", "--tau", "2,1,2"])
    assert code == 2
    assert out == ""
    report = json.loads(err)
    assert report["condition1_violations"] == [2]
    assert report["nontrivial"] is False


@pytest.mark.parametrize("command", ["solve", "simulate"])
def test_trivial_game_prints_the_feasibility_report(capsys, command):
    # every duration reaches the length-4 tour of the 2+2 graph, so the
    # tour intercepts every attack and no strategy is synthesized
    code, out, err = run_cli(capsys, [command, "--family", "bipartite", "--np", "2",
                                      "--nq", "2", "--tau", "4,4,4,4"])
    assert (code, out) == (2, "")
    report = json.loads(err)
    assert report["nontrivial"] is False and report["condition1_violations"] == []
    assert report["notes"] == "trivial game: a length-4 tour intercepts every attack"


def test_solve_infeasible_center_duration(capsys):
    # the center is one hop from every leaf but needs two steps to return,
    # so the feasibility report refuses it before any synthesis
    code, _, err = run_cli(capsys, ["solve", "--family", "star", "--n", "3", "--tau", "1,2,2"])
    assert code == 2
    report = json.loads(err)
    assert report["nontrivial"] is False
    assert report["condition1_violations"] == [1]


def test_solve_roundtrip_through_capture_probability(capsys):
    code, out, _ = run_cli(capsys, [
        "solve", "--family", "bipartite", "--np", "3", "--nq", "2",
        "--tau", "6,4,4,4,2", "--emit-cdf"])
    assert code == 0
    payload = json.loads(out)
    P = np.array(payload["P"])
    report = capture_probability(P, [6, 4, 4, 4, 2])
    assert report.mu == pytest.approx(payload["mu"], abs=1e-9)
    assert payload["cdf"] and payload["worst_pair"]
    assert np.array(payload["cdf"]).shape == (5, 5)


def test_solve_deterministic_output(capsys):
    argv = ["solve", "--family", "complete", "--n", "4", "--tau", "3,2,4,2"]
    _, out1, _ = run_cli(capsys, argv)
    _, out2, _ = run_cli(capsys, argv)
    assert out1 == out2


def test_a_warmed_solve_leaves_no_garbage_for_the_cycle_collector(capsys):
    # a long-lived caller's memory must not wait on the cyclic collector:
    # the default parser is built once, and a call leaves no cycle behind
    argv = ["solve", "--family", "complete", "--n", "12",
            "--tau", "4,5,6,7,8,9,10,11,4,5,6,7", "--emit-cdf"]
    run_cli(capsys, argv)
    gc.collect()
    assert run_cli(capsys, argv)[0] == 0
    assert gc.collect() == 0


@pytest.mark.parametrize("argv, code", [
    (["solve", "--config", "{config}"], 0),
    (["allocate", "--family", "bipartite", "--np", "3", "--nq", "2", "--B", "14",
      "--compare-uniform"], 0),
    (["simulate", "--family", "complete", "--n", "3", "--tau", "2,3,3", "--trials", "100"], 0),
    (["sweep", "--family", "bipartite", "--np", "2..3", "--nq", "2", "--tau", "2..4"], 0),
    (["verify", "--suite", "bounds", "--out", "{out}"], 0),
    (["verify", "--suite", "alloc-oracle", "--nmax", "3", "--out", "{out}"], 0),
    (["verify", "--suite", "montecarlo", "--trials", "100", "--out", "{out}"], 0),
    (["solve", "--config", "{config}", "--np", "2"], 2),
    (["solve", "--family", "star", "--n", "3", "--tau", "1,2,2"], 2),
], ids=["solve-config", "allocate-uniform", "simulate", "sweep", "verify-bounds",
        "verify-alloc-oracle", "verify-montecarlo", "refused-config", "refused-feasibility"])
def test_a_warmed_command_leaves_no_garbage_for_the_cycle_collector(capsys, tmp_path, argv, code):
    # a scenario fills the flags of the command line's one parse: no second
    # parser is built, so none is left in its reference cycles
    config = _scenario(tmp_path, family="complete", n=3, tau=[2, 3, 3], emit_cdf=True)
    argv = [arg.format(config=config, out=tmp_path / "checks.json") for arg in argv]
    run_cli(capsys, argv)
    gc.collect()
    assert run_cli(capsys, argv)[0] == code
    assert gc.collect() == 0


# --- allocate ---------------------------------------------------------------

def test_allocate_complete(capsys):
    code, out, _ = run_cli(capsys, ["allocate", "--family", "complete", "--n", "3", "--B", "7"])
    assert code == 0
    payload = json.loads(out)
    assert payload["tau"] == [3, 2, 2]
    assert payload["B"] == 7


def test_allocate_bipartite_compare_uniform(capsys):
    code, out, _ = run_cli(capsys, [
        "allocate", "--family", "bipartite", "--np", "3", "--nq", "2",
        "--B", "20", "--compare-uniform"])
    assert code == 0
    payload = json.loads(out)
    assert payload["B_p"] == 14 and payload["B_q"] == 6
    assert sorted(payload["tau_p"], reverse=True) == [6, 4, 4]
    assert sorted(payload["tau_q"], reverse=True) == [4, 2]
    assert payload["uniform"]["tau"] == [4, 4, 4, 4, 4]
    assert payload["mu_delta"] == pytest.approx(0.0452, abs=5e-4)


def _recursion_off_by(offset, when=lambda tau: True):
    """capture_probability, with its mu moved by `offset` where `when(tau)`."""
    def shifted(P, tau):
        report = capture_probability(P, tau)
        return dataclasses.replace(report, mu=report.mu + offset) if when(tau) else report
    return shifted


ALLOCATE_UNIFORM = ["allocate", "--family", "bipartite", "--np", "3", "--nq", "2",
                    "--B", "20", "--compare-uniform"]


def test_allocate_checks_each_printed_strategy_against_the_recursion(capsys, monkeypatch):
    seen = []

    def recording(P, tau):
        seen.append(tuple(tau))
        return capture_probability(P, tau)

    monkeypatch.setattr(patrolgame.cli, "capture_probability", recording)
    assert run_cli(capsys, ALLOCATE_UNIFORM)[0] == 0
    assert seen == [(6, 4, 4, 4, 2), (4, 4, 4, 4, 4)]


@pytest.mark.parametrize("when", [lambda tau: True, lambda tau: len(set(tau)) == 1],
                         ids=["allocation", "uniform"])
def test_allocate_fails_when_a_printed_mu_disagrees_with_the_recursion(capsys, monkeypatch,
                                                                        when):
    monkeypatch.setattr(patrolgame.cli, "capture_probability", _recursion_off_by(2e-10, when))
    code, out, err = run_cli(capsys, ALLOCATE_UNIFORM)
    assert (code, out) == (1, "")
    assert err.startswith("error: closed form ") and err.count("\n") == 1


@pytest.mark.parametrize("offset, code", [(5e-11, 0), (-5e-11, 0), (2e-10, 1), (-2e-10, 1)])
def test_the_closed_form_check_holds_at_1e_10(capsys, monkeypatch, offset, code):
    # the largest gap measured over the CLI's range is 1.3e-11
    monkeypatch.setattr(patrolgame.cli, "capture_probability", _recursion_off_by(offset))
    for argv in (["solve", "--family", "star", "--n", "3", "--tau", "2,2,2"],
                 ["allocate", "--family", "complete", "--n", "3", "--B", "7"]):
        assert run_cli(capsys, argv)[0] == code


def test_allocate_parity_error(capsys):
    code, _, err = run_cli(capsys, ["allocate", "--family", "bipartite",
                                    "--np", "2", "--nq", "2", "--B", "11"])
    assert code == 2
    assert "even" in err


def test_allocate_star_unsupported(capsys):
    code, out, err = run_cli(capsys, ["allocate", "--family", "star", "--n", "3", "--B", "7"])
    assert code == 3
    assert out == ""
    assert "star allocation is unsupported" in err


@pytest.mark.parametrize("argv, message", [
    (["allocate", "--family", "star", "--B", "7"], "star allocation needs --n and --B"),
    (["solve", "--family", "bipartite", "--np", "2", "--tau", "2,2,2"],
     "bipartite solve needs --np and --nq"),
    (["simulate", "--family", "bipartite", "--nq", "2", "--tau", "2,2,2"],
     "bipartite simulate needs --np and --nq"),
    # a size flag of another family is refused, not ignored
    (["solve", "--family", "complete", "--n", "3", "--tau", "2,2,2", "--np", "5"],
     "complete solve does not read --np"),
    (["allocate", "--family", "bipartite", "--np", "2", "--nq", "2", "--n", "9", "--B", "12"],
     "bipartite allocation does not read --n"),
    (["sweep", "--family", "star", "--n", "3", "--nq", "2", "--tau", "2"],
     "star sweep does not read --nq"),
])
def test_missing_size_names_the_command_and_its_flags(capsys, argv, message):
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_scenario_size_of_another_family_is_refused(capsys, tmp_path):
    config = _scenario(tmp_path, family="complete", n=3, np=5, tau=[2, 2, 2])
    assert run_cli(capsys, ["solve", "--config", config]) == (
        2, "", "error: complete solve does not read --np\n")


def test_allocate_range_error(capsys):
    code, _, _ = run_cli(capsys, ["allocate", "--family", "complete", "--n", "3", "--B", "9"])
    assert code == 2
    # two one-node sides leave no budget range: every split captures every attack
    code, out, err = run_cli(capsys, ["allocate", "--family", "bipartite",
                                      "--np", "1", "--nq", "1", "--B", "6"])
    assert (code, out) == (2, "")
    assert err == "error: sides (1, 1): two one-node sides capture every attack at any split\n"


def test_solve_duration_length_mismatch(capsys):
    code, _, err = run_cli(capsys, ["solve", "--family", "bipartite", "--np", "3",
                                    "--nq", "2", "--tau", "4,4"])
    assert code == 2
    assert "durations" in err or "expected" in err


# --- simulate ----------------------------------------------------------------

def test_simulate_deterministic(capsys):
    argv = ["simulate", "--family", "complete", "--n", "3", "--tau", "2,2,2",
            "--trials", "3000", "--seed", "11"]
    code, out1, _ = run_cli(capsys, argv)
    assert code == 0
    _, out2, _ = run_cli(capsys, argv)
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["overall"] == pytest.approx(payload["mu_exact"], abs=0.05)


@pytest.mark.parametrize("alias, seed", [("-1", str((1 << 64) - 1)), (str((1 << 64) + 5), "5")])
def test_a_seed_outside_64_bits_is_refused_not_wrapped(capsys, alias, seed):
    # masked to 64 bits, the alias would print its partner's estimates
    argv = ["simulate", "--family", "complete", "--n", "3", "--tau", "2,2,2", "--trials", "500"]
    code, out, _ = run_cli(capsys, argv + ["--seed", seed])
    assert code == 0 and json.loads(out)["seed"] == int(seed)
    assert run_cli(capsys, argv + ["--seed", alias]) == (
        2, "", f"error: seed and stream index must lie in [0, 2**64), got {alias} and 0\n")


@pytest.mark.parametrize("seed", [-1, 1 << 64])
def test_a_bounds_suite_seed_outside_64_bits_is_refused(capsys, seed):
    code, out, err = run_cli(capsys, ["verify", "--suite", "bounds", "--seed", str(seed)])
    assert (code, out) == (2, "") and err.startswith("error: seed and stream index must lie")


def test_a_montecarlo_suite_past_64_bits_is_refused_before_any_walk(capsys, monkeypatch):
    # instance 19 would walk on seed + 19
    monkeypatch.setattr(patrolgame.oracles, "simulate_capture", _must_not_run)
    argv = ["verify", "--suite", "montecarlo", "--seed", str((1 << 64) - 1)]
    assert run_cli(capsys, argv) == (
        2, "", "error: seed must lie in [0, 2**64 - 20], got 18446744073709551615\n")


# --- verify --------------------------------------------------------------------

def test_verify_alloc_oracle(capsys):
    code, out, _ = run_cli(capsys, ["verify", "--suite", "alloc-oracle", "--nmax", "4"])
    assert code == 0
    assert out.strip().startswith("PASS")


def test_verify_montecarlo(capsys):
    code, out, _ = run_cli(capsys, ["verify", "--suite", "montecarlo",
                                    "--trials", "40000", "--seed", "1"])
    assert code == 0
    assert out.strip().startswith("PASS")


def test_verify_montecarlo_fails_a_simulator_one_step_short(capsys, monkeypatch):
    real = patrolgame.oracles.simulate_capture
    monkeypatch.setattr(patrolgame.oracles, "simulate_capture",
                        lambda P, tau, trials, seed: real(P, [t - 1 for t in tau], trials, seed))
    code, out, err = run_cli(capsys, ["verify", "--suite", "montecarlo",
                                      "--trials", "2000", "--seed", "1"])
    assert code == 1
    assert out == "FAIL 0/20\n"
    lines = err.splitlines()
    assert len(lines) == 20 and all(line.startswith("FAIL montecarlo[") for line in lines)


def test_verify_writes_report_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, ["verify", "--suite", "alloc-oracle", "--nmax", "2",
                                    "--out", str(target)])
    assert code == 0
    rows = json.loads(target.read_text())
    assert rows and all(set(r) == {"instance", "expected", "actual", "pass"} for r in rows)


# --- sweep ----------------------------------------------------------------------

def test_sweep_complete_closed_form(capsys):
    code, out, _ = run_cli(capsys, ["sweep", "--family", "complete",
                                    "--n", "3..6", "--tau", "2..6"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "family,n,n_p,n_q,tau,B,mu,w,bound,ratio"
    assert len(lines) == 1 + 4 * 5
    for line in lines[1:]:
        parts = line.split(",")
        n, tau, mu, ratio = int(parts[1]), int(parts[4]), float(parts[6]), float(parts[9])
        assert mu == pytest.approx(1 - (1 - 1 / n) ** tau, abs=1e-9)
        assert ratio <= 1 + 1e-9


def test_sweep_rows_are_stably_ordered(capsys):
    argv = ["sweep", "--family", "bipartite", "--np", "2..3", "--nq", "2", "--tau", "2..3"]
    _, out1, _ = run_cli(capsys, argv)
    _, out2, _ = run_cli(capsys, argv)
    assert out1 == out2


def test_sweep_empty_grid(capsys):
    code, out, _ = run_cli(capsys, ["sweep", "--family", "complete", "--n", "3", "--tau", "6..2"])
    assert code == 0
    assert out.strip() == "family,n,n_p,n_q,tau,B,mu,w,bound,ratio"


def test_sweep_without_points_builds_no_graph(capsys, monkeypatch):
    built = []
    monkeypatch.setattr(patrolgame.cli, "build_graph", built.append)
    argv = ["sweep", "--family", "complete", "--n", "1..1000000000000", "--tau", "6..2"]
    assert run_cli(capsys, argv) == (0, "family,n,n_p,n_q,tau,B,mu,w,bound,ratio\n", "")
    assert built == []


@pytest.mark.parametrize("argv, message", [
    (["--family", "complete", "--tau", "2"], "complete sweep needs --n"),
    (["--family", "star", "--tau", "2"], "star sweep needs --n"),
    (["--family", "bipartite", "--nq", "2", "--tau", "2"], "bipartite sweep needs --np and --nq"),
    (["--family", "bipartite", "--np", "2", "--B", "10"], "bipartite sweep needs --np and --nq"),
    (["--family", "complete", "--n", "3"], "complete sweep needs --B or --tau"),
])
def test_sweep_without_sizes_is_refused(capsys, argv, message):
    code, out, err = run_cli(capsys, ["sweep", *argv])
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_sweep_guard(capsys):
    code, _, err = run_cli(capsys, ["sweep", "--family", "complete",
                                    "--n", "2..200", "--tau", "1..100"])
    assert code == 4
    assert "exceeds" in err


def test_verify_alloc_oracle_past_the_guard(capsys):
    code, out, err = run_cli(capsys, ["verify", "--suite", "alloc-oracle", "--nmax", "7"])
    assert code == 4
    assert out == ""
    assert err == "error: 10737573 compositions exceed the guard 10000000\n"


@pytest.mark.parametrize("nmax", ["1", "-3"])
def test_verify_alloc_oracle_without_instances(capsys, nmax):
    code, out, err = run_cli(capsys, ["verify", "--suite", "alloc-oracle", "--nmax", nmax])
    assert code == 2
    assert out == ""
    assert err == f"error: nmax must be >= 2, got {nmax}\n"


def _must_not_run(*args, **kwargs):
    raise AssertionError("the guard must refuse the request before any graph or row is built")


@pytest.mark.parametrize("argv", [
    ["sweep", "--family", "bipartite", "--np", "3..12", "--nq", "2..11",
     "--B", "30,32", "--tau", "2..100"],
    ["sweep", "--family", "complete", "--n", "1..1000000000000", "--tau", "2"],
], ids=["mixed-budget-and-tau", "huge-range"])
def test_sweep_guard_computes_no_row(capsys, monkeypatch, argv):
    monkeypatch.setattr(patrolgame.cli, "synthesize", _must_not_run)
    monkeypatch.setattr(patrolgame.cli, "allocate", _must_not_run)
    monkeypatch.setattr(patrolgame.cli, "build_graph", _must_not_run)
    code, out, err = run_cli(capsys, argv)
    assert code == 4
    assert out == ""
    assert "exceeds" in err


@pytest.mark.parametrize("argv, count", [
    (["--family", "complete", "--n", "3", "--tau", f"1..{10 ** 20}"], 10 ** 20),
    (["--family", "complete", "--n", f"3..{10 ** 20}", "--tau", "2"], 10 ** 20 - 2),
    (["--family", "bipartite", "--np", "2", "--nq", f"2..{10 ** 20}", "--B", "10"], 10 ** 20 - 1),
    (["--family", "complete", "--n", f"1..{10 ** 30}", "--tau", "2"], 10 ** 30),
], ids=["tau", "n", "nq-with-budget", "n-from-one"])
def test_sweep_range_past_machine_size_is_refused_by_the_guard(capsys, argv, count):
    # len() of a range past sys.maxsize raises; the guard counts by arithmetic
    code, out, err = run_cli(capsys, ["sweep", *argv])
    assert (code, out) == (4, "")
    assert err == f"error: sweep grid of {count} rows exceeds 10000\n"


def test_a_star_sweep_holds_no_strategy_matrix_per_row(capsys):
    # each row of a tau sweep is one lane of a batch; a 300 x 300 strategy
    # matrix per row would take 216 MB
    tracemalloc.start()
    try:
        code, out, _ = run_cli(capsys, ["sweep", "--family", "star", "--n", "300",
                                        "--tau", "2..301"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out.count("\n")) == (0, 301)
    assert peak < 20 * 2 ** 20


def test_sweep_star_budget_unsupported(capsys):
    code, out, err = run_cli(capsys, ["sweep", "--family", "star", "--n", "3",
                                      "--tau", "2", "--B", "5..7"])
    assert code == 3
    assert out == ""
    assert "star allocation is unsupported" in err
    code, out, err = run_cli(capsys, ["sweep", "--family", "star", "--n", "3..4", "--B", "6"])
    assert (code, out, err) == (3, "", "error: star allocation is unsupported\n")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("family", ["star", "complete"])
def test_sweep_of_a_huge_tau_prints_nothing_on_stderr(capsys, family):
    code, out, err = run_cli(capsys, ["sweep", "--family", family, "--n", "3",
                                      "--tau", str(10 ** 20)])
    assert (code, err) == (0, "")
    assert out.splitlines()[1].startswith(f"{family},3,,,{10 ** 20},,1,")


def test_sweep_bad_durations_are_infeasible(capsys):
    code, out, err = run_cli(capsys, ["sweep", "--family", "complete", "--n", "3",
                                      "--tau", "0..2"])
    assert code == 2
    assert out == ""
    assert "durations" in err


@pytest.mark.parametrize("argv, message", [
    (["--n", "3", "--B", "2,5", "--tau", "0"], "budget must satisfy 3 < B < 9, got 2"),
    (["--n", "3", "--B", "5,9", "--tau", "0"], "budget must satisfy 3 < B < 9, got 9"),
    (["--n", "3", "--B", "5", "--tau", "2,0,-1"], "attack durations must all be >= 1: (0, 0, 0)"),
    (["--n", "3..4", "--B", "9"], "budget must satisfy 3 < B < 9, got 9"),
    (["--n", "4,3", "--B", "9"], "budget must satisfy 3 < B < 9, got 9"),
    (["--n", "1", "--B", "3", "--tau", "2"], "complete-graph allocation needs n >= 2, got 1"),
    (["--n", "1", "--tau", "2"], "complete-graph synthesis needs n >= 2"),
], ids=["budget-before-tau", "second-budget", "first-bad-tau", "first-cell",
        "second-cell", "one-node-budget", "one-node-tau"])
def test_complete_sweep_reports_the_first_bad_point_in_row_order(capsys, argv, message):
    # a complete cell is solved in one batch, after every point's checks
    code, out, err = run_cli(capsys, ["sweep", "--family", "complete", *argv])
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("argv, violations", [
    (["--family", "star", "--n", "3", "--tau", "1..2"], [1, 2, 3]),
    (["--family", "star", "--n", "3", "--tau", "2,1"], [1, 2, 3]),
    (["--family", "bipartite", "--np", "2", "--nq", "1", "--tau", "1"], [1, 2, 3]),
])
def test_sweep_zero_capture_tau_gets_the_feasibility_report(capsys, argv, violations):
    code, out, err = run_cli(capsys, ["sweep", *argv])
    assert code == 2
    assert out == ""
    assert err == ("error: capture probability is zero: "
                   f"tau below first-arrival time at {violations}\n")


def test_sweep_builds_no_feasibility_report_for_a_feasible_grid(capsys, monkeypatch):
    monkeypatch.setattr(patrolgame.synthesis, "validate_attack_durations", _must_not_run)
    code, out, _ = run_cli(capsys, ["sweep", "--family", "star", "--n", "3..4", "--tau", "2..4"])
    assert code == 0
    assert out.count("\n") == 1 + 2 * 3


def test_sweep_unsupported_family(capsys):
    code, _, err = run_cli(capsys, ["sweep", "--family", "general", "--n", "3", "--tau", "2"])
    assert code == 3
    assert "unsupported" in err


def test_sweep_allocation_mode(capsys):
    code, out, _ = run_cli(capsys, ["sweep", "--family", "complete", "--n", "3", "--B", "5..8"])
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 5
    budgets = [int(line.split(",")[5]) for line in lines[1:]]
    assert budgets == [5, 6, 7, 8]


def _allocation_row(allocation) -> str:
    """mu, w, bound and ratio of an allocation, as a sweep row prints them."""
    bound = generic_capture_bound(allocation.tau)
    return f"{allocation.mu:.12g},{allocation.w:.12g},{bound:.12g},{allocation.mu / bound:.12g}"


def test_bipartite_sweep_rows_are_the_allocations_allocate_returns(capsys):
    # a sweep prints each budget row from its split alone; allocate builds
    # the whole allocation, with its durations, from the same bisection
    for n_p in range(1, 9):
        for n_q in range(1, 9):
            if n_p == n_q == 1:
                continue
            g = graphs.build_bipartite(n_p, n_q)
            budgets = range(2 * (n_p + n_q) + 2, 2 * (n_p * n_p + n_q * n_q), 2)
            code, out, _ = run_cli(capsys, ["sweep", "--family", "bipartite", "--np", str(n_p),
                                            "--nq", str(n_q), "--B", ",".join(map(str, budgets))])
            assert code == 0
            assert out.splitlines()[1:] == [
                f"bipartite,,{n_p},{n_q},,{B},{_allocation_row(allocate(g, B))}" for B in budgets]


def test_complete_sweep_budget_rows_are_the_complete_split(capsys):
    for n in range(2, 13):
        g = graphs.build_complete(n)
        budgets = range(n + 1, n * n)
        code, out, _ = run_cli(capsys, ["sweep", "--family", "complete", "--n", str(n),
                                        "--B", f"{n + 1}..{n * n - 1}"])
        assert code == 0
        rows = []
        for B in budgets:
            allocation = allocate(g, B)
            assert allocation.tau == complete_split(n, B)
            rows.append(f"complete,{n},,,,{B},{_allocation_row(allocation)}")
        assert out.splitlines()[1:] == rows


@pytest.mark.parametrize("argv, message", [
    (["--np", "2..3", "--B", "10", "--tau", "1"],
     "capture probability is zero: tau below first-arrival time at [1, 2, 3, 4]"),
    (["--np", "3,2", "--B", "10", "--tau", "1"], "budget must satisfy 10 < B < 26, got 10"),
    (["--np", "2..3", "--B", "14,11", "--tau", "1"], "total budget must be even, got 11"),
], ids=["tau-of-the-first-cell", "budget-of-the-first-cell", "second-budget"])
def test_bipartite_sweep_reports_the_first_bad_point_in_row_order(capsys, argv, message):
    # B = 10 is in range on 2 + 2 and not on 3 + 2; tau 1 is infeasible on both
    code, out, err = run_cli(capsys, ["sweep", "--family", "bipartite", "--nq", "2", *argv])
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_sweep_side_values_live_for_one_sweep(capsys, monkeypatch):
    # each sweep solves its side values again once the solver's cache is
    # cleared: no side value is kept from one sweep to the next
    calls = []
    solve = patrolgame.synthesis._log_equalized_value
    monkeypatch.setattr(patrolgame.synthesis, "_log_equalized_value",
                        lambda m: calls.append(m) or solve(m))
    argv = ["sweep", "--family", "bipartite", "--np", "6..8", "--nq", "6..8",
            "--B", "60,62,60,64"]
    counts = []
    for _ in range(2):
        patrolgame.synthesis.solve_equalized_value.cache_clear()
        calls.clear()
        assert run_cli(capsys, argv)[0] == 0
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


def test_a_complete_tau_sweep_holds_its_rows_at_most_twice(capsys):
    # 1000 rows of 1000 durations take 8 MB as tuples and 8 MB as the batch's
    # int64 array; the sweep's own copy of every row would add 8 MB more
    tracemalloc.start()
    try:
        code, out, _ = run_cli(capsys, ["sweep", "--family", "complete", "--n", "1000",
                                        "--tau", "2..1001"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out.count("\n")) == (0, 1001)
    assert peak < 30 * 2 ** 20


# --- exit codes -------------------------------------------------------------------

def test_every_package_error_ends_main_with_the_exit_code_of_its_class(capsys, monkeypatch):
    errors = [PatrolGameError]
    for error in errors:  # grows as it goes: subclasses of subclasses too
        errors += error.__subclasses__()
    defined = {value for value in vars(patrolgame.errors).values()
               if isinstance(value, type) and issubclass(value, PatrolGameError)}
    assert len(errors) == len(set(errors)) and set(errors) == defined
    verify = patrolgame.cli._COMMANDS["verify"]
    for error in errors:
        def handler(args, error=error):
            raise error(f"stub {error.__name__}")
        monkeypatch.setitem(patrolgame.cli._COMMANDS, "verify", (handler, *verify[1:]))
        expected = 4 if error is SearchSpaceExceeded else 3 if error is Unsupported else 2
        assert run_cli(capsys, ["verify", "--suite", "bounds"]) == (
            expected, "", f"error: stub {error.__name__}\n"), error.__name__


# --- recursion guard ----------------------------------------------------------------

@pytest.mark.parametrize("argv", [
    ["solve", "--family", "complete", "--n", "3", "--tau", "1000000000,2,2"],
    ["solve", "--family", "complete", "--n", "3", "--tau", ",".join([str(10 ** 20)] * 3)],
    ["simulate", "--family", "star", "--n", "3", "--tau", "2,2,10000000"],
    ["solve", "--family", "bipartite", "--np", "300", "--nq", "300", "--tau", "1000002"],
    ["solve", "--family", "complete", "--n", "3", "--tau", f"{10 ** 400},2,2"],
], ids=["tau-1e9", "tau-1e20", "simulate", "bipartite-600", "tau-1e400"])
def test_recursion_past_its_limit_is_refused_before_the_graph(capsys, monkeypatch, argv):
    monkeypatch.setattr(patrolgame.cli, "build_graph", _must_not_run)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, argv)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (4, "")
    assert err.startswith("error: recursion of ") and err.endswith(" steps exceeds 1e+06\n")
    assert err.count("\n") == 1


def _past_the_guard(descriptor):
    raise InvalidSpec("past the guard")


@pytest.mark.parametrize("extra, code, refusal", [(0, 2, "error: past the guard\n"),
                                                  (1, 4, "error: recursion of 1.01e+06 steps")])
def test_recursion_limit_is_inclusive(capsys, monkeypatch, extra, code, refusal):
    # the largest tau_max whose steps fit the limit reaches the graph, and one
    # more is refused
    monkeypatch.setattr(patrolgame.cli, "build_graph", _past_the_guard)
    argv = ["solve", "--family", "complete", "--tau", f"{RECURSION_STEP_LIMIT + 1 + extra},2,2"]
    exit_code, out, err = run_cli(capsys, argv)
    assert (exit_code, out) == (code, "") and err.startswith(refusal)


def test_a_long_recursion_on_a_large_graph_is_admitted(capsys):
    # 59 steps of the one distinct row's r x n recursion: a price of the
    # dense n = 1000 product, 1.2e11 flops, refused this cheap solve
    argv = ["solve", "--family", "complete", "--n", "1000", "--tau", "60" + ",2" * 999]
    code, out, err = run_cli(capsys, argv)
    assert (code, err) == (0, "") and json.loads(out)["mu"] > 0.0


def test_a_sweep_duration_past_the_float_range_is_a_bad_spec(capsys):
    argv = ["sweep", "--family", "complete", "--n", "2", "--tau", str(10 ** 400)]
    assert run_cli(capsys, argv) == (2, "", "error: exponent 1.00e+400 is past the float range\n")


def test_recursion_estimate_past_the_float_range_is_printed(capsys, monkeypatch):
    monkeypatch.setattr(patrolgame.cli, "build_graph", _must_not_run)
    argv = ["solve", "--family", "complete", "--n", "3", "--tau", f"{3 * 10 ** 400},2,2"]
    # the count, 3e+400 less 1, is rounded up
    assert run_cli(capsys, argv) == (4, "", "error: recursion of 3e+400 steps exceeds 1e+06\n")


# --- walk guard ---------------------------------------------------------------------

@pytest.mark.parametrize("argv, refusal", [
    (["simulate", "--family", "complete", "--n", "3", "--tau", "2,2,2", "--trials", str(10 ** 15)],
     "error: walk of 1.81e+16 walker-column steps exceeds 1e+09\n"),
    (["verify", "--suite", "montecarlo", "--trials", str(10 ** 15)],
     "error: walk of 1.29e+18 walker-column steps exceeds 1e+09\n"),
    # one walker, but 1.9e7 start-steps of 30 columns each: its recursion
    # (649350 steps) fits, and the steps' fixed cost refuses the walk
    (["simulate", "--family", "complete", "--n", "30", "--tau", "649351" + ",1" * 29,
      "--trials", "1"],
     "error: walk of 5.86e+11 walker-column steps exceeds 1e+09\n"),
], ids=["simulate", "verify-montecarlo", "simulate-one-trial"])
def test_walk_past_its_limit_is_refused_before_the_walk(capsys, monkeypatch, argv, refusal):
    for name in ("build_graph", "simulate_capture", "monte_carlo_suite"):
        monkeypatch.setattr(patrolgame.cli, name, _must_not_run)
    start = time.perf_counter()
    assert run_cli(capsys, argv) == (4, "", refusal)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("argv, trials", [
    # n = 999 at tau 2 passes the recursion guard, and a walk of a negative
    # count would pass the walk guard
    (["simulate", "--family", "complete", "--n", "999", "--tau", "2" + ",1" * 998], "-1000000"),
    (["verify", "--suite", "montecarlo"], "0"),
], ids=["simulate", "verify-montecarlo"])
def test_trials_below_one_are_refused_before_any_guard(capsys, monkeypatch, argv, trials):
    for name in ("build_graph", "simulate_capture", "monte_carlo_suite"):
        monkeypatch.setattr(patrolgame.cli, name, _must_not_run)
    assert run_cli(capsys, argv + ["--trials", trials]) == (
        2, "", f"error: trials must be >= 1, got {trials}\n")


@pytest.mark.parametrize("extra, code, refusal", [(0, 2, "error: past the guard\n"),
                                                  (1, 4, "error: walk of 1.01e+09 walker-column")])
def test_walk_limit_is_inclusive(capsys, monkeypatch, extra, code, refusal):
    # n = 3, tau_max = 2: each trial, and each of a step's WALK_STEP_WALKERS,
    # is 3 starts x 2 steps x 3 columns
    trials = WALK_WORK_LIMIT // 18 - WALK_STEP_WALKERS + extra
    monkeypatch.setattr(patrolgame.cli, "build_graph", _past_the_guard)
    argv = ["simulate", "--family", "complete", "--tau", "2,2,2", "--trials", str(trials)]
    exit_code, out, err = run_cli(capsys, argv)
    assert (exit_code, out) == (code, "") and err.startswith(refusal)


# --- graph size guard ---------------------------------------------------------------

_PAIRS = "adjacency of 1e+10 node pairs exceeds 1e+06"


@pytest.mark.parametrize("argv, refusal", [
    (["solve", "--family", "complete", "--n", "100000", "--tau", "1"], _PAIRS),
    # no simulate reaches the graph guard: past n = 999 even one walker at
    # tau 1 is past the walk limit, which simulate checks first
    (["simulate", "--family", "complete", "--n", "2000", "--tau", "1", "--trials", "1"],
     "walk of 4.01e+09 walker-column steps exceeds 1e+09"),
    (["allocate", "--family", "complete", "--n", "100000", "--B", "200000"], _PAIRS),
    (["allocate", "--family", "star", "--n", "100000", "--B", "7"], _PAIRS),
    (["sweep", "--family", "complete", "--n", "100000", "--tau", "1"], _PAIRS),
    (["sweep", "--family", "bipartite", "--np", "50000", "--nq", "50000", "--B", "200000"],
     _PAIRS),
], ids=["solve", "simulate", "allocate", "allocate-star", "sweep", "sweep-bipartite"])
def test_graph_past_its_limit_is_refused_before_it_is_built(capsys, monkeypatch, argv, refusal):
    # tau 1 asks for no recursion step, so only the graph guard stands
    # between these requests and their n x n adjacency
    for name in ("build_graph", "synthesize", "allocate"):
        monkeypatch.setattr(patrolgame.cli, name, _must_not_run)
    assert run_cli(capsys, argv) == (4, "", f"error: {refusal}\n")


@pytest.mark.parametrize("extra, code, refusal", [
    (0, 2, "error: past the guard\n"), (1, 4, "error: adjacency of 1.01e+06 node pairs")])
@pytest.mark.parametrize("command", ["solve", "allocate", "sweep"])
def test_graph_limit_is_inclusive(capsys, monkeypatch, command, extra, code, refusal):
    n_p = 500
    n_q = int(ADJACENCY_LIMIT ** 0.5) - n_p + extra
    monkeypatch.setattr(patrolgame.cli, "build_graph", _past_the_guard)
    argv = [command, "--family", "bipartite", "--np", str(n_p), "--nq", str(n_q),
            *(["--B", "4000"] if command == "allocate" else ["--tau", "1"])]
    exit_code, out, err = run_cli(capsys, argv)
    assert (exit_code, out) == (code, "") and err.startswith(refusal)


def test_sweep_refuses_a_large_cell_before_building_its_graph(capsys, monkeypatch):
    built = []

    def build(descriptor):
        built.append(descriptor["n"])
        return graphs.build_graph(descriptor)

    monkeypatch.setattr(patrolgame.cli, "build_graph", build)
    argv = ["sweep", "--family", "complete", "--n", "3,100000", "--tau", "2"]
    assert run_cli(capsys, argv) == (4, "", "error: adjacency of 1e+10 node pairs exceeds 1e+06\n")
    assert built == [3]


def test_unknown_suite_is_rejected_by_the_parser(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "nope"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["solve", "--family", "complete", "--tau", "2,,2,2"],
    ["sweep", "--family", "complete", "--n", "3", "--tau", "2,,3,"],
    ["solve", "--family", "complete", "--tau", ","],
    ["sweep", "--family", "complete", "--n", ",3", "--B", "7"],
], ids=["solve-inner", "sweep-trailing", "solve-comma", "sweep-size"])
def test_a_list_flag_with_an_empty_entry_is_refused(capsys, argv):
    # an empty entry is a bad number, not one to drop
    assert run_cli(capsys, argv) == (2, "", "error: invalid literal for int() with base 10: ''\n")


# --- flag surface ------------------------------------------------------------------

_GRAPH = {"--family", "--n", "--np", "--nq"}
_IO = {"--out", "--config"}


def test_each_subcommand_takes_exactly_the_flags_its_handler_reads():
    commands = next(action for action in build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    options = {name: {flag for action in parser._actions for flag in action.option_strings}
               - {"-h", "--help"} for name, parser in commands.choices.items()}
    assert options == {
        "solve": _GRAPH | _IO | {"--tau", "--emit-cdf"},
        "allocate": _GRAPH | _IO | {"--B", "--compare-uniform"},
        "simulate": _GRAPH | _IO | {"--tau", "--trials", "--seed"},
        "verify": _IO | {"--suite", "--seed", "--trials", "--nmax"},
        "sweep": _GRAPH | _IO | {"--tau", "--B"},
    }
    assert sum(map(len, options.values())) == 39


@pytest.mark.parametrize("argv", [
    ["solve", "--family", "star", "--n", "3", "--tau", "2,2,2", "--trials", "7"],
    ["solve", "--family", "star", "--n", "3", "--tau", "2,2,2", "--B", "9"],
    ["allocate", "--family", "complete", "--n", "3", "--B", "7", "--tau", "1"],
    ["allocate", "--family", "complete", "--n", "3", "--B", "7", "--seed", "3"],
    ["simulate", "--family", "complete", "--n", "3", "--tau", "2,2,2", "--B", "9"],
    ["verify", "--suite", "bounds", "--family", "complete"],
    ["verify", "--suite", "bounds", "--n", "3"],
    ["sweep", "--family", "complete", "--n", "3", "--tau", "2", "--seed", "3"],
    ["sweep", "--family", "complete", "--n", "3", "--tau", "2", "--tol", "1e-3"],
    # no command sets the tolerance of its checks
    ["solve", "--family", "star", "--n", "3", "--tau", "2,2,2", "--tol", "nan"],
    ["simulate", "--family", "star", "--n", "3", "--tau", "2,2,2", "--tol", "-1"],
    ["verify", "--suite", "bounds", "--tol", "inf"],
], ids=lambda argv: f"{argv[0]} {argv[-2]}")
def test_a_flag_the_subcommand_does_not_read_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {argv[-2]} {argv[-1]}" in capsys.readouterr().err


# --- config file and output ------------------------------------------------------

def _scenario(tmp_path, **values) -> str:
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(values))
    return str(config)


def test_config_file_supplies_defaults(capsys, tmp_path):
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps({
        "family": "star", "n": 3, "tau": [2, 4, 2]}))
    code, out, _ = run_cli(capsys, ["solve", "--config", str(config)])
    assert code == 0
    assert json.loads(out)["mu"] == pytest.approx(0.6180339887, abs=1e-8)


def test_flags_override_config(capsys, tmp_path):
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps({"family": "star", "n": 3, "tau": [2, 2, 2]}))
    code, out, _ = run_cli(capsys, ["solve", "--config", str(config),
                                    "--tau", "2,4,2"])
    assert code == 0
    assert json.loads(out)["mu"] == pytest.approx(0.6180339887, abs=1e-8)


@pytest.mark.parametrize("content", [None, "{not json", "[1, 2]"])
def test_unreadable_config_is_a_one_line_error(capsys, tmp_path, content):
    config = tmp_path / "scenario.json"
    if content is not None:
        config.write_text(content)
    code, out, err = run_cli(capsys, ["solve", "--config", str(config)])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_scenario_trials_and_nmax_apply(capsys, tmp_path):
    # simulate ignores a scenario's nmax; the alloc-oracle suite would refuse
    # its trials, so each command reads a scenario of its own
    config = _scenario(tmp_path, family="complete", n=3, tau=[2, 2, 2], trials=50, nmax=2)
    code, out, _ = run_cli(capsys, ["simulate", "--config", config])
    assert code == 0
    assert json.loads(out)["trials"] == 50
    _, expected, _ = run_cli(capsys, ["verify", "--suite", "alloc-oracle", "--nmax", "2"])
    config = _scenario(tmp_path, family="complete", n=3, tau=[2, 2, 2], nmax=2)
    code, out, _ = run_cli(capsys, ["verify", "--suite", "alloc-oracle", "--config", config])
    assert code == 0
    assert out == expected


@pytest.mark.parametrize("suite, flags, stray", [
    ("bounds", ["--nmax", "9", "--trials", "3"], "trials"),
    ("bounds", ["--nmax", "4"], "nmax"),
    ("alloc-oracle", ["--seed", "5"], "seed"),
    ("alloc-oracle", ["--seed", "5", "--trials", "7"], "trials"),
    ("montecarlo", ["--nmax", "2"], "nmax"),
])
def test_a_suite_refuses_a_flag_it_does_not_read(capsys, monkeypatch, suite, flags, stray):
    # a default value given on purpose is refused too
    for name in ("bound_suite", "allocation_agreement_suite", "monte_carlo_suite"):
        monkeypatch.setattr(patrolgame.cli, name, _must_not_run)
    assert run_cli(capsys, ["verify", "--suite", suite, *flags]) == (
        2, "", f"error: the {suite} suite does not read --{stray}\n")


def test_a_suite_refuses_a_scenario_flag_it_does_not_read(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(patrolgame.cli, "allocation_agreement_suite", _must_not_run)
    config = _scenario(tmp_path, suite="alloc-oracle", nmax=2, seed=5)
    assert run_cli(capsys, ["verify", "--config", config]) == (
        2, "", "error: the alloc-oracle suite does not read --seed\n")


def test_a_suite_reads_its_flags_and_defaults(capsys, monkeypatch):
    calls = []

    def record(value):
        calls.append(value)
        return SimpleNamespace(checks=[], summary="PASS 0/0", passed=True)

    monkeypatch.setattr(patrolgame.cli, "bound_suite", lambda config: record(config.seed))
    monkeypatch.setattr(patrolgame.cli, "allocation_agreement_suite", lambda nmax: record(nmax))
    monkeypatch.setattr(patrolgame.cli, "monte_carlo_suite",
                        lambda trials, seed: record((trials, seed)))
    for flags in (["bounds"], ["bounds", "--seed", "3"], ["alloc-oracle"],
                  ["alloc-oracle", "--nmax", "2"], ["montecarlo"],
                  ["montecarlo", "--trials", "9", "--seed", "1"]):
        assert run_cli(capsys, ["verify", "--suite", *flags]) == (0, "PASS 0/0\n", "")
    assert calls == [0, 3, 4, 2, (100_000, 0), (9, 1)]


def test_explicit_seed_zero_beats_the_scenario_seed(capsys, tmp_path):
    config = _scenario(tmp_path, family="complete", n=3, tau=[2, 2, 2], trials=500, seed=5)
    flags = ["simulate", "--family", "complete", "--n", "3", "--tau", "2,2,2", "--trials", "500"]
    _, seed0, _ = run_cli(capsys, flags + ["--seed", "0"])
    _, seed5, _ = run_cli(capsys, flags + ["--seed", "5"])
    assert seed0 != seed5
    assert run_cli(capsys, ["simulate", "--config", config])[1] == seed5
    assert run_cli(capsys, ["simulate", "--config", config, "--seed", "0"])[1] == seed0


@pytest.mark.parametrize("trials", [1.5, "many"])
def test_bad_scenario_value_is_a_one_line_error(capsys, tmp_path, trials):
    config = _scenario(tmp_path, family="complete", n=3, tau=[2, 2, 2], trials=trials)
    code, out, err = run_cli(capsys, ["simulate", "--config", config])
    assert code == 2
    assert out == ""
    assert err == f"error: cannot read --config {config}: invalid --trials value {trials!r}\n"


def test_a_scenario_tol_does_not_loosen_the_closed_form_check(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(patrolgame.cli, "capture_probability", _recursion_off_by(1e-8))
    config = _scenario(tmp_path, family="star", n=3, tau=[2, 2, 2], tol=1)
    code, out, err = run_cli(capsys, ["solve", "--config", config])
    assert (code, out) == (1, "")
    assert err.startswith("error: closed form 0.5 disagrees with recursion 0.50000001")


def test_scenario_suite_applies(capsys, tmp_path):
    _, expected, _ = run_cli(capsys, ["verify", "--suite", "alloc-oracle", "--nmax", "2"])
    config = _scenario(tmp_path, suite="alloc-oracle", nmax=2)
    assert run_cli(capsys, ["verify", "--config", config]) == (0, expected, "")
    # the flag still wins over the scenario's suite
    config = _scenario(tmp_path, suite="bounds", nmax=2)
    assert run_cli(capsys, ["verify", "--config", config, "--suite", "alloc-oracle"]) == (
        0, expected, "")


@pytest.mark.parametrize("config", [None, {"nmax": 2}])
def test_verify_needs_a_suite_from_the_flag_or_the_scenario(capsys, monkeypatch, tmp_path,
                                                            config):
    for name in ("bound_suite", "allocation_agreement_suite", "monte_carlo_suite"):
        monkeypatch.setattr(patrolgame.cli, name, _must_not_run)
    argv = ["verify"] if config is None else ["verify", "--config", _scenario(tmp_path, **config)]
    assert run_cli(capsys, argv) == (2, "", "error: verify needs --suite\n")


def test_scenario_keys_the_subcommand_does_not_read_are_ignored(capsys, tmp_path):
    config = _scenario(tmp_path, family="star", n=3, tau=[2, 4, 2], handler="cmd_sweep",
                       command="allocate", config="missing.json", suite="nope", colour="red")
    code, out, _ = run_cli(capsys, ["solve", "--config", config])
    assert code == 0
    assert json.loads(out)["mu"] == pytest.approx(0.6180339887, abs=1e-8)


def test_out_writes_file(capsys, tmp_path):
    target = tmp_path / "result.json"
    code, out, _ = run_cli(capsys, ["solve", "--family", "complete", "--n", "3",
                                    "--tau", "2,2,2", "--out", str(target)])
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["mu"] == pytest.approx(5 / 9, abs=1e-9)


def test_unwritable_out_is_a_one_line_error(capsys, tmp_path):
    target = tmp_path / "missing" / "result.json"
    code, out, err = run_cli(capsys, ["solve", "--family", "star", "--n", "3",
                                      "--tau", "2,2,2", "--out", str(target)])
    assert code == 2
    assert out == ""
    assert err == f"error: cannot write --out {target}: No such file or directory\n"


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "patrolgame.cli", "solve", "--family", "complete",
         "--n", "3", "--tau", "2,2,2"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["mu"] == pytest.approx(5 / 9, abs=1e-9)
