import argparse
import json
import subprocess
import sys
import time

import numpy as np
import pytest

import patrolgame.cli
import patrolgame.oracles
import patrolgame.synthesis
from patrolgame import (InvalidSpec, PatrolGameError, SearchSpaceExceeded, Unsupported,
                        capture_probability)
from patrolgame.cli import RECURSION_FLOP_LIMIT, RECURSION_STEP_FLOPS, build_parser, main

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


def test_sweep_range_past_machine_size_is_a_one_line_error(capsys):
    code, out, err = run_cli(capsys, ["sweep", "--family", "complete",
                                      "--n", f"1..{10 ** 30}", "--tau", "2"])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_sweep_star_budget_unsupported(capsys):
    code, out, err = run_cli(capsys, ["sweep", "--family", "star", "--n", "3",
                                      "--tau", "2", "--B", "5..7"])
    assert code == 3
    assert out == ""
    assert "star allocation is unsupported" in err


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


# --- exit codes -------------------------------------------------------------------

def test_every_package_error_ends_main_with_the_exit_code_of_its_class(capsys, monkeypatch):
    errors = [PatrolGameError]
    for error in errors:  # grows as it goes: subclasses of subclasses too
        errors += error.__subclasses__()
    assert len(errors) == len(set(errors)) > 10
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
    ["solve", "--family", "bipartite", "--np", "300", "--nq", "300", "--tau", "300"],
], ids=["tau-1e9", "tau-1e20", "simulate", "bipartite-600"])
def test_recursion_past_its_limit_is_refused_before_the_graph(capsys, monkeypatch, argv):
    monkeypatch.setattr(patrolgame.cli, "build_graph", _must_not_run)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, argv)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (4, "")
    assert err.startswith("error: recursion of ") and err.endswith(" flops exceeds 1e+11\n")
    assert err.count("\n") == 1


def _past_the_guard(descriptor):
    raise InvalidSpec("past the guard")


@pytest.mark.parametrize("extra, code, refusal", [(0, 2, "error: past the guard\n"),
                                                  (1, 4, "error: recursion of 1e+11 flops")])
def test_recursion_limit_is_inclusive(capsys, monkeypatch, extra, code, refusal):
    # n = 3: the largest tau_max whose steps fit the limit reaches the graph,
    # and one more is refused
    steps = RECURSION_FLOP_LIMIT // (2 * 3 ** 3 + RECURSION_STEP_FLOPS)
    monkeypatch.setattr(patrolgame.cli, "build_graph", _past_the_guard)
    argv = ["solve", "--family", "complete", "--tau", f"{steps + 1 + extra},2,2"]
    exit_code, out, err = run_cli(capsys, argv)
    assert (exit_code, out) == (code, "") and err.startswith(refusal)


def test_unknown_suite_is_rejected_by_the_parser(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "nope"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


# --- flag surface ------------------------------------------------------------------

_GRAPH = {"--family", "--n", "--np", "--nq"}
_IO = {"--out", "--config"}


def test_each_subcommand_takes_exactly_the_flags_its_handler_reads():
    commands = next(action for action in build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    options = {name: {flag for action in parser._actions for flag in action.option_strings}
               - {"-h", "--help"} for name, parser in commands.choices.items()}
    assert options == {
        "solve": _GRAPH | _IO | {"--tau", "--tol", "--emit-cdf"},
        "allocate": _GRAPH | _IO | {"--B", "--compare-uniform"},
        "simulate": _GRAPH | _IO | {"--tau", "--tol", "--trials", "--seed"},
        "verify": _IO | {"--suite", "--seed", "--trials", "--tol", "--nmax"},
        "sweep": _GRAPH | _IO | {"--tau", "--B"},
    }
    assert sum(map(len, options.values())) == 42


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
], ids=lambda argv: f"{argv[0]} {argv[-2]}")
def test_a_flag_the_subcommand_does_not_read_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {argv[-2]} {argv[-1]}" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["solve", "--family", "star", "--n", "3", "--tau", "2,2,2", "--tol", "nan"],
    ["solve", "--family", "star", "--n", "3", "--tau", "2,2,2", "--tol", "-1"],
    ["verify", "--suite", "bounds", "--tol", "inf"],
], ids=lambda argv: f"{argv[0]} --tol {argv[-1]}")
def test_tol_must_be_finite_and_not_negative(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument --tol: must be a finite number >= 0, not '{argv[-1]}'" in err
    assert "Traceback" not in err


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
    config = _scenario(tmp_path, family="complete", n=3, tau=[2, 2, 2], trials=50, nmax=2)
    code, out, _ = run_cli(capsys, ["simulate", "--config", config])
    assert code == 0
    assert json.loads(out)["trials"] == 50
    _, expected, _ = run_cli(capsys, ["verify", "--suite", "alloc-oracle", "--nmax", "2"])
    code, out, _ = run_cli(capsys, ["verify", "--suite", "alloc-oracle", "--config", config])
    assert code == 0
    assert out == expected


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


def test_scenario_tol_is_checked_like_the_flag(capsys, tmp_path):
    config = _scenario(tmp_path, family="star", n=3, tau=[2, 2, 2], tol="nan")
    code, out, err = run_cli(capsys, ["solve", "--config", config])
    assert code == 2
    assert out == ""
    assert err == f"error: cannot read --config {config}: invalid --tol value 'nan'\n"


def test_scenario_suite_applies(capsys, tmp_path):
    _, expected, _ = run_cli(capsys, ["verify", "--suite", "alloc-oracle", "--nmax", "2"])
    config = _scenario(tmp_path, suite="alloc-oracle", nmax=2)
    assert run_cli(capsys, ["verify", "--config", config]) == (0, expected, "")
    # the flag still wins over the scenario's suite
    config = _scenario(tmp_path, suite="bounds", nmax=2)
    assert run_cli(capsys, ["verify", "--config", config, "--suite", "alloc-oracle"]) == (
        0, expected, "")


@pytest.mark.parametrize("config", [None, {"nmax": 2}])
def test_verify_needs_a_suite_from_the_flag_or_the_scenario(capsys, tmp_path, config):
    argv = ["verify"] if config is None else ["verify", "--config", _scenario(tmp_path, **config)]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "the following arguments are required: --suite" in capsys.readouterr().err


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
