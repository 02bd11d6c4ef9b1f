"""Command-line front end: solve, allocate, simulate, verify, sweep.

All output is machine readable (JSON, CSV for sweeps) with floats printed to
12 significant digits; identical arguments and seed produce byte-identical
output.  Randomness never comes from the clock: the seed defaults to 0.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from . import __version__
from .allocation import allocate_complete, co_optimize_bipartite
from .errors import (
    BudgetOutOfRange,
    DimensionMismatch,
    InfeasibleTau,
    InvalidSpec,
    ParityError,
    SearchSpaceExceeded,
)
from .graphs import build_bipartite, build_complete, build_star, validate_attack_durations
from .markov import capture_probability, simulate_capture
from .oracles import (
    BoundSuiteConfig,
    allocation_agreement_suite,
    bound_suite,
    monte_carlo_suite,
)
from .synthesis import (
    generic_capture_bound,
    synthesize_bipartite,
    synthesize_complete,
    synthesize_star,
)

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_INFEASIBLE = 2
EXIT_UNSUPPORTED = 3
EXIT_GUARD = 4

SWEEP_ROW_LIMIT = 10_000
_CSV_COLUMNS = ("family", "n", "n_p", "n_q", "tau", "B", "mu", "w", "bound", "ratio")


def _round_floats(obj):
    # 12 significant digits keeps JSON diffs stable across runs
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def _dump_json(data) -> str:
    return json.dumps(_round_floats(data), indent=2) + "\n"


def _write_output(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _parse_int_list(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in str(text).split(",") if part != "")


def _parse_range(text: str | int | None) -> tuple[int, ...]:
    """Accepts '4', '2,3,5', or '2..6' (inclusive)."""
    if text is None:
        return ()
    text = str(text)
    if ".." in text:
        lo, hi = text.split("..", 1)
        return tuple(range(int(lo), int(hi) + 1))
    return _parse_int_list(text)


def _merge_config(args: argparse.Namespace) -> argparse.Namespace:
    """Fill unset flags from a JSON scenario file given with --config."""
    if not getattr(args, "config", None):
        return args
    with open(args.config, encoding="utf-8") as handle:
        scenario = json.load(handle)
    if not isinstance(scenario, dict):
        raise InvalidSpec("a scenario file must hold one JSON object")
    for key, value in scenario.items():
        attr = key.replace("-", "_")
        if not hasattr(args, attr):
            continue
        if getattr(args, attr) in (None, False):
            if attr == "tau" and isinstance(value, (list, tuple)):
                value = ",".join(str(v) for v in value)
            setattr(args, attr, value)
    return args


def _build_graph_from_args(args: argparse.Namespace):
    family = args.family
    if family == "complete":
        n = int(args.n) if args.n is not None else len(_parse_int_list(args.tau))
        return build_complete(n)
    if family == "bipartite":
        if args.np is None or args.nq is None:
            raise InvalidSpec("bipartite needs --np and --nq")
        return build_bipartite(int(args.np), int(args.nq))
    if family == "star":
        n = int(args.n) if args.n is not None else len(_parse_int_list(args.tau))
        return build_star(n)
    raise InvalidSpec(f"unsupported family {family!r}")


def _synthesize(graph, tau: tuple[int, ...]):
    if graph.family == "complete":
        return synthesize_complete(tau)
    if graph.family == "star":
        return synthesize_star(tau)
    return synthesize_bipartite(graph, tau[:graph.n_p], tau[graph.n_p:])


def _solve_common(args: argparse.Namespace):
    """Shared by solve and simulate: returns (graph, tau, result) or an exit code."""
    if args.family == "general":
        print("error: no strategy synthesis for the general family", file=sys.stderr)
        return EXIT_UNSUPPORTED
    if not args.tau:
        print("error: --tau is required", file=sys.stderr)
        return EXIT_INFEASIBLE
    tau = _parse_int_list(args.tau)
    graph = _build_graph_from_args(args)
    report = validate_attack_durations(graph, tau)
    if report.condition1_violations:
        sys.stderr.write(_dump_json(report.to_json_dict()))
        return EXIT_INFEASIBLE
    try:
        result = _synthesize(graph, tau)
    except InfeasibleTau as exc:
        payload = report.to_json_dict()
        payload["nontrivial"] = False
        payload["notes"] = f"{report.notes}; {exc}"
        sys.stderr.write(_dump_json(payload))
        return EXIT_INFEASIBLE
    tol = args.tol if args.tol is not None else 1e-9
    recursion_mu = capture_probability(result.P, tau).mu
    if abs(recursion_mu - result.mu) > tol:
        print(f"error: closed form {result.mu} disagrees with recursion {recursion_mu}",
              file=sys.stderr)
        return EXIT_FAILURE
    return graph, tau, result


def cmd_solve(args: argparse.Namespace) -> int:
    outcome = _solve_common(args)
    if isinstance(outcome, int):
        return outcome
    graph, tau, result = outcome
    payload = result.to_json_dict()
    if args.emit_cdf:
        capture = capture_probability(result.P, tau)
        payload["worst_pair"] = list(capture.worst_pair)
        payload["cdf"] = capture.cdf.tolist()
    _write_output(_dump_json(payload), args.out)
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    outcome = _solve_common(args)
    if isinstance(outcome, int):
        return outcome
    _, tau, result = outcome
    sim = simulate_capture(result.P, tau, trials=args.trials, seed=args.seed)
    payload = {"mu_exact": result.mu}
    payload.update(sim.to_json_dict())
    _write_output(_dump_json(payload), args.out)
    return EXIT_OK


def _uniform_bipartite_tau(n: int, B: int) -> int:
    level = B // n
    return level - (level % 2)


def cmd_allocate(args: argparse.Namespace) -> int:
    if args.family in ("star", "general"):
        print(f"error: {args.family} allocation is unsupported", file=sys.stderr)
        return EXIT_UNSUPPORTED
    try:
        if args.family == "complete":
            if args.n is None or args.B is None:
                raise InvalidSpec("complete allocation needs --n and --B")
            n, budget = int(args.n), int(args.B)
            allocation = allocate_complete(n, budget)
            graph = build_complete(n)
            strategy = synthesize_complete(allocation.tau)
            uniform_tau = (budget // n,) * n
        else:
            if args.np is None or args.nq is None or args.B is None:
                raise InvalidSpec("bipartite allocation needs --np, --nq and --B")
            budget = int(args.B)
            allocation = co_optimize_bipartite(int(args.np), int(args.nq), budget)
            graph = build_bipartite(int(args.np), int(args.nq))
            strategy = synthesize_bipartite(graph, allocation.tau_p, allocation.tau_q)
            level = _uniform_bipartite_tau(graph.n, budget)
            uniform_tau = (level,) * graph.n
    except (ParityError, BudgetOutOfRange, InvalidSpec) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE

    payload = allocation.to_json_dict()
    payload["P"] = strategy.P.tolist()
    payload["pi"] = strategy.pi.tolist()
    payload["optimality"] = strategy.optimality
    if args.compare_uniform:
        if min(uniform_tau) >= (2 if args.family == "bipartite" else 1):
            uniform = _synthesize(graph, uniform_tau)
            payload["uniform"] = {"tau": list(uniform_tau), "mu": uniform.mu}
            payload["mu_delta"] = allocation.mu - uniform.mu
        else:
            payload["uniform"] = None
            payload["mu_delta"] = None
    _write_output(_dump_json(payload), args.out)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    tolerance = args.tol if args.tol is not None else 1e-10
    try:
        if args.suite == "bounds":
            report = bound_suite(BoundSuiteConfig(seed=args.seed))
        elif args.suite == "alloc-oracle":
            report = allocation_agreement_suite(nmax=args.nmax, tolerance=tolerance)
        elif args.suite == "montecarlo":
            report = monte_carlo_suite(trials=args.trials, seed=args.seed)
        else:
            print(f"error: unknown suite {args.suite!r}", file=sys.stderr)
            return EXIT_FAILURE
    except SearchSpaceExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    if args.out:
        _write_output(_dump_json(report.to_json_list()), args.out)
    for check in report.checks:
        if not check.passed:
            print(f"FAIL {check.instance}: expected {check.expected}, got {check.actual}",
                  file=sys.stderr)
    print(report.summary)
    return EXIT_OK if report.passed else EXIT_FAILURE


def _sweep_rows(args: argparse.Namespace) -> list[dict]:
    taus = _parse_range(args.tau)
    budgets = _parse_range(args.B)
    ns = _parse_range(args.n)
    nps = _parse_range(args.np)
    nqs = _parse_range(args.nq)
    rows = []
    if args.family == "complete":
        for n in ns:
            if budgets:
                for B in budgets:
                    allocation = allocate_complete(n, B)
                    bound = generic_capture_bound(allocation.tau)
                    rows.append({"family": "complete", "n": n, "B": B,
                                 "mu": allocation.mu, "w": allocation.w,
                                 "bound": bound, "ratio": allocation.mu / bound})
            for tau in taus:
                result = synthesize_complete((tau,) * n)
                bound = generic_capture_bound((tau,) * n)
                rows.append({"family": "complete", "n": n, "tau": tau,
                             "mu": result.mu, "w": result.w,
                             "bound": bound, "ratio": result.mu / bound})
    elif args.family == "star":
        for n in ns:
            for tau in taus:
                result = synthesize_star((tau,) * n)
                bound = generic_capture_bound((tau,) * n)
                rows.append({"family": "star", "n": n, "tau": tau,
                             "mu": result.mu, "w": result.w,
                             "bound": bound, "ratio": result.mu / bound})
    elif args.family == "bipartite":
        for n_p in nps:
            for n_q in nqs:
                graph = build_bipartite(n_p, n_q)
                if budgets:
                    for B in budgets:
                        allocation = co_optimize_bipartite(n_p, n_q, B)
                        bound = generic_capture_bound(allocation.tau)
                        rows.append({"family": "bipartite", "n_p": n_p, "n_q": n_q,
                                     "B": B, "mu": allocation.mu, "w": allocation.w,
                                     "bound": bound, "ratio": allocation.mu / bound})
                for tau in taus:
                    uniform = (tau,) * graph.n
                    result = synthesize_bipartite(graph, uniform[:n_p], uniform[n_p:])
                    bound = generic_capture_bound(uniform)
                    rows.append({"family": "bipartite", "n_p": n_p, "n_q": n_q,
                                 "tau": tau, "mu": result.mu, "w": result.w,
                                 "bound": bound, "ratio": result.mu / bound})
    return rows


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.family not in ("complete", "star", "bipartite"):
        print(f"error: unsupported sweep family {args.family!r}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    rows = _sweep_rows(args)
    if len(rows) > SWEEP_ROW_LIMIT:
        print(f"error: sweep grid of {len(rows)} rows exceeds {SWEEP_ROW_LIMIT}",
              file=sys.stderr)
        return EXIT_GUARD
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=_CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        formatted = {}
        for key in _CSV_COLUMNS:
            value = row.get(key, "")
            if isinstance(value, float):
                value = f"{value:.12g}"
            formatted[key] = value
        writer.writerow(formatted)
    _write_output(buffer.getvalue(), args.out)
    return EXIT_OK


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    # sizes, budget, and tau accept "4", "2,3,5", or "2..6" (ranges only in sweep)
    parser.add_argument("--family", choices=("complete", "bipartite", "star", "general"))
    parser.add_argument("--n")
    parser.add_argument("--np", dest="np")
    parser.add_argument("--nq", dest="nq")
    parser.add_argument("--tau")
    parser.add_argument("--B", dest="B")
    parser.add_argument("--edges")
    parser.add_argument("--trials", type=int, default=100_000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--tol", type=float)
    parser.add_argument("--out")
    parser.add_argument("--config")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="patrolgame",
        description="Patrol strategies and defense placement for surveillance games")
    parser.add_argument("--version", action="version", version=__version__)
    commands = parser.add_subparsers(dest="command", required=True)

    solve = commands.add_parser("solve", help="synthesize a patrol strategy")
    _add_common_flags(solve)
    solve.add_argument("--emit-cdf", action="store_true", dest="emit_cdf")
    solve.set_defaults(handler=cmd_solve)

    allocate = commands.add_parser("allocate", help="optimally split a defense budget")
    _add_common_flags(allocate)
    allocate.add_argument("--compare-uniform", action="store_true", dest="compare_uniform")
    allocate.set_defaults(handler=cmd_allocate)

    simulate = commands.add_parser("simulate", help="Monte Carlo check of a strategy")
    _add_common_flags(simulate)
    simulate.set_defaults(handler=cmd_simulate)

    verify = commands.add_parser("verify", help="run a verification suite")
    _add_common_flags(verify)
    verify.add_argument("--suite", choices=("bounds", "alloc-oracle", "montecarlo"),
                        required=True)
    verify.add_argument("--nmax", type=int, default=4)
    verify.set_defaults(handler=cmd_verify)

    sweep = commands.add_parser("sweep", help="emit CSV rows over a parameter grid")
    _add_common_flags(sweep)
    sweep.set_defaults(handler=cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args = _merge_config(args)
    except (OSError, ValueError, InvalidSpec) as exc:
        print(f"error: cannot read --config {args.config}: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    try:
        return args.handler(args)
    except (InvalidSpec, ParityError, BudgetOutOfRange, DimensionMismatch,
            InfeasibleTau, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
