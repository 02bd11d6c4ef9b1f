"""Command-line front end: solve, allocate, simulate, verify, sweep.

All output is machine readable (JSON, CSV for sweeps) with floats printed to
12 significant digits; identical arguments and seed produce byte-identical
output.  Randomness never comes from the clock: the seed defaults to 0.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import io
import itertools
import json
import math
import sys

import numpy as np

from . import __version__
from .allocation import allocate, complete_split
from .errors import InvalidSpec, PatrolGameError, SearchSpaceExceeded, Unsupported
from .graphs import BIPARTITE, COMPLETE, GENERAL, build_graph, validate_attack_durations
from .markov import capture_probability, simulate_capture
from .oracles import (
    BoundSuiteConfig,
    allocation_agreement_suite,
    bound_suite,
    monte_carlo_suite,
)
from .synthesis import complete_values, generic_capture_bound, synthesize

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_INFEASIBLE = 2
EXIT_UNSUPPORTED = 3
EXIT_GUARD = 4

# the CLI reads no edge list, so it never builds a general graph
_GENERAL_REFUSED = {
    "solve": "no strategy synthesis for the general family",
    "simulate": "no strategy synthesis for the general family",
    "allocate": "general allocation is unsupported",
    "sweep": "unsupported sweep family 'general'",
}
# each family's size flags, and the graph-descriptor key each one sets
_SIZES = {"complete": {"n": "n"}, "star": {"n": "n"}, "bipartite": {"np": "n_p", "nq": "n_q"}}

SWEEP_ROW_LIMIT = 10_000
# solve and simulate run the recursion: tau_max - 1 steps of 2 n^3 flops and
# a fixed cost (5 us at n = 3 on a 2-core host that does 2e10 flop/s at large
# n); the limit, about 5 s there, is 30 times an n = 200, tau_max = 200 solve
RECURSION_STEP_FLOPS = 100_000
RECURSION_FLOP_LIMIT = 10**11
_CSV_COLUMNS = ("family", "n", "n_p", "n_q", "tau", "B", "mu", "w", "bound", "ratio")


def _fields(obj) -> dict:
    """A dataclass's fields in declaration order, without the ones set to None.

    A field is keyed by its name, or by the "json" entry of its metadata.
    """
    values = ((f.metadata.get("json", f.name), getattr(obj, f.name))
              for f in dataclasses.fields(obj))
    return {key: value for key, value in values if value is not None}


_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_text(token: str) -> str:
    """json's spelling of the float that a "%.12g" token denotes."""
    # fixed notation with a point holds at most 12 digits, which is already
    # the shortest repr of the float it parses to
    if "." in token and "e" not in token:
        return token
    return _NONFINITE.get(token) or repr(float(token))


def _write_json(obj, newline: str, parts: list[str]) -> None:
    """Append `obj` as indent-2 JSON; `newline` is a line break plus the
    indentation of the line `obj` starts on."""
    if isinstance(obj, float):
        parts.append(_float_text("%.12g" % obj))
        return
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind != "f" or obj.ndim == 0:
            obj = obj.tolist()
        elif obj.ndim == 1 and obj.size:
            # one formatting pass per row of floats
            inner = newline + "  "
            tokens = map(_float_text, map("%.12g".__mod__, obj.tolist()))
            parts.append(f"[{inner}{(',' + inner).join(tokens)}{newline}]")
            return
    elif dataclasses.is_dataclass(obj):
        obj = _fields(obj)
    if isinstance(obj, dict):
        items = [(json.dumps(key) + ": ", value) for key, value in obj.items()]
        brackets = "{}"
    elif isinstance(obj, (list, tuple, np.ndarray)):
        items = [("", value) for value in obj]
        brackets = "[]"
    else:
        parts.append(json.dumps(obj))
        return
    if not items:
        parts.append(brackets)
        return
    inner = newline + "  "
    parts.append(brackets[0])
    for index, (key, value) in enumerate(items):
        parts.append(("," if index else "") + inner + key)
        _write_json(value, inner, parts)
    parts.append(newline + brackets[1])


def _dump_json(data) -> str:
    """`data` as indent-2 JSON text with a final newline, every float rounded
    to 12 significant digits so that output is stable across runs.

    Dataclasses become objects of their `_fields`; arrays and tuples become
    lists.  The text is what `json.dumps(..., indent=2)` gives for that data.
    """
    parts: list[str] = []
    _write_json(data, "\n", parts)
    parts.append("\n")
    return "".join(parts)


def _write_output(text: str, out: str | None) -> None:
    if not out:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise InvalidSpec(f"cannot write --out {out}: {exc.strerror}") from exc


def _parse_int_list(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(",") if part != "")


def _parse_range(text: str | None) -> tuple[int, ...] | range:
    """Accepts '4', '2,3,5', or '2..6' (inclusive)."""
    if text is None:
        return ()
    if ".." in text:
        lo, hi = text.split("..", 1)
        return range(int(lo), int(hi) + 1)
    return _parse_int_list(text)


def _sizes(args: argparse.Namespace, command: str, parse, *extra: str, **fallback) -> dict:
    """The family's sizes, `parse`d and keyed for `build_graph`; an unset
    size flag takes its `fallback`.  `InvalidSpec` names a size flag the
    family does not read, or every flag that `command` needs when a size or
    an `extra` flag is still unset."""
    flags = _SIZES.get(args.family, {})
    stray = [flag for flag in ("n", "np", "nq")
             if flag not in flags and getattr(args, flag) is not None]
    if flags and stray:
        raise InvalidSpec(f"{args.family} {command} does not read --{stray[0]}")
    sizes = {key: fallback.get(key) if getattr(args, flag) is None else getattr(args, flag)
             for flag, key in flags.items()}
    if None in sizes.values() or any(getattr(args, flag) is None for flag in extra):
        *listed, last = (f"--{flag}" for flag in (*flags, *extra))
        raise InvalidSpec(f"{args.family} {command} needs "
                          + (f"{', '.join(listed)} and {last}" if listed else last))
    return {key: parse(text) for key, text in sizes.items()}


def _solve_common(args: argparse.Namespace):
    """Shared by solve and simulate: returns (tau, result, capture) or an exit
    code; `capture` is the recursion report the closed form was checked against."""
    if not args.tau:
        raise InvalidSpec("--tau is required")
    tau = _parse_int_list(args.tau)
    sizes = _sizes(args, args.command, int, n=len(tau))
    flops = (max(tau, default=1) - 1) * (2 * sum(sizes.values())**3 + RECURSION_STEP_FLOPS)
    if flops > RECURSION_FLOP_LIMIT:
        raise SearchSpaceExceeded(
            f"recursion of {flops:.3g} flops exceeds {RECURSION_FLOP_LIMIT:.0e}")
    graph = build_graph({"family": args.family, **sizes})
    report = validate_attack_durations(graph, tau)
    if report.condition1_violations:
        sys.stderr.write(_dump_json(report))
        return EXIT_INFEASIBLE
    result = synthesize(graph, tau)
    capture = capture_probability(result.P, tau)
    if abs(capture.mu - result.mu) > args.tol:
        print(f"error: closed form {result.mu} disagrees with recursion {capture.mu}",
              file=sys.stderr)
        return EXIT_FAILURE
    return tau, result, capture


def cmd_solve(args: argparse.Namespace) -> int:
    outcome = _solve_common(args)
    if isinstance(outcome, int):
        return outcome
    _, result, capture = outcome
    payload = _fields(result)
    if args.emit_cdf:
        payload["worst_pair"] = capture.worst_pair
        payload["cdf"] = capture.cdf
    _write_output(_dump_json(payload), args.out)
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    outcome = _solve_common(args)
    if isinstance(outcome, int):
        return outcome
    tau, result, _ = outcome
    sim = simulate_capture(result.P, tau, trials=args.trials, seed=args.seed)
    payload = {"mu_exact": result.mu, **_fields(sim)}
    _write_output(_dump_json(payload), args.out)
    return EXIT_OK


def cmd_allocate(args: argparse.Namespace) -> int:
    graph = build_graph({"family": args.family, **_sizes(args, "allocation", int, "B")})
    budget = int(args.B)
    allocation = allocate(graph, budget)
    strategy = synthesize(graph, allocation.tau)
    payload = _fields(allocation)
    payload.update(P=strategy.P, pi=strategy.pi, optimality=strategy.optimality)
    if args.compare_uniform:
        # an in-range budget always leaves the uniform split feasible:
        # B > n gives every node >= 1, B > 2n every two-sided node >= 2
        level = budget // graph.n
        if graph.family == BIPARTITE:
            level -= level % 2
        uniform = synthesize(graph, (level,) * graph.n)
        payload["uniform"] = {"tau": (level,) * graph.n, "mu": uniform.mu}
        payload["mu_delta"] = allocation.mu - uniform.mu
    _write_output(_dump_json(payload), args.out)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    if args.suite == "bounds":
        report = bound_suite(BoundSuiteConfig(seed=args.seed))
    elif args.suite == "alloc-oracle":
        report = allocation_agreement_suite(nmax=args.nmax, tolerance=args.tol)
    else:
        report = monte_carlo_suite(trials=args.trials, seed=args.seed)
    if args.out:
        _write_output(_dump_json(report.checks), args.out)
    for check in report.checks:
        if not check.passed:
            print(f"FAIL {check.instance}: expected {check.expected}, got {check.actual}",
                  file=sys.stderr)
    print(report.summary)
    return EXIT_OK if report.passed else EXIT_FAILURE


def _sweep_cell(graph, budgets, taus) -> list[tuple]:
    """((column, value), durations, mu, w) of each budget, then each uniform
    tau, of one size cell; a refusal is the first bad point's, in that order."""
    points = [("B", B) for B in budgets] + [("tau", tau) for tau in taus]
    uniform = [(tau,) * graph.n for tau in taus]
    if graph.family == COMPLETE:
        # every point passes the checks of allocate and synthesize before one
        # batched bisection solves the cell
        durations = [complete_split(graph.n, B) for B in budgets] + uniform
        ws = complete_values(durations).tolist()
        return list(zip(points, durations, [1.0 - w for w in ws], ws))
    results = [allocate(graph, B) for B in budgets]
    durations = [allocation.tau for allocation in results] + uniform
    results += [synthesize(graph, tau) for tau in uniform]
    return list(zip(points, durations, [r.mu for r in results], [r.w for r in results]))


def cmd_sweep(args: argparse.Namespace) -> int:
    """One CSV row per size cell and budget, then per cell and uniform tau."""
    budgets, taus = _parse_range(args.B), _parse_range(args.tau)
    ranges = _sizes(args, "sweep", _parse_range)
    if args.B is None and args.tau is None:
        raise InvalidSpec(f"{args.family} sweep needs --B or --tau")
    count = math.prod(map(len, ranges.values())) * (len(budgets) + len(taus))
    if count > SWEEP_ROW_LIMIT:
        raise SearchSpaceExceeded(f"sweep grid of {count} rows exceeds {SWEEP_ROW_LIMIT}")
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=_CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for sizes in itertools.product(*ranges.values()):
        cell = dict(zip(ranges, sizes))
        graph = build_graph({"family": args.family, **cell})
        for (key, value), durations, mu, w in _sweep_cell(graph, budgets, taus):
            bound = generic_capture_bound(durations)
            row = {"family": args.family, **cell, key: value,
                   "mu": mu, "w": w, "bound": bound, "ratio": mu / bound}
            writer.writerow({k: f"{v:.12g}" if isinstance(v, float) else v
                             for k, v in row.items()})
    _write_output(buffer.getvalue(), args.out)
    return EXIT_OK


def _tolerance(text: str) -> float:
    """A --tol value; nan is refused, because every comparison with it is false."""
    with contextlib.suppress(ValueError):
        if 0 <= (value := float(text)) < math.inf:
            return value
    raise argparse.ArgumentTypeError(f"must be a finite number >= 0, not {text!r}")


# every flag; sizes, budget and tau take "4", "2,3,5", or "2..6" (ranges only in sweep)
_FLAGS = {
    "family": {"choices": ("complete", "bipartite", "star", "general")},
    "n": {}, "np": {}, "nq": {}, "tau": {}, "B": {},
    "suite": {"choices": ("bounds", "alloc-oracle", "montecarlo"), "required": True},
    "trials": {"type": int, "default": 100_000},
    "seed": {"type": int, "default": 0},
    "tol": {"type": _tolerance},
    "nmax": {"type": int, "default": 4},
    "emit-cdf": {"action": "store_true"},
    "compare-uniform": {"action": "store_true"},
    "out": {}, "config": {},
}

# each subcommand: handler, help line, exactly the flags the handler reads, own defaults
_COMMANDS = {
    "solve": (cmd_solve, "synthesize a patrol strategy",
              "family n np nq tau tol out config emit-cdf", {"tol": 1e-9}),
    "allocate": (cmd_allocate, "optimally split a defense budget",
                 "family n np nq B out config compare-uniform", {}),
    "simulate": (cmd_simulate, "Monte Carlo check of a strategy",
                 "family n np nq tau trials seed tol out config", {"tol": 1e-9}),
    "verify": (cmd_verify, "run a verification suite",
               "trials seed tol out config suite nmax", {"tol": 1e-10}),
    "sweep": (cmd_sweep, "emit CSV rows over a parameter grid",
              "family n np nq tau B out config", {}),
}


def _scenario_value(flag: str, value):
    """A --config value, converted and checked the way the flag's own is."""
    spec = _FLAGS[flag]
    if spec.get("action") == "store_true":
        if isinstance(value, bool):
            return value
    elif isinstance(value, (str, int, float, list)) and not isinstance(value, bool):
        text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
        with contextlib.suppress(ValueError, argparse.ArgumentTypeError):
            parsed = spec.get("type", str)(text)
            if "choices" not in spec or parsed in spec["choices"]:
                return parsed
    raise InvalidSpec(f"invalid --{flag} value {value!r}")


def _scenario_defaults(command: str, path: str) -> dict:
    """Scenario values for `command`'s flags except --config; other keys are ignored."""
    try:
        with open(path, encoding="utf-8") as handle:
            scenario = json.load(handle)
        if not isinstance(scenario, dict):
            raise InvalidSpec("a scenario file must hold one JSON object")
        scenario = {key.replace("_", "-"): value for key, value in scenario.items()}
        return {flag.replace("-", "_"): _scenario_value(flag, scenario[flag])
                for flag in _COMMANDS[command][2].split() if flag in scenario and flag != "config"}
    except (OSError, ValueError, InvalidSpec) as exc:
        raise InvalidSpec(f"cannot read --config {path}: {exc}") from exc


def build_parser(scenario: dict[str, dict] | None = None) -> argparse.ArgumentParser:
    """The CLI's parser; `scenario` maps a subcommand to defaults that replace its own.

    Without `scenario` no flag is required: the parse that finds --config must
    not reject a required flag that the scenario file may supply.
    """
    parser = argparse.ArgumentParser(
        prog="patrolgame",
        description="Patrol strategies and defense placement for surveillance games")
    parser.add_argument("--version", action="version", version=__version__)
    commands = parser.add_subparsers(dest="command", required=True)
    for name, (handler, help_text, flags, defaults) in _COMMANDS.items():
        # no abbreviations: `verify --n 3` must not become `--nmax 3`
        command = commands.add_parser(name, help=help_text, allow_abbrev=False)
        overrides = (scenario or {}).get(name, {})
        for flag in flags.split():
            spec = _FLAGS[flag]
            if spec.get("required"):
                spec = {**spec, "required": scenario is not None and flag not in overrides}
            command.add_argument(f"--{flag}", **spec)
        command.set_defaults(handler=handler, **{**defaults, **overrides})
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.config or any(spec.get("required") and getattr(args, flag, "") is None
                              for flag, spec in _FLAGS.items()):
            # parsing again with the scenario as defaults lets every given flag
            # win, and rejects a required flag that neither supplies
            defaults = _scenario_defaults(args.command, args.config) if args.config else {}
            args = build_parser({args.command: defaults}).parse_args(argv)
        if getattr(args, "family", None) == GENERAL:
            raise Unsupported(_GENERAL_REFUSED[args.command])
        return args.handler(args)
    except (PatrolGameError, ValueError, OverflowError) as exc:
        # every one-line refusal ends here; a bad number in a flag
        # (ValueError, OverflowError) is refused like a bad spec
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, SearchSpaceExceeded):
            return EXIT_GUARD
        return EXIT_UNSUPPORTED if isinstance(exc, Unsupported) else EXIT_INFEASIBLE


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
