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
from .allocation import allocate
from .errors import (
    BudgetOutOfRange,
    DimensionMismatch,
    InfeasibleTau,
    InvalidSpec,
    InvalidStart,
    NotIrreducible,
    ParityError,
    PatrolGameError,
    SearchSpaceExceeded,
    TrivialGame,
)
from .graphs import BIPARTITE, build_bipartite, build_graph, validate_attack_durations
from .markov import capture_probability, simulate_capture
from .oracles import (
    BoundSuiteConfig,
    allocation_agreement_suite,
    bound_suite,
    monte_carlo_suite,
)
from .synthesis import generic_capture_bound, synthesize

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_INFEASIBLE = 2
EXIT_UNSUPPORTED = 3
EXIT_GUARD = 4

# the one place that decides how each package error ends the process
_EXIT_CODES = {
    BudgetOutOfRange: EXIT_INFEASIBLE,
    DimensionMismatch: EXIT_INFEASIBLE,
    InfeasibleTau: EXIT_INFEASIBLE,
    InvalidSpec: EXIT_INFEASIBLE,
    InvalidStart: EXIT_INFEASIBLE,
    NotIrreducible: EXIT_INFEASIBLE,
    ParityError: EXIT_INFEASIBLE,
    SearchSpaceExceeded: EXIT_GUARD,
    TrivialGame: EXIT_INFEASIBLE,
}

SWEEP_ROW_LIMIT = 10_000
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


def _build_graph_from_args(args: argparse.Namespace):
    family = args.family
    if family in ("complete", "star"):
        n = int(args.n) if args.n is not None else len(_parse_int_list(args.tau))
        return build_graph({"family": family, "n": n})
    if family == "bipartite":
        if args.np is None or args.nq is None:
            raise InvalidSpec("bipartite needs --np and --nq")
        return build_bipartite(int(args.np), int(args.nq))
    raise InvalidSpec(f"unsupported family {family!r}")


def _solve_common(args: argparse.Namespace):
    """Shared by solve and simulate: returns (tau, result, capture) or an exit
    code; `capture` is the recursion report the closed form was checked against."""
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
        sys.stderr.write(_dump_json(report))
        return EXIT_INFEASIBLE
    try:
        result = synthesize(graph, tau)
    except InfeasibleTau as exc:
        payload = _fields(report)
        payload["nontrivial"] = False
        payload["notes"] = f"{report.notes}; {exc}"
        sys.stderr.write(_dump_json(payload))
        return EXIT_INFEASIBLE
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
    if args.family in ("star", "general"):
        print(f"error: {args.family} allocation is unsupported", file=sys.stderr)
        return EXIT_UNSUPPORTED
    sizes = ("n",) if args.family == "complete" else ("np", "nq")
    if args.B is None or any(getattr(args, size) is None for size in sizes):
        flags = ", ".join(f"--{size}" for size in sizes)
        raise InvalidSpec(f"{args.family} allocation needs {flags} and --B")
    graph = _build_graph_from_args(args)
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


def cmd_sweep(args: argparse.Namespace) -> int:
    """One CSV row per size cell and budget, then per cell and uniform tau."""
    if args.family not in ("complete", "star", "bipartite"):
        print(f"error: unsupported sweep family {args.family!r}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    budgets, taus = _parse_range(args.B), _parse_range(args.tau)
    if budgets and args.family == "star":
        print("error: star allocation is unsupported", file=sys.stderr)
        return EXIT_UNSUPPORTED
    if args.family == "bipartite":
        flags, names = ("np", "nq"), ("n_p", "n_q")
    else:
        flags = names = ("n",)
    if any(getattr(args, flag) is None for flag in flags):
        raise InvalidSpec(f"{args.family} sweep needs {' and '.join(f'--{f}' for f in flags)}")
    ranges = tuple(_parse_range(getattr(args, flag)) for flag in flags)
    count = math.prod(len(r) for r in ranges) * (len(budgets) + len(taus))
    if count > SWEEP_ROW_LIMIT:
        raise SearchSpaceExceeded(f"sweep grid of {count} rows exceeds {SWEEP_ROW_LIMIT}")
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=_CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for sizes in itertools.product(*ranges):
        cell = dict(zip(names, sizes))
        graph = build_graph({"family": args.family, **cell})
        points = []
        for B in budgets:
            allocation = allocate(graph, B)
            points.append(("B", B, allocation, allocation.tau))
        for tau in taus:
            uniform = (tau,) * graph.n
            points.append(("tau", tau, synthesize(graph, uniform), uniform))
        for key, value, result, durations in points:
            bound = generic_capture_bound(durations)
            row = {"family": args.family, **cell, key: value,
                   "mu": result.mu, "w": result.w, "bound": bound, "ratio": result.mu / bound}
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
    with open(path, encoding="utf-8") as handle:
        scenario = json.load(handle)
    if not isinstance(scenario, dict):
        raise InvalidSpec("a scenario file must hold one JSON object")
    scenario = {key.replace("_", "-"): value for key, value in scenario.items()}
    return {flag.replace("-", "_"): _scenario_value(flag, scenario[flag])
            for flag in _COMMANDS[command][2].split() if flag in scenario and flag != "config"}


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
    defaults = {}
    if args.config:
        try:
            defaults = _scenario_defaults(args.command, args.config)
        except (OSError, ValueError, InvalidSpec) as exc:
            print(f"error: cannot read --config {args.config}: {exc}", file=sys.stderr)
            return EXIT_INFEASIBLE
    if args.config or any(spec.get("required") and getattr(args, flag, "") is None
                          for flag, spec in _FLAGS.items()):
        # parsing again with the scenario as defaults lets every given flag win,
        # and rejects a required flag that neither supplies
        args = build_parser({args.command: defaults}).parse_args(argv)
    try:
        return args.handler(args)
    except PatrolGameError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_CODES[type(exc)]
    except (ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
