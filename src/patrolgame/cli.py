"""Command-line front end: solve, allocate, simulate, verify, sweep.

All output is machine readable (JSON, CSV for sweeps) with floats printed to
12 significant digits; identical arguments and seed produce byte-identical
output.  Randomness never comes from the clock: the seed defaults to 0.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import itertools
import json
import math
import sys
from decimal import ROUND_CEILING, Context

import numpy as np

from . import __version__
from .allocation import allocate, bipartite_splits, complete_split
from .errors import InvalidSpec, PatrolGameError, SearchSpaceExceeded, Unsupported
from .graphs import COMPLETE, GENERAL, build_graph, validate_attack_durations
from .markov import capture_probability, simulate_capture, walk_work
from .oracles import (
    BoundSuiteConfig,
    allocation_agreement_suite,
    bound_suite,
    monte_carlo_suite,
    monte_carlo_suite_work,
)
from .synthesis import capture_bound, synthesize, values

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
# every command that builds a graph holds its n x n boolean adjacency and
# searches it from all n nodes, one float32 n x n product a level (at most two
# on the CLI's families): a complete solve at n = 1000 takes 0.15-0.26 s and
# 115 MB peak RSS on a 2-core host; the limit admits n = 1000, five times the
# n = 200 of the largest graph a benchmark request builds
ADJACENCY_LIMIT = 10**6
# solve and simulate run the recursion for tau_max - 1 steps.  A synthesized
# strategy has r = 1 or 2 distinct rows, so from n = 12 r the kernel carries an
# r x n recursion, and below it the dense product.  At the limit, on a 2-core
# host, a solve took 5.5 s (complete n = 1000), 6.5 s (star n = 1000), 11.7 s
# (500 + 500), 15.5 s (complete n = 11, dense) and 34 s (12 + 11, dense, the
# slowest measured).  A faster kernel cannot lift the limit by itself: the
# closed-form gap is P's rounding magnified by tau, whatever the kernel
# (complete n = 3, tau (T, 2, 2): 1.38e-11 at T = 1000001, 4.2e-11 at 3000001,
# about 0.12 T eps), so it would reach CLOSED_FORM_TOL near T = 7e6 on K3, and
# near 2e6 at the worst slope measured (0.46 tau eps), until the tolerance is
# derived from tau
RECURSION_STEP_LIMIT = 10**6
# simulate and the montecarlo suite walk: markov.walk_work counts walker-column
# steps; at the limit a walk at n = 2-30 takes 1.4-3.9 s at 1e5 trials (0.45 s on
# equal rows, n = 30) and 1.6-3.4 s at 1 trial on the same host; the limit is
# 7.7x a default montecarlo suite's bound (1.29e8), 155x a 1e5-trial n = 4, tau 4 walk
WALK_WORK_LIMIT = 10**9
# the largest closed-form vs recursion gap that solve, simulate and allocate
# accept; the largest measured at the recursion limit, 1e6 steps, is 1.4e-11
# (complete n = 3, tau (1000001, 2, 2)), the dense product's rounding; on the
# r x n path, n = 1000, it stays below 1e-16
CLOSED_FORM_TOL = 1e-10
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


class _Text(str):
    """JSON text already spelled out, which `_write_json` appends as it is."""


def _float_rows(array: np.ndarray, newline: str):
    """A non-empty float array as nested lists of `_Text` rows, each indented
    for its line; each distinct row, and each distinct float in those rows,
    is formatted once, keyed by its bytes (0.0 and -0.0 print differently)."""
    width = array.shape[-1]
    first: dict[bytes, int] = {}
    index = [first.setdefault(row.tobytes(), len(first))
             for row in np.ascontiguousarray(array, dtype=np.float64).reshape(-1, width)]
    keys, inverse = np.unique(np.frombuffer(b"".join(first), np.int64), return_inverse=True)
    values = tuple(keys.view(np.float64).tolist())
    # one "%" over every value: a call per value costs more than its format
    texts = list(map(_float_text, ("%.12g " * len(values) % values).split()))
    items = np.array(texts, dtype=object)[inverse].tolist()
    outer = newline + "  " * (array.ndim - 1)
    inner = outer + "  "
    rows = [_Text(f"[{inner}{(',' + inner).join(items[start:start + width])}{outer}]")
            for start in range(0, len(items), width)]
    return np.array(rows, dtype=object)[index].reshape(array.shape[:-1]).tolist()


def _write_json(obj, newline: str, parts: list[str]) -> None:
    """Append `obj` as indent-2 JSON; `newline` is a line break plus the
    indentation of the line `obj` starts on."""
    if isinstance(obj, np.ndarray):
        # a 0-d float array lists as a float, rounded below
        rows = obj.dtype.kind == "f" and obj.ndim and obj.size
        obj = _float_rows(obj, newline) if rows else obj.tolist()
    elif dataclasses.is_dataclass(obj):
        obj = _fields(obj)
    if isinstance(obj, _Text):
        parts.append(obj)
        return
    if isinstance(obj, float):
        parts.append(_float_text("%.12g" % obj))
        return
    if isinstance(obj, dict):
        items = [(json.dumps(key) + ": ", value) for key, value in obj.items()]
        brackets = "{}"
    elif isinstance(obj, (list, tuple)):
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
    lists.  Each distinct row of a float array is formatted once.  The text
    is what `json.dumps(..., indent=2)` gives for that data.
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
    return tuple(map(int, text.split(",")))


def _parse_range(text: str | None) -> tuple[int, ...] | range:
    """Accepts '4', '2,3,5', or '2..6' (inclusive)."""
    if text is None:
        return ()
    if ".." in text:
        lo, hi = text.split("..", 1)
        return range(int(lo), int(hi) + 1)
    return _parse_int_list(text)


def _count(points: tuple[int, ...] | range) -> int:
    """len(points), counted for a range too, where len() stops at sys.maxsize."""
    return max(0, points.stop - points.start) if isinstance(points, range) else len(points)


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


def _count_text(count: int) -> str:
    """A count of 1000 or more as "%.3g" spells it, but rounded up, so a count
    past its limit never prints as the limit, and without a float conversion,
    so a count past the float range still prints."""
    rounded = Context(prec=3, rounding=ROUND_CEILING).create_decimal(count)
    mantissa, exponent = format(rounded, "e").split("e")
    return f"{mantissa.rstrip('0').rstrip('.')}e{int(exponent):+03d}"


def _check_work(count: int, limit: int, what: str) -> None:
    """SearchSpaceExceeded, naming the estimate, when `count` is past `limit`;
    `what` spells the work with a {} for the count."""
    if count > limit:
        raise SearchSpaceExceeded(f"{what.format(_count_text(count))} exceeds {limit:.0e}")


def _graph(family: str, sizes: dict):
    """`build_graph` of `family` and `sizes`; SearchSpaceExceeded, before
    anything is built, when the graph's adjacency is past ADJACENCY_LIMIT."""
    _check_work(sum(sizes.values()) ** 2, ADJACENCY_LIMIT, "adjacency of {} node pairs")
    return build_graph({"family": family, **sizes})


def _checked_capture(P: np.ndarray, tau, mu: float):
    """The recursion's report on strategy P, or None, with a one-line error
    on stderr, when its value is further than CLOSED_FORM_TOL from the
    closed form `mu` that the command prints."""
    capture = capture_probability(P, tau)
    if abs(capture.mu - mu) <= CLOSED_FORM_TOL:
        return capture
    print(f"error: closed form {mu} disagrees with recursion {capture.mu}", file=sys.stderr)
    return None


def cmd_solve(args: argparse.Namespace) -> int:
    """solve and simulate: the family's strategy, its closed form checked
    against the hitting-time recursion, then either the strategy (with the
    recursion's report under --emit-cdf) or a Monte Carlo walk of it."""
    if not args.tau:
        raise InvalidSpec("--tau is required")
    if args.command == "simulate":
        _fill(args, _SUITES["montecarlo"])
    tau = _parse_int_list(args.tau)
    sizes = _sizes(args, args.command, int, n=len(tau))
    n = sum(sizes.values())
    # walk_work refuses trials < 1 before either guard; solve walks nothing
    walk = walk_work(n, max(tau, default=1), args.trials) if args.command == "simulate" else 0
    _check_work(max(tau, default=1) - 1, RECURSION_STEP_LIMIT, "recursion of {} steps")
    _check_work(walk, WALK_WORK_LIMIT, "walk of {} walker-column steps")
    graph = _graph(args.family, sizes)
    report = validate_attack_durations(graph, tau)
    if not report.nontrivial:
        sys.stderr.write(_dump_json(report))
        return EXIT_INFEASIBLE
    result = synthesize(graph, tau)
    capture = _checked_capture(result.P, tau, result.mu)
    if capture is None:
        return EXIT_FAILURE
    if args.command == "simulate":
        sim = simulate_capture(result.P, tau, trials=args.trials, seed=args.seed)
        payload = {"mu_exact": result.mu, **_fields(sim)}
    else:
        payload = _fields(result)
        if args.emit_cdf:
            payload.update(worst_pair=capture.worst_pair, cdf=capture.cdf)
    _write_output(_dump_json(payload), args.out)
    return EXIT_OK


def cmd_allocate(args: argparse.Namespace) -> int:
    graph = _graph(args.family, _sizes(args, "allocation", int, "B"))
    budget = int(args.B)
    allocation = allocate(graph, budget)
    strategy = synthesize(graph, allocation.tau)
    if _checked_capture(strategy.P, allocation.tau, allocation.mu) is None:
        return EXIT_FAILURE
    payload = _fields(allocation)
    payload.update(P=strategy.P, pi=strategy.pi, optimality=strategy.optimality)
    if args.compare_uniform:
        # an in-range budget always leaves the uniform split feasible:
        # B > n gives every node >= 1, B > 2n every two-sided node >= 2
        level = budget // graph.n
        level -= level % len(graph.sides)
        tau = (level,) * graph.n
        uniform = synthesize(graph, tau)
        if _checked_capture(uniform.P, tau, uniform.mu) is None:
            return EXIT_FAILURE
        payload["uniform"] = {"tau": tau, "mu": uniform.mu}
        payload["mu_delta"] = allocation.mu - uniform.mu
    _write_output(_dump_json(payload), args.out)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    if args.suite is None:
        raise InvalidSpec("verify needs --suite")
    reads = _SUITES[args.suite]
    stray = [flag for flag in _SUITE_FLAGS if flag not in reads and getattr(args, flag) is not None]
    if stray:
        raise InvalidSpec(f"the {args.suite} suite does not read --{stray[0]}")
    _fill(args, reads)
    if args.suite == "bounds":
        report = bound_suite(BoundSuiteConfig(seed=args.seed))
    elif args.suite == "alloc-oracle":
        report = allocation_agreement_suite(nmax=args.nmax)
    else:
        _check_work(monte_carlo_suite_work(args.trials), WALK_WORK_LIMIT,
                    "walk of {} walker-column steps")
        report = monte_carlo_suite(trials=args.trials, seed=args.seed)
    if args.out:
        _write_output(_dump_json(report.checks), args.out)
    for check in report.checks:
        if not check.passed:
            print(f"FAIL {check.instance}: expected {check.expected}, got {check.actual}",
                  file=sys.stderr)
    print(report.summary)
    return EXIT_OK if report.passed else EXIT_FAILURE


def _sweep_cell(graph, budgets, taus, sides: dict) -> list[tuple]:
    """((column, value), w, tau_max) of each budget, then each uniform tau, of
    one size cell, side values memoized in `sides`; a refusal is the first bad point's."""
    n = graph.n
    uniform = ((tau,) * n for tau in taus)  # each row read once, by `values`
    if graph.family == COMPLETE:
        rows = itertools.chain((complete_split(n, B) for B in budgets), uniform)
        ws, largest = values(graph, rows).tolist(), [-(-B // n) for B in budgets]  # ceil(B/n)
    else:  # one call places a cell's bipartite budgets; a star has no placement rule
        splits = bipartite_splits(graph, budgets, sides) if budgets else []
        ws = [max(w_p, w_q) for _, w_p, w_q in splits] + values(graph, uniform).tolist()
        largest = [2 * max(-(-units // graph.n_p), -(-(B // 2 - units) // graph.n_q))
                   for B, (units, _, _) in zip(budgets, splits)]
    points = [("B", B) for B in budgets] + [("tau", tau) for tau in taus]
    return list(zip(points, ws, itertools.chain(largest, taus)))


def cmd_sweep(args: argparse.Namespace) -> int:
    """One CSV row per size cell and budget, then per cell and uniform tau."""
    budgets, taus = _parse_range(args.B), _parse_range(args.tau)
    ranges = _sizes(args, "sweep", _parse_range)
    if args.B is None and args.tau is None:
        raise InvalidSpec(f"{args.family} sweep needs --B or --tau")
    count = math.prod(map(_count, ranges.values())) * (_count(budgets) + _count(taus))
    if count > SWEEP_ROW_LIMIT:
        raise SearchSpaceExceeded(f"sweep grid of {count} rows exceeds {SWEEP_ROW_LIMIT}")
    lines = [",".join(_CSV_COLUMNS)]
    sides = {}  # bipartite side values by (side size, units), for every cell of this sweep
    # product() lists every range, so a grid without points must not call it
    for sizes in itertools.product(*ranges.values()) if budgets or taus else ():
        cell = dict(zip(ranges, sizes))
        graph = _graph(args.family, cell)
        # fields in _CSV_COLUMNS order, none quoted: each is a family name, an int or a float
        head = ",".join([args.family, *(str(cell.get(key, "")) for key in _CSV_COLUMNS[1:4])])
        for (key, value), w, tau_max in _sweep_cell(graph, budgets, taus, sides):
            mu, bound = 1.0 - w, capture_bound(tau_max, graph.n)
            point = f"{value}," if key == "tau" else f",{value}"
            lines.append(f"{head},{point},{mu:.12g},{w:.12g},{bound:.12g},{mu / bound:.12g}")
    _write_output("\n".join(lines) + "\n", args.out)
    return EXIT_OK


# each verify suite's flags and their defaults; simulate walks with the
# montecarlo suite's.  Every flag parses to None when it is not given, so a
# suite refuses one it does not read, and a --config scenario, then these
# defaults, fill only the flags the command line left unset
_SUITE_FLAGS = ("trials", "seed", "nmax")
_SUITES = {
    "bounds": {"seed": 0},
    "alloc-oracle": {"nmax": 4},
    "montecarlo": {"trials": 100_000, "seed": 0},
}

# every flag; sizes, budget and tau take "4", "2,3,5", or "2..6" (ranges only in sweep)
_FLAGS = {
    "family": {"choices": ("complete", "bipartite", "star", "general")},
    "n": {}, "np": {}, "nq": {}, "tau": {}, "B": {},
    "suite": {"choices": tuple(_SUITES)},
    "trials": {"type": int}, "seed": {"type": int}, "nmax": {"type": int},
    "emit-cdf": {"action": "store_true", "default": None},
    "compare-uniform": {"action": "store_true", "default": None},
    "out": {}, "config": {},
}

# each subcommand: handler, help line, exactly the flags the handler reads
_COMMANDS = {
    "solve": (cmd_solve, "synthesize a patrol strategy",
              "family n np nq tau out config emit-cdf"),
    "allocate": (cmd_allocate, "optimally split a defense budget",
                 "family n np nq B out config compare-uniform"),
    "simulate": (cmd_solve, "Monte Carlo check of a strategy",
                 "family n np nq tau trials seed out config"),
    "verify": (cmd_verify, "run a verification suite",
               "trials seed out config suite nmax"),
    "sweep": (cmd_sweep, "emit CSV rows over a parameter grid",
              "family n np nq tau B out config"),
}


def _scenario_value(flag: str, value):
    """A --config value, converted and checked the way the flag's own is."""
    spec = _FLAGS[flag]
    if spec.get("action") == "store_true":
        if isinstance(value, bool):
            return value
    elif isinstance(value, (str, int, float, list)) and not isinstance(value, bool):
        text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
        with contextlib.suppress(ValueError):
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


def _fill(args: argparse.Namespace, values: dict) -> None:
    """Set each flag of `values` that is still unset (None) to its value."""
    for flag, value in values.items():
        if getattr(args, flag) is None:
            setattr(args, flag, value)


def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser; a flag that is not given parses to None."""
    parser = argparse.ArgumentParser(
        prog="patrolgame",
        description="Patrol strategies and defense placement for surveillance games")
    parser.add_argument("--version", action="version", version=__version__)
    commands = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, flags) in _COMMANDS.items():
        # no abbreviations: `verify --n 3` must not become `--nmax 3`
        command = commands.add_parser(name, help=help_text, allow_abbrev=False)
        for flag in flags.split():
            command.add_argument(f"--{flag}", **_FLAGS[flag])
    return parser


@functools.cache
def _default_parser() -> argparse.ArgumentParser:
    """`build_parser()`, built once: a parser sits in reference cycles, so
    each new one would be left to the cyclic collector."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _default_parser().parse_args(argv)
    try:
        if args.config:  # every given flag wins over the scenario
            _fill(args, _scenario_defaults(args.command, args.config))
        if getattr(args, "family", None) == GENERAL:
            raise Unsupported(_GENERAL_REFUSED[args.command])
        return _COMMANDS[args.command][0](args)
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
