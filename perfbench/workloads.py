"""Seeded operation lists for the three benchmark workloads.

An operation is one request from a closed-loop client: `run` calls the
program through its public API or through `patrolgame.cli.main`, and `check`
judges the answer afterwards, outside the timed region.  Every name in
`patrolgame` is looked up when an operation runs, so timing wrappers
installed by the tracer see the call.

Sizes and the largest attack duration of every slot are fixed, so that each
seed costs about the same; the seed draws the remaining durations, the
strategy matrices, lazy-tour probabilities, sweep windows, and the oracle,
simulation and suite seeds.  Why each
workload exists and which layers it loads is recorded in WORKLOADS.md.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

import patrolgame as pg
import patrolgame.cli

WORKLOADS = ("exact-large", "oracle-search", "verify-sweep")

RECURSION_GAP_TOL = 1e-9
EVALUATOR_AGREEMENT_TOL = 1e-12
BOUND_SLACK = 1e-9
# A direct solve leaves a residual near 1e-16 and a converged power iteration
# about 1e-12 on these chains; 1e-10 sits two orders above both.
STATIONARY_RESIDUAL_TOL = 1e-10
STAR_OPTIMALITY_SLACK = 1e-6
MONTE_CARLO_TRIALS = 100_000
SIMULATE_TAU = (2, 3, 3, 4)
SIMULATION_SIGMAS = 5.0


@dataclass(frozen=True)
class Op:
    """One closed-loop request and the check of its answer."""

    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]  # None when the answer is right
    evaluations: Callable[[object], int]   # answers evaluated, see WORKLOADS.md
    output_bytes: Callable[[object], int] = lambda out: 0


def call_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = pg.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _one(_out) -> int:
    return 1


def _cli_bytes(out) -> int:
    return len(out[1].encode())


def _cli_error(out) -> str | None:
    code, _, stderr = out
    return f"exit {code}: {stderr.strip()[:200]}" if code != 0 else None


def _seeded_tau(rng: np.random.Generator, n: int, low: int, cap: int,
                pin: int | None = None) -> np.ndarray:
    """Durations drawn from [low, cap] with one entry pinned to cap."""
    tau = rng.integers(low, cap + 1, size=n)
    tau[int(rng.integers(n)) if pin is None else pin] = cap
    return tau


# --- exact-large --------------------------------------------------------------

def solve_op(family: str, sizes: tuple[int, ...], tau: np.ndarray) -> Op:
    if family == "bipartite":
        argv = ["solve", "--family", family, "--np", str(sizes[0]), "--nq", str(sizes[1])]
    else:
        argv = ["solve", "--family", family, "--n", str(sizes[0])]
    argv += ["--tau", ",".join(str(int(t)) for t in tau), "--emit-cdf"]

    def check(out) -> str | None:
        if error := _cli_error(out):
            return error
        payload = json.loads(out[1])
        gap = abs(float(np.min(payload["cdf"])) - payload["mu"])
        if gap > RECURSION_GAP_TOL:
            return f"recursion gap {gap:.3g}"
        return None

    return Op(f"solve {family} n={sum(sizes)}", lambda: call_cli(argv), check,
              _one, _cli_bytes)


def evaluate_op(kind: str, P: np.ndarray, tau: np.ndarray) -> Op:
    def run():
        pi = pg.stationary_distribution(P)
        report = pg.capture_probability(P, tau)
        streamed = pg.markov.min_capture_evaluator(tau)(P)
        bound = pg.capture_upper_bound(pi, tau, report.mu)
        return pi, report, streamed, bound

    def check(out) -> str | None:
        pi, report, streamed, bound = out
        if abs(report.mu - streamed) > EVALUATOR_AGREEMENT_TOL:
            return f"evaluator disagrees by {abs(report.mu - streamed):.3g}"
        if report.mu > bound.stationary_bound + BOUND_SLACK:
            return f"mu {report.mu:.6g} above min pi*tau {bound.stationary_bound:.6g}"
        residual = float(np.abs(pi @ P - pi).max())
        if residual > STATIONARY_RESIDUAL_TOL:
            return f"stationary residual {residual:.3g}"
        return None

    return Op(f"evaluate {kind} n={len(tau)}", run, check, _one)


def dirichlet_strategy(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.dirichlet(np.ones(n), size=n)


def lazy_tour(rng: np.random.Generator, n: int) -> np.ndarray:
    """Stay at i with probability s_i, else step to i+1 (mod n)."""
    stay = rng.uniform(0.1, 0.9, size=n)
    P = np.zeros((n, n))
    idx = np.arange(n)
    P[idx, idx] = stay
    P[idx, (idx + 1) % n] = 1.0 - stay
    return P


# Latency percentiles fall on plateaus of same-kind operations, so that seeds
# and noise do not move them across a gap in the cost ladder: with 20
# operations per pass the median sits inside the four n=200 Dirichlet
# evaluations and p75 inside the four star solves.
CHEAP_DIRICHLET = (30, 60, 90, 150)
CHEAP_LAZY = (60, 120, 160, 200)
DIRICHLET_LARGE = 260   # above stationary_distribution's n=200 switch
LAZY_LARGE = 280


def _user_strategy(kind: str, rng: np.random.Generator, n: int) -> Op:
    make = dirichlet_strategy if kind == "dirichlet" else lazy_tour
    return evaluate_op(kind, make(rng, n), _seeded_tau(rng, n, 1, n // 2))


def exact_large(rng: np.random.Generator) -> list[Op]:
    ops = [_user_strategy("dirichlet", rng, n) for n in CHEAP_DIRICHLET]
    ops += [_user_strategy("lazy-tour", rng, n) for n in CHEAP_LAZY]
    ops += [_user_strategy("dirichlet", rng, 200) for _ in range(4)]
    ops.append(_user_strategy("dirichlet", rng, DIRICHLET_LARGE))
    # pin a leaf: the centre's duration does not enter the star synthesis
    ops += [solve_op("star", (200,), _seeded_tau(rng, 200, 2, 200, pin=1)) for _ in range(4)]
    ops.append(solve_op("bipartite", (100, 100), _seeded_tau(rng, 200, 2, 200)))
    ops.append(solve_op("complete", (200,), _seeded_tau(rng, 200, 1, 200)))
    ops.append(_user_strategy("lazy-tour", rng, LAZY_LARGE))
    return ops


# --- oracle-search ------------------------------------------------------------

def local_search_op(graph, tau: tuple[int, ...], restarts: int, seed: int,
                    label: str) -> Op:
    def check(report) -> str | None:
        bound = pg.generic_capture_bound(tau)
        if report.best_value > bound + BOUND_SLACK:
            return f"search value {report.best_value:.9g} above min(1, tau_max/n) {bound:.9g}"
        if graph.family == "star" and (
                report.best_value > report.closed_form_value + STAR_OPTIMALITY_SLACK):
            return (f"search {report.best_value:.9g} beats the optimal star value "
                    f"{report.closed_form_value:.9g}")
        return None

    return Op(label,
              lambda: pg.local_search_strategy(graph, tau, restarts=restarts, seed=seed),
              check, lambda report: report.candidates_examined)


PAPER_BIPARTITE_TAU = (6, 4, 4, 4, 2)
STAR_TAU = {4: (3, 2, 4, 5), 5: (2, 3, 5, 4, 4)}
COMPLETE_TAU = (2, 3, 3, 4)


def oracle_search(rng: np.random.Generator) -> list[Op]:
    # Durations are fixed and the seed draws only the search seeds, which
    # keeps the cost of a pass nearly independent of the seed.  Cheapest to
    # dearest: the median sits inside the complete-graph group and the tail
    # inside the bipartite group.
    def search(graph, tau, restarts, label):
        return local_search_op(graph, tau, restarts, int(rng.integers(2**31)), label)

    ops = [search(pg.build_star(n), STAR_TAU[n], 6, f"local-search star n={n}")
           for n in (4, 4, 4, 4, 5, 5, 5, 5)]
    # a restart's evaluation count varies by 30-35% on these instances, and
    # now and then doubles, so each operation averages 8 or 16 restarts
    ops += [search(pg.build_complete(4), COMPLETE_TAU, 8, "local-search complete n=4")
            for _ in range(8)]
    ops += [search(pg.build_bipartite(3, 2), PAPER_BIPARTITE_TAU, 16,
                   "local-search bipartite 3+2") for _ in range(8)]
    return ops


# --- verify-sweep -------------------------------------------------------------

def suite_op(label: str, run: Callable[[], object]) -> Op:
    def check(report) -> str | None:
        total = len(report.checks)
        if total == 0 or report.summary != f"PASS {total}/{total}":
            return report.summary
        return None

    return Op(label, run, check, lambda report: len(report.checks))


def sweep_op(argv: list[str], rows: int, label: str) -> Op:
    def check(out) -> str | None:
        if error := _cli_error(out):
            return error
        got = out[1].count("\n") - 1
        return None if got == rows else f"{got} rows, expected {rows}"

    return Op(label, lambda: call_cli(argv), check, lambda out: rows, _cli_bytes)


def complete_sweep(rng: np.random.Generator) -> Op:
    # every (n, tau) cell is a distinct exponent tuple: all cache misses.  A
    # row's cost grows with n, so the seed moves only the tau window.
    tau_lo = int(rng.integers(1, 21))
    argv = ["sweep", "--family", "complete", "--n", "10..29",
            "--tau", f"{tau_lo}..{tau_lo + 24}"]
    return sweep_op(argv, 20 * 25, "sweep complete n x tau")


BIPARTITE_SIDES = (6, 11)


def bipartite_sweep(rng: np.random.Generator) -> Op:
    # sides 6..11 keep every even B in (4 * 11, 4 * 6^2) inside the valid range
    lo, hi = 4 * BIPARTITE_SIDES[1] + 2, 4 * BIPARTITE_SIDES[0] ** 2 - 2
    first = lo + 2 * int(rng.integers(0, (hi - lo) // 2 - 10))
    budgets = ",".join(str(b) for b in range(first, first + 24, 2))
    sides = f"{BIPARTITE_SIDES[0]}..{BIPARTITE_SIDES[1]}"
    argv = ["sweep", "--family", "bipartite", "--np", sides, "--nq", sides, "--B", budgets]
    return sweep_op(argv, 36 * 12, "sweep bipartite np x nq x B")


def simulate_op(rng: np.random.Generator) -> Op:
    # a permutation of a fixed multiset: the seed moves the durations and the
    # random stream, not the number of walk steps
    tau = ",".join(str(int(t)) for t in rng.permutation(SIMULATE_TAU))
    argv = ["simulate", "--family", "complete", "--n", str(len(SIMULATE_TAU)), "--tau", tau,
            "--trials", str(MONTE_CARLO_TRIALS), "--seed", str(int(rng.integers(2**31)))]

    def check(out) -> str | None:
        if error := _cli_error(out):
            return error
        payload = json.loads(out[1])
        mu = payload["mu_exact"]
        # every pair of an equalized complete-graph strategy has value mu
        sigma = (mu * (1.0 - mu) / MONTE_CARLO_TRIALS) ** 0.5
        worst = float(np.max(np.abs(np.asarray(payload["estimates"]) - mu)))
        if worst > SIMULATION_SIGMAS * sigma:
            return f"estimate off by {worst / sigma:.2f} sigma"
        return None

    return Op(f"simulate complete n={len(SIMULATE_TAU)}", lambda: call_cli(argv),
              check, _one, _cli_bytes)


def verify_sweep(rng: np.random.Generator) -> list[Op]:
    # Cheapest to dearest: the median sits inside the complete-grid sweeps and
    # p75 inside the simulate requests.  Most Monte Carlo work goes through
    # `simulate`, whose cost the seed does not change; the instances that
    # monte_carlo_suite draws from its seed vary in size.
    ops = [bipartite_sweep(rng) for _ in range(4)]
    ops += [complete_sweep(rng) for _ in range(6)]
    seed = int(rng.integers(2**31))
    ops.append(suite_op("suite bounds",
                        lambda seed=seed: pg.bound_suite(pg.BoundSuiteConfig(seed=seed))))
    ops += [simulate_op(rng) for _ in range(4)]
    seed = int(rng.integers(2**31))
    ops.append(suite_op("suite montecarlo", lambda seed=seed: pg.monte_carlo_suite(
        trials=MONTE_CARLO_TRIALS, seed=seed, instances=2)))
    ops.append(suite_op("suite alloc-oracle", lambda: pg.allocation_agreement_suite(nmax=5)))
    return ops


_PASSES = {"exact-large": exact_large, "oracle-search": oracle_search,
             "verify-sweep": verify_sweep}


def build(workload: str, seed: int) -> list[Op]:
    """The operations of one pass; the same (workload, seed) gives the same inputs."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return _PASSES[workload](rng)


def warmup(workload: str) -> Op:
    """A small untimed operation of the workload's kind, run before timing."""
    rng = np.random.default_rng([0, 99])
    if workload == "exact-large":
        return solve_op("complete", (10,), _seeded_tau(rng, 10, 1, 10))
    if workload == "oracle-search":
        return local_search_op(pg.build_star(3), (2, 2, 2), 1, 0, "local-search star n=3")
    return sweep_op(["sweep", "--family", "complete", "--n", "2..4", "--tau", "1..3"], 9,
                    "sweep complete 3x3")
