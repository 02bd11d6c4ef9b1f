"""Independent ground-truth generators for the closed-form results.

Exhaustive enumeration checks the allocation rules, derivative-free local
search over feasible strategy matrices checks the synthesized strategies,
and the bound suite sweeps every claimed inequality over finite ranges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from statistics import NormalDist
from typing import Iterator, Sequence

import numpy as np

from . import synthesis
from .allocation import allocate_bipartite_side, allocate_complete, co_optimize_bipartite
from .errors import InvalidSpec, ParityError, SearchSpaceExceeded
from .graphs import (
    BIPARTITE,
    COMPLETE,
    GENERAL,
    GraphTopology,
    build_bipartite,
    build_complete,
    build_star,
    check_durations,
)
from .markov import (
    _capture_cdf_stack,
    capture_probability,
    counter_stream,
    simulate_capture,
    stationary_distribution,
)

ENUMERATION_GUARD = 10_000_000
LOCAL_SEARCH_MAX_NODES = 8
LOCAL_SEARCH_TOLERANCE = 0.02
_IMPROVEMENT_EPS = 1e-7
_STEP_INITIAL = 0.2
_STEP_FINAL = 1e-3
_LOCKSTEP_WIDTH = 16
# family-wise false-alarm rate of one Monte Carlo suite run
MONTE_CARLO_FALSE_ALARM = 1e-3


@dataclass(frozen=True, eq=False)
class OracleReport:
    """Best value found by an oracle and its agreement with the closed form."""

    best_value: float
    best_candidate: object
    candidates_examined: int
    closed_form_value: float | None = None
    agreement: bool | None = None
    gap: float | None = None


def partitions(total: int, parts: int, minimum: int = 1,
               maximum: int | None = None) -> Iterator[tuple[int, ...]]:
    """All non-increasing integer tuples of length `parts` summing to `total`."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        if total >= minimum and (maximum is None or total <= maximum):
            yield (total,)
        return
    hi = total - minimum * (parts - 1)
    if maximum is not None:
        hi = min(hi, maximum)
    for first in range(hi, minimum - 1, -1):
        for rest in partitions(total - first, parts - 1, minimum, first):
            yield (first,) + rest


def _composition_count(total: int, parts: int) -> int:
    # ordered tuples of positive integers summing to `total` (stars and bars)
    if total < parts:
        return 0
    return math.comb(total - 1, parts - 1)


def _guarded(count: int) -> int:
    """`count` compositions, or SearchSpaceExceeded past `ENUMERATION_GUARD`."""
    if count > ENUMERATION_GUARD:
        raise SearchSpaceExceeded(f"{count} compositions exceed the guard {ENUMERATION_GUARD}")
    return count


def _best_multiset(n: int, total: int, step: int) -> tuple[float, tuple[int, ...]]:
    """Lowest w, solved on the units, over the multisets of n positive
    multiples of `step` that sum to `total`, and the first one attaining it."""
    best = None
    for parts in partitions(total // step, n, minimum=1):
        w = synthesis.solve_equalized_value(parts[::-1])
        if best is None or w < best[0]:
            best = (w, tuple(step * t for t in parts))
    return best


def _report(best_value: float, best_candidate, count: int, closed_form_value: float,
            tolerance: float) -> OracleReport:
    gap = abs(closed_form_value - best_value)
    return OracleReport(
        best_value=best_value, best_candidate=best_candidate,
        candidates_examined=count, closed_form_value=closed_form_value,
        agreement=gap <= tolerance, gap=gap,
    )


def exhaustive_allocation(family: str, sizes: int | Sequence[int], B: int,
                          tolerance: float = 1e-10) -> OracleReport:
    """Search every feasible allocation and compare to the closed-form rule.

    Complete graphs enumerate all compositions of B with entries >= 1;
    bipartite graphs additionally enumerate every even split of B across the
    two sides.  Permutation invariance lets the search walk multisets while
    `candidates_examined` reports the composition count covered.
    """
    if family == COMPLETE:
        n = int(sizes[0]) if isinstance(sizes, Sequence) else int(sizes)
        count = _guarded(_composition_count(B, n))
        best_w, best_tau = _best_multiset(n, B, 1)
        return _report(1.0 - best_w, best_tau, count, allocate_complete(n, B).mu, tolerance)
    if family == BIPARTITE:
        n_p, n_q = (int(s) for s in sizes)
        if B % 2:
            raise ParityError(f"bipartite budget must be even, got {B}")
        splits = range(2 * n_p, B - 2 * n_q + 1, 2)
        count = _guarded(sum(
            _composition_count(b_p // 2, n_p) * _composition_count((B - b_p) // 2, n_q)
            for b_p in splits))
        best = None
        for b_p in splits:
            w_p, tau_p = _best_multiset(n_p, b_p, 2)
            w_q, tau_q = _best_multiset(n_q, B - b_p, 2)
            mu = 1.0 - max(w_p, w_q)
            if best is None or mu > best[0]:
                best = (mu, (b_p, tau_p, tau_q))
        return _report(*best, count, co_optimize_bipartite(n_p, n_q, B).mu, tolerance)
    raise InvalidSpec(f"no exhaustive allocation for family {family!r}")


def exhaustive_side_allocation(n_side: int, B_side: int,
                               tolerance: float = 1e-10) -> OracleReport:
    """Enumerate all even allocations of one bipartite side against the rule."""
    if B_side % 2:
        raise ParityError(f"side budget must be even, got {B_side}")
    count = _guarded(_composition_count(B_side // 2, n_side))
    best_w, best_tau = _best_multiset(n_side, B_side, 2)
    return _report(best_w, best_tau, count, allocate_bipartite_side(n_side, B_side).w,
                   tolerance)


def _support(g: GraphTopology) -> list[np.ndarray]:
    """Columns each row of a strategy on `g` may put mass on (0-indexed)."""
    adjacency = g.adjacency()
    return [np.flatnonzero(adjacency[i]) for i in range(g.n)]


def _random_feasible_strategy(rng: np.random.Generator,
                              support: list[np.ndarray], n: int) -> np.ndarray:
    P = np.zeros((n, n))
    for i, cols in enumerate(support):
        if cols.size == 1:
            P[i, cols[0]] = 1.0
        else:
            P[i, cols] = rng.dirichlet(np.ones(cols.size))
    return P


def _sweep_candidates(rows: np.ndarray, cols: np.ndarray, down: np.ndarray,
                      signs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Trial rows of the moves rows[m, cols[m]] += signs[m]; overwrites `rows`.

    Returns the positions of the moves a serial sweep would score and their
    clipped, renormalized rows.  It skips a downward move on a zero entry and
    a move that leaves its row empty, as the serial sweep does.
    """
    lanes = np.arange(len(rows))
    tried = ~(down & (rows[lanes, cols] <= 0.0))
    rows[lanes, cols] += signs
    np.maximum(rows, 0.0, out=rows)
    totals = rows.sum(axis=1)
    idx = np.flatnonzero(tried & (totals > 0.0))
    return idx, rows[idx] / totals[idx, None]


def local_search_strategy(g: GraphTopology, tau: Sequence[int], restarts: int,
                          seed: int) -> OracleReport:
    """Random-restart hill climbing over strategies supported on the graph.

    Each restart samples every row uniformly from its simplex, then sweeps
    over the moves (row i, column c, +step then -step), each of which nudges
    P[i, c] by an annealed step (0.2 halved down to 1e-3), clips at zero and
    renormalizes the row.  A move is kept when it raises the capture
    probability by more than 1e-7, and sweeps repeat until none does.

    Restarts climb in lockstep rounds, at most `_LOCKSTEP_WIDTH` at a time;
    a finished restart hands its slot to the next one, so memory does not
    grow with `restarts`.  Each round builds every move left in the current
    sweep of every live restart, from that restart's own P and step, and
    scores them, with the first P of each newly admitted restart, in one
    kernel call.  Each restart keeps its first improving move in sweep order
    and resumes its sweep after it.  Every slice of the stack is computed as
    it would be alone, and each move before the kept one was scored against
    the same P a one-move-at-a-time loop would have used, so values, the kept
    matrix and the evaluation count (the candidates up to and including each
    kept move) match that loop bit for bit.  Restart r draws from
    `counter_stream(seed, r)`, and the result is the restart a reduction in
    restart order keeps: larger value wins, ties go to the lexicographically
    smaller matrix, then to the earlier restart.

    The closed-form reference is computed first, so an infeasible tau fails
    before any restart runs.
    """
    if g.n > LOCAL_SEARCH_MAX_NODES:
        raise SearchSpaceExceeded(f"local search limited to {LOCAL_SEARCH_MAX_NODES} nodes")
    if restarts < 1:
        raise InvalidSpec(f"restarts must be >= 1, got {restarts}")
    durations = check_durations(tau, g.n)
    reference = None if g.family == GENERAL else synthesis.synthesize(g, durations).mu
    support = _support(g)
    if any(cols.size == 0 for cols in support):
        raise InvalidSpec("every node needs at least one outgoing edge")
    # one sweep in order: (row, column) pairs of rows with a choice, each
    # tried upward and then downward
    moves = np.array([(i, c) for i, cols in enumerate(support) if cols.size > 1
                      for c in cols for _ in range(2)], dtype=int).reshape(-1, 2)
    move_row, move_col = moves.T
    move_down = np.arange(len(moves)) % 2 == 1

    sweep = np.arange(len(moves))
    sign = np.where(move_down, -1.0, 1.0)

    # one slot per live restart.  Matrices and values are arrays, because a
    # round gathers from them lane by lane; the rest of a slot's state (its
    # restart, step, next move in the sweep and whether this sweep improved)
    # is a handful of scalars, kept as lists and stepped in Python
    width = min(restarts, _LOCKSTEP_WIDTH)
    P = np.empty((width, g.n, g.n))
    mu = np.empty(width)
    owner = [-1] * width
    step = [0.0] * width
    start = [0] * width
    improved = [False] * width
    admitted = 0
    evaluations = 0
    best_key = best_P = None
    while True:
        new = []
        for slot in range(width):
            if owner[slot] < 0 and admitted < restarts:
                P[slot] = _random_feasible_strategy(counter_stream(seed, admitted),
                                                    support, g.n)
                owner[slot], step[slot], start[slot], improved[slot] = (
                    admitted, _STEP_INITIAL, 0, False)
                new.append(slot)
                admitted += 1
        climbing = [slot for slot in range(width) if owner[slot] >= 0 and slot not in new]
        if not new and not climbing:
            break

        # the rest of each climbing restart's sweep, restart by restart: the
        # lanes of slot s hold moves start[s], start[s] + 1, ..., in order
        counts = [len(moves) - start[slot] for slot in climbing]
        lane_slot = np.repeat(np.array(climbing, dtype=int), counts)
        lane_move = np.concatenate([sweep[start[slot]:] for slot in climbing] or [sweep[:0]])
        lane_step = np.repeat([step[slot] for slot in climbing], counts)
        idx, trials = _sweep_candidates(
            P[lane_slot, move_row[lane_move]], move_col[lane_move], move_down[lane_move],
            sign[lane_move] * lane_step)
        cand_slot, cand_move = lane_slot[idx], lane_move[idx]
        stack = P[np.concatenate((np.array(new, dtype=int), cand_slot))]
        stack[np.arange(len(new), len(stack)), move_row[cand_move]] = trials
        values = _capture_cdf_stack(stack, durations).min(axis=(1, 2))
        mu[new] = values[:len(new)]
        values = values[len(new):]

        # each restart keeps its first improving candidate in sweep order
        better = np.flatnonzero(values > mu[cand_slot] + _IMPROVEMENT_EPS)
        kept = {}
        for candidate, slot in zip(better.tolist(), cand_slot[better].tolist()):
            kept.setdefault(slot, candidate)
        kept_slot, kept_cand = list(kept), list(kept.values())
        kept_move = cand_move[kept_cand]
        P[kept_slot, move_row[kept_move]] = trials[kept_cand]
        mu[kept_slot] = values[kept_cand]
        next_move = dict(zip(kept_slot, (kept_move + 1).tolist()))

        # a restart's evaluations are its candidates up to and including the
        # kept one; the ones after it are scored again against the new P.  A
        # sweep ends when nothing in it improves or its last move is kept, and
        # a sweep without a kept move halves the step.
        evaluations += len(new) + len(cand_slot)
        per_slot = np.bincount(cand_slot, minlength=width).tolist()
        end = 0
        for slot in climbing:
            end += per_slot[slot]
            if slot in kept:
                evaluations -= end - 1 - kept[slot]
                start[slot], improved[slot] = next_move[slot], True
                if start[slot] < len(moves):
                    continue
            elif not improved[slot]:
                step[slot] *= 0.5
                if step[slot] < _STEP_FINAL:
                    key = (-float(mu[slot]), tuple(P[slot].ravel().tolist()), owner[slot])
                    if best_key is None or key < best_key:
                        best_key, best_P = key, P[slot].copy()
                    owner[slot] = -1
            start[slot], improved[slot] = 0, False
    best_mu = -best_key[0]
    gap = None if reference is None else abs(reference - best_mu)
    return OracleReport(
        best_value=best_mu, best_candidate=best_P,
        candidates_examined=evaluations, closed_form_value=reference,
        agreement=None if gap is None else gap <= LOCAL_SEARCH_TOLERANCE, gap=gap,
    )


@dataclass(frozen=True)
class CheckResult:
    """One swept instance of a claimed inequality."""

    instance: str
    expected: str
    actual: float
    passed: bool = field(metadata={"json": "pass"})


@dataclass(frozen=True)
class SuiteReport:
    """All checks from one verification sweep."""

    name: str
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def summary(self) -> str:
        good = sum(c.passed for c in self.checks)
        total = len(self.checks)
        return f"PASS {good}/{total}" if good == total else f"FAIL {good}/{total}"


# the bound suite's desk-scale ranges
_BOUND_RANDOM_INSTANCES = 500
_BOUND_RANDOM_N_MAX = 6
_BOUND_TAU_MAX = 8
_BOUND_COMPLETE_N = (2, 3, 4, 5)
_BOUND_RATIO_DRAWS = 5
_BOUND_SIDE_MAX = 8
_BOUND_SLACK = 1e-9


@dataclass(frozen=True)
class BoundSuiteConfig:
    """The bound suite's one setting: the seed of its random instances."""

    seed: int = 0


def _random_instance(rng: np.random.Generator):
    n_max = _BOUND_RANDOM_N_MAX
    kind = int(rng.integers(0, 3))
    if kind == 0:
        g = build_complete(int(rng.integers(2, n_max + 1)))
    elif kind == 1:
        g = build_bipartite(int(rng.integers(1, n_max // 2 + 1)),
                            int(rng.integers(1, n_max // 2 + 1)))
    else:
        g = build_star(int(rng.integers(2, n_max + 1)))
    P = _random_feasible_strategy(rng, _support(g), g.n)
    tau = tuple(int(t) for t in rng.integers(1, _BOUND_TAU_MAX + 1, size=g.n))
    return g, P, tau


def bound_suite(config: BoundSuiteConfig | None = None) -> SuiteReport:
    """Sweep every claimed bound over finite ranges and report each instance.

    Covers the stationary upper bound on random irreducible strategies, the
    suboptimality ratio of synthesized complete-graph strategies, the
    e**-2 floor on solved allocation values, and the constant-factor
    guarantees of the uniform two-sided baseline.
    """
    seed = (config or BoundSuiteConfig()).seed
    checks: list[CheckResult] = []

    for idx in range(_BOUND_RANDOM_INSTANCES):
        rng = counter_stream(seed, idx)
        g, P, tau = _random_instance(rng)
        pi = stationary_distribution(P)
        mu = capture_probability(P, tau).mu
        bound = float(np.min(pi * np.asarray(tau)))
        checks.append(CheckResult(
            instance=f"stationary-bound[{idx}] {g.family} n={g.n} tau={list(tau)}",
            expected=f"mu <= {bound:.12g}", actual=mu,
            passed=mu <= bound + _BOUND_SLACK))

    for n in _BOUND_COMPLETE_N:
        rng = counter_stream(seed, 10_000 + n)
        for _ in range(_BOUND_RATIO_DRAWS):
            tau = tuple(int(t) for t in rng.integers(1, _BOUND_TAU_MAX + 1, size=n))
            result = synthesis.synthesize_complete(tau)
            bound = synthesis.generic_capture_bound(tau)
            ratio = result.mu / bound
            checks.append(CheckResult(
                instance=f"complete-ratio n={n} tau={list(tau)}",
                expected=f"{result.subopt_lb:.12g} <= ratio <= 1",
                actual=ratio,
                passed=result.subopt_lb - 1e-12 <= ratio <= 1.0 + _BOUND_SLACK))

    floor = math.exp(-2.0)
    for n in _BOUND_COMPLETE_N:
        for B in range(n + 1, n * n):
            w = allocate_complete(n, B).w
            checks.append(CheckResult(
                instance=f"allocation-floor n={n} B={B}",
                expected=f"w > {floor:.12g}", actual=w,
                passed=w > floor))

    for n_p in range(2, _BOUND_SIDE_MAX + 1):
        for n_q in range(2, _BOUND_SIDE_MAX + 1):
            n = n_p + n_q
            for tau in range(2, 2 * n - 3):
                baseline = synthesis.uniform_bipartite_baseline(n_p, n_q, tau)
                checks.append(CheckResult(
                    instance=f"baseline-ratio n_p={n_p} n_q={n_q} tau={tau}",
                    expected=f"ratio >= {baseline.guarantee:.12g}",
                    actual=baseline.ratio,
                    passed=baseline.ratio >= baseline.guarantee - 1e-12))

    return SuiteReport(name="bounds", checks=tuple(checks))


def allocation_agreement_suite(nmax: int = 4, tolerance: float = 1e-10) -> SuiteReport:
    """Closed-form allocations against exhaustive enumeration, one check each.

    Complete graphs run up to `nmax` nodes over every in-range budget; side
    allocations and the sub-budget bisection run both sides up to
    min(nmax, 4) over every valid even budget.  Only complete graphs can
    outgrow `ENUMERATION_GUARD`, so their counts are checked, in suite order,
    before anything is enumerated.  An `nmax` below 2 would build no
    instance and raises `InvalidSpec` instead of passing vacuously.
    """
    if nmax < 2:
        raise InvalidSpec(f"nmax must be >= 2, got {nmax}")
    complete = [(n, B) for n in range(2, nmax + 1) for B in range(n + 1, n * n)]
    for n, B in complete:
        _guarded(_composition_count(B, n))
    sides = range(2, min(nmax, 4) + 1)
    # (instance, oracle, its arguments) in suite order
    instances = [(f"complete n={n} B={B}", exhaustive_allocation, ("complete", n, B))
                 for n, B in complete]
    instances += [(f"side n={n} B={B}", exhaustive_side_allocation, (n, B))
                  for n in sides for B in range(2 * n, 2 * n * n, 2)]
    instances += [(f"bipartite n_p={n_p} n_q={n_q} B={B}", exhaustive_allocation,
                   ("bipartite", (n_p, n_q), B))
                  for n_p in sides for n_q in sides
                  for B in range(2 * (n_p + n_q) + 2, 2 * (n_p * n_p + n_q * n_q), 2)]
    checks = []
    for instance, oracle, args in instances:
        report = oracle(*args, tolerance=tolerance)
        checks.append(CheckResult(instance=instance, expected=f"gap <= {tolerance:.12g}",
                                  actual=report.gap, passed=bool(report.agreement)))
    return SuiteReport(name="alloc-oracle", checks=tuple(checks))


def monte_carlo_suite(trials: int = 100_000, seed: int = 7,
                      instances: int = 20) -> SuiteReport:
    """Seeded random instances: every pair's empirical capture frequency must
    sit within z* binomial sigmas of the exact recursion value.

    Each check reports its instance's worst |estimate - exact| / (3 sigma).
    The limit z* is the two-sided normal quantile at
    `MONTE_CARLO_FALSE_ALARM` / m, where m counts the pairs of every
    instance in the run (Bonferroni), so a correct simulator fails a run
    with probability at most about `MONTE_CARLO_FALSE_ALARM`.  A pair whose
    exact value is 0 or 1 must be matched exactly.
    """
    if instances < 1:
        raise InvalidSpec(f"instances must be >= 1, got {instances}")
    pairs = 0
    worst_by_instance = []
    for idx in range(instances):
        rng = counter_stream(seed, 90_000 + idx)
        n = int(rng.integers(3, 5))
        P = _random_feasible_strategy(rng, _support(build_complete(n)), n)
        tau = tuple(int(t) for t in rng.integers(2, 5, size=n))
        exact = capture_probability(P, tau).cdf
        sim = simulate_capture(P, tau, trials=trials, seed=seed + idx)
        worst = 0.0
        for i in range(n):
            for j in range(n):
                p = exact[i, j]
                sigma = math.sqrt(max(p * (1.0 - p), 0.0) / trials)
                diff = abs(sim.estimates[i, j] - p)
                if sigma == 0.0:
                    if diff > 0.0:
                        worst = math.inf
                    continue
                worst = max(worst, diff / (3.0 * sigma))
        pairs += n * n
        worst_by_instance.append((f"montecarlo[{idx}] n={n} tau={list(tau)}", worst))
    limit = NormalDist().inv_cdf(1.0 - MONTE_CARLO_FALSE_ALARM / (2 * pairs)) / 3.0
    expected = f"max |estimate - exact| / (3 sigma) <= {limit:.6g}"
    return SuiteReport(name="montecarlo", checks=tuple(
        CheckResult(instance=instance, expected=expected, actual=worst,
                    passed=bool(worst <= limit))
        for instance, worst in worst_by_instance))
