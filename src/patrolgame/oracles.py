"""Independent ground-truth generators for the closed-form results.

Exhaustive enumeration checks the allocation rules, derivative-free local
search over feasible strategy matrices checks the synthesized strategies,
and the bound suite sweeps every claimed inequality over finite ranges.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, field
from statistics import NormalDist
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import synthesis
from .allocation import allocate, allocate_bipartite_side, allocate_complete
from .errors import InfeasibleTau, InvalidSpec, SearchSpaceExceeded
from .graphs import (
    GraphTopology,
    build_bipartite,
    build_complete,
    build_star,
    check_durations,
    check_integers,
    validate_attack_durations,
)
from .markov import (
    _capture_cdf_stack,
    _check_rows,
    _stationary_stack,
    capture_probability,
    counter_stream,
    simulate_capture,
    walk_work,
)

ENUMERATION_GUARD = 10_000_000
LOCAL_SEARCH_MAX_NODES = 8
# the largest gap between an enumerated optimum and its allocation rule
ALLOCATION_TOLERANCE = 1e-10
_IMPROVEMENT_EPS = 1e-7
_STEP_INITIAL = 0.2
_STEP_FINAL = 1e-3
_LOCKSTEP_WIDTH = 16
# family-wise false-alarm rate of one Monte Carlo suite run
MONTE_CARLO_FALSE_ALARM = 1e-3
# its instances: complete graphs of 3 or 4 nodes, durations 2 to 4
_MONTE_CARLO_NODES = (3, 4)
_MONTE_CARLO_TAU = (2, 4)


@dataclass(frozen=True, eq=False)
class OracleReport:
    """Best value found by an oracle and its gap to the closed form."""

    best_value: float
    best_candidate: object
    candidates_examined: int
    closed_form_value: float | None = None
    gap: float | None = None


def partitions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All non-increasing tuples of `parts` >= 1 positive integers that sum to `total`."""
    check_integers(total=total)
    check_integers(1, parts=parts)
    return _partitions(total, parts, total)


def _partitions(total: int, parts: int, maximum: int) -> Iterator[tuple[int, ...]]:
    """`partitions` with no part above `maximum`."""
    if parts == 1:
        if 1 <= total <= maximum:
            yield (total,)
        return
    for first in range(min(total - parts + 1, maximum), 0, -1):
        for rest in _partitions(total - first, parts - 1, first):
            yield (first,) + rest


def _composition_count(total: int, parts: int) -> int:
    # ordered tuples of positive integers summing to `total` (stars and bars);
    # every caller has total >= parts
    return math.comb(total - 1, parts - 1)


def _guarded(count: int) -> int:
    """`count` compositions, or SearchSpaceExceeded past `ENUMERATION_GUARD`."""
    if count > ENUMERATION_GUARD:
        raise SearchSpaceExceeded(f"{count} compositions exceed the guard {ENUMERATION_GUARD}")
    return count


def _multiset_values(keys: Iterable[tuple[int, int]]) -> dict:
    """For each (n, units) key, the lowest w over the multisets of n positive
    integers summing to `units` and the first one, in `partitions` order, to
    reach it; a complete graph is the one-sided case, keyed (n, B).  The rows
    of one width are solved together, in one batched Newton iteration."""
    widths: dict[int, list[int]] = {}
    for n, units in dict.fromkeys(keys):
        widths.setdefault(n, []).append(units)
    values = {}
    for n, totals in widths.items():
        groups = [list(partitions(units, n)) for units in totals]
        ws = synthesis.solve_equalized_values([parts for group in groups for parts in group])
        ends = np.cumsum([len(group) for group in groups])
        for units, group, w in zip(totals, groups, np.split(ws, ends[:-1])):
            first = int(np.argmin(w))
            values[n, units] = (float(w[first]), group[first])
    return values


def _splits(sizes: tuple[int, ...], B: int) -> tuple[int, list[tuple[int, ...]]]:
    """The unit of an allocation of B over sides of `sizes` nodes, and each
    split of B into side totals, in that unit: a complete graph, (n,), is
    one side in units of 1; a bipartite graph, (n_p, n_q), takes every even
    split, P side ascending, that gives every node at least 2."""
    if len(sizes) == 1:
        return 1, [(B,)]
    n_p, n_q = sizes
    half = B // 2
    return 2, [(units, half - units) for units in range(n_p, half - n_q + 1)]


def _report(best_value: float, best_candidate, count: int,
            closed_form: float | None) -> OracleReport:
    """An oracle's report; with no closed form to compare, its gap is None."""
    return OracleReport(
        best_value=best_value, best_candidate=best_candidate,
        candidates_examined=count, closed_form_value=closed_form,
        gap=None if closed_form is None else abs(closed_form - best_value),
    )


def exhaustive_allocation(g: GraphTopology, B: int, values: dict | None = None) -> OracleReport:
    """Search every feasible allocation of B over `g` and compare to `allocate`.

    Bipartite graphs walk every even split of B across the two sides, the
    first split winning ties, and each side's compositions with entries
    >= 2; a complete graph is the one-sided case, all compositions of B.
    Permutation invariance lets the search walk multisets while
    `candidates_examined` reports the composition count covered.  `allocate`
    runs first, so a family without a placement rule (`Unsupported`) or a
    budget the rule refuses fails before the guard and before anything is
    enumerated.  `values`, a `_multiset_values` table holding the instance's
    multisets, lets a suite solve all of its instances in one batch; without
    it the search solves its own.
    """
    closed_form = allocate(g, B).mu
    sizes = g.sides
    unit, splits = _splits(sizes, B)
    count = _guarded(sum(math.prod(map(_composition_count, split, sizes)) for split in splits))
    values = values or _multiset_values(key for split in splits for key in zip(sizes, split))
    best = None
    for split in splits:
        sides = [values[key] for key in zip(sizes, split)]
        mu = 1.0 - max(w for w, _ in sides)
        if best is None or mu > best[0]:
            taus = [tuple(unit * t for t in parts) for _, parts in sides]
            best = (mu, taus[0] if len(taus) == 1 else (unit * split[0], *taus))
    return _report(*best, count, closed_form)


def exhaustive_side_allocation(n_side: int, B_side: int,
                               values: dict | None = None) -> OracleReport:
    """Enumerate all even allocations of one bipartite side against the rule,
    which runs first, as in `exhaustive_allocation`; `values` is as there."""
    closed_form = allocate_bipartite_side(n_side, B_side).w
    key = (n_side, B_side // 2)
    count = _guarded(_composition_count(B_side // 2, n_side))
    best_w, parts = (values or _multiset_values([key]))[key]
    return _report(best_w, tuple(2 * t for t in parts), count, closed_form)


def _support(g: GraphTopology) -> list[np.ndarray]:
    """Columns each row of a strategy on `g` may put mass on (0-indexed)."""
    return [np.flatnonzero(row) for row in g.adjacency]


def _random_feasible_strategy(rng: np.random.Generator, support: list[np.ndarray]) -> np.ndarray:
    """Each row drawn uniformly from the simplex on its `support` columns; one
    Dirichlet call draws a run of m-column rows (m > 1) as one call a row would."""
    n = len(support)
    P = np.zeros((n, n))
    for m, run in itertools.groupby(range(n), key=lambda i: support[i].size):
        rows = list(run)
        P[np.array(rows)[:, None], np.array([support[i] for i in rows])] = (
            1.0 if m == 1 else rng.dirichlet(np.ones(m), size=len(rows)))
    return P


def _sweep_candidates(rows: np.ndarray, cols: np.ndarray,
                      signs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Trial rows of the moves rows[m, cols[m]] += signs[m]; overwrites `rows`.

    Returns the positions of the moves a serial sweep would score and their
    clipped, renormalized rows.  It skips a downward move (a negative sign)
    on a zero entry and a move that leaves its row empty, as the serial
    sweep does.
    """
    lanes = np.arange(len(rows))
    tried = ~((signs < 0.0) & (rows[lanes, cols] <= 0.0))
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

    Restarts climb in chunks of `_LOCKSTEP_WIDTH`, so memory does not grow
    with `restarts`.  A chunk scores its restarts' first matrices in one
    kernel call, then climbs in lockstep rounds until all of them finish:
    each round builds every move left in the current sweep of every
    climbing restart, from that restart's own P and step, and scores them in
    one kernel call.  Each restart keeps its first improving move in sweep
    order and resumes its sweep after it.  Every slice of the stack is
    computed as it would be alone, and each move before the kept one was
    scored against the same P a one-move-at-a-time loop would have used, so
    values, the kept matrix and the evaluation count (the candidates up to
    and including each kept move) match that loop bit for bit.  Restart r
    draws from `counter_stream(seed, r)`, and the result is the restart a
    reduction in restart order keeps: larger value wins, ties go to the
    lexicographically smaller matrix, then to the earlier restart.

    On every family, a tau below some node's first-arrival time raises
    `InfeasibleTau` with the feasibility report before any restart runs.
    """
    check_integers(1, restarts=restarts)
    if g.n > LOCAL_SEARCH_MAX_NODES:
        raise SearchSpaceExceeded(f"local search limited to {LOCAL_SEARCH_MAX_NODES} nodes")
    durations = check_durations(tau, g.n)
    if (feasibility := validate_attack_durations(g, durations)).condition1_violations:
        raise InfeasibleTau(feasibility.notes)
    reference = None if g.sides is None else synthesis.synthesize(g, durations).mu
    support = _support(g)
    # one sweep in order: (row, column) pairs of rows with a choice, each
    # tried upward and then downward
    moves = np.array([(i, c) for i, cols in enumerate(support) if cols.size > 1
                      for c in cols for _ in range(2)], dtype=int).reshape(-1, 2)
    move_row, move_col = moves.T
    sign = np.where(np.arange(len(moves)) % 2, -1.0, 1.0)

    evaluations = 0
    best_key = best_P = None
    for first in range(0, restarts, _LOCKSTEP_WIDTH):
        # restart first + s climbs as slice s of P.  Matrices and values are
        # arrays, because a round gathers from them lane by lane; the rest of a
        # restart's state (its step, next move in the sweep and whether this
        # sweep improved) is a handful of scalars, kept as lists and stepped in
        # Python.  A restart whose step falls below the last one has finished
        chunk = range(first, min(first + _LOCKSTEP_WIDTH, restarts))
        P = np.array([_random_feasible_strategy(counter_stream(seed, r), support) for r in chunk])
        mu = _capture_cdf_stack(P, durations).min(axis=(1, 2))
        evaluations += len(P)
        step = [_STEP_INITIAL] * len(P)
        start = [0] * len(P)
        improved = [False] * len(P)
        while climbing := [s for s in range(len(P)) if step[s] >= _STEP_FINAL]:
            # the rest of each climbing restart's sweep, restart by restart: the
            # lanes of restart s hold moves start[s], start[s] + 1, ..., in order
            counts = [len(moves) - start[s] for s in climbing]
            lane_restart = np.repeat(climbing, counts)
            lane_move = np.concatenate([np.arange(start[s], len(moves)) for s in climbing])
            lane_step = np.repeat([step[s] for s in climbing], counts)
            idx, trials = _sweep_candidates(P[lane_restart, move_row[lane_move]],
                                            move_col[lane_move], sign[lane_move] * lane_step)
            cand_restart, cand_move = lane_restart[idx], lane_move[idx]
            stack = P[cand_restart]
            stack[np.arange(len(stack)), move_row[cand_move]] = trials
            values = _capture_cdf_stack(stack, durations).min(axis=(1, 2))

            # each restart keeps its first improving candidate in sweep order
            better = np.flatnonzero(values > mu[cand_restart] + _IMPROVEMENT_EPS)
            kept = {}
            for candidate, s in zip(better.tolist(), cand_restart[better].tolist()):
                kept.setdefault(s, candidate)
            kept_restart, kept_cand = list(kept), list(kept.values())
            P[kept_restart, move_row[cand_move[kept_cand]]] = trials[kept_cand]
            mu[kept_restart] = values[kept_cand]

            # a restart's evaluations are its candidates up to and including
            # the kept one; the ones after it are scored again against the new
            # P.  A sweep ends when nothing in it improves or its last move is
            # kept, and a sweep without a kept move halves the step
            evaluations += len(cand_restart)
            per_restart = np.bincount(cand_restart, minlength=len(P)).tolist()
            end = 0
            for s in climbing:
                end += per_restart[s]
                if s in kept:
                    evaluations -= end - 1 - kept[s]
                    start[s], improved[s] = int(cand_move[kept[s]]) + 1, True
                    if start[s] < len(moves):
                        continue
                elif not improved[s]:
                    step[s] *= 0.5
                start[s], improved[s] = 0, False
        for value, matrix, r in zip(mu.tolist(), P, chunk):
            key = (-value, tuple(matrix.ravel().tolist()), r)
            if best_key is None or key < best_key:
                best_key, best_P = key, matrix
    return _report(-best_key[0], best_P, evaluations, reference)


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
    P = _random_feasible_strategy(rng, _support(g))
    tau = tuple(int(t) for t in rng.integers(1, _BOUND_TAU_MAX + 1, size=g.n))
    return g, P, tau


def bound_suite(config: BoundSuiteConfig | None = None) -> SuiteReport:
    """Sweep every claimed bound over finite ranges and report each instance.

    Covers the stationary upper bound on random irreducible strategies, the
    suboptimality ratio of synthesized complete-graph strategies, the
    e**-2 floor on solved allocation values, and the constant-factor
    guarantees of the uniform two-sided baseline.  The random instances are
    drawn one by one and checked, each as if alone, in one batch per node count.
    """
    seed = (config or BoundSuiteConfig()).seed
    checks: list[CheckResult] = []

    instances = [_random_instance(counter_stream(seed, i)) for i in range(_BOUND_RANDOM_INSTANCES)]
    values = {}
    for n in {g.n for g, _, _ in instances}:
        group = [idx for idx, (g, _, _) in enumerate(instances) if g.n == n]
        P, tau = (np.array([instances[idx][part] for idx in group]) for part in (1, 2))
        mus = _capture_cdf_stack(_check_rows(P), tau).min(axis=(1, 2))
        bounds = (_stationary_stack(P) * tau).min(axis=1)
        values.update(zip(group, zip(mus.tolist(), bounds.tolist())))
    for idx, (g, _, tau) in enumerate(instances):
        mu, bound = values[idx]
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


def allocation_agreement_suite(nmax: int = 4) -> SuiteReport:
    """Closed-form allocations against exhaustive enumeration, one check each
    that passes at a gap of at most `ALLOCATION_TOLERANCE`.

    Complete graphs run up to `nmax` nodes over every in-range budget; side
    allocations and the sub-budget bisection run both sides up to
    min(nmax, 4) over every valid even budget.  Only complete graphs can
    outgrow `ENUMERATION_GUARD`; each one's count is checked as it is
    generated, before anything is built or enumerated, so any `nmax` past 6
    stops at n = 7.  An `nmax` below 2 would build no instance and raises
    `InvalidSpec` instead of passing vacuously.
    """
    check_integers(2, nmax=nmax)
    complete = [(n, B) for n in range(2, nmax + 1) for B in range(n + 1, n * n)
                if _guarded(_composition_count(B, n))]
    sides = range(2, min(nmax, 4) + 1)
    side = [(n, B) for n in sides for B in range(2 * n, 2 * n * n, 2)]
    bipartite = [(n_p, n_q, B) for n_p in sides for n_q in sides
                 for B in range(2 * (n_p + n_q) + 2, 2 * (n_p * n_p + n_q * n_q), 2)]
    # every multiset any instance walks, solved in one batch per width
    walks = [((n,), B) for n, B in complete] + [((n,), B // 2) for n, B in side]
    walks += [((n_p, n_q), B) for n_p, n_q, B in bipartite]
    values = _multiset_values(key for sizes, B in walks for split in _splits(sizes, B)[1]
                              for key in zip(sizes, split))
    # (instance, oracle, its arguments) in suite order
    instances = [(f"complete n={n} B={B}", exhaustive_allocation, (build_complete(n), B))
                 for n, B in complete]
    instances += [(f"side n={n} B={B}", exhaustive_side_allocation, (n, B)) for n, B in side]
    instances += [(f"bipartite n_p={n_p} n_q={n_q} B={B}", exhaustive_allocation,
                   (build_bipartite(n_p, n_q), B)) for n_p, n_q, B in bipartite]
    checks = []
    for instance, oracle, args in instances:
        report = oracle(*args, values=values)
        checks.append(CheckResult(instance=instance,
                                  expected=f"gap <= {ALLOCATION_TOLERANCE:.12g}",
                                  actual=report.gap, passed=report.gap <= ALLOCATION_TOLERANCE))
    return SuiteReport(name="alloc-oracle", checks=tuple(checks))


def monte_carlo_suite_work(trials: int, instances: int = 20) -> int:
    """An upper bound on `monte_carlo_suite`'s walk work: `walk_work` with
    every instance at its largest size.  `InvalidSpec` refuses a `trials`
    or `instances` that is not an integer >= 1, as the suite does."""
    check_integers(trials=trials)
    check_integers(1, instances=instances)
    return instances * walk_work(_MONTE_CARLO_NODES[1], _MONTE_CARLO_TAU[1], trials)


def monte_carlo_suite(trials: int = 100_000, seed: int = 7,
                      instances: int = 20) -> SuiteReport:
    """Seeded random instances: every pair's empirical capture frequency must
    sit within z* binomial sigmas of the exact recursion value.

    Each check reports its instance's worst |estimate - exact| / (3 sigma).
    The limit z* is the two-sided normal quantile at
    `MONTE_CARLO_FALSE_ALARM` / m, where m counts the pairs of every
    instance in the run (Bonferroni).  The estimates of one start node share
    its walks, but a union bound needs no independence, so a correct
    simulator fails a run with probability at most about
    `MONTE_CARLO_FALSE_ALARM`; at the defaults, seeds 0-199 all passed, the
    worst at 0.91 of the limit.  A pair whose exact value is 0 or 1 must be
    matched exactly.
    """
    monte_carlo_suite_work(trials, instances)  # refuses what the suite cannot run
    # instance i walks on seed + i; a seed that is not a number, or not an
    # integer, is counter_stream's to refuse
    if isinstance(seed, numbers.Real) and not 0 <= seed <= (1 << 64) - instances:
        raise InvalidSpec(f"seed must lie in [0, 2**64 - {instances}], got {seed}")
    pairs = 0
    worst_by_instance = []
    for idx in range(instances):
        rng = counter_stream(seed, 90_000 + idx)
        n = int(rng.integers(_MONTE_CARLO_NODES[0], _MONTE_CARLO_NODES[1] + 1))
        P = _random_feasible_strategy(rng, _support(build_complete(n)))
        tau = tuple(int(t) for t in rng.integers(_MONTE_CARLO_TAU[0], _MONTE_CARLO_TAU[1] + 1,
                                                 size=n))
        exact = capture_probability(P, tau).cdf
        sim = simulate_capture(P, tau, trials=trials, seed=seed + idx)
        diff = np.abs(sim.estimates - exact)
        sigma = np.sqrt(np.maximum(exact * (1.0 - exact), 0.0) / trials)
        # sigma = 0 and diff > 0 divide to inf; pairs that match score 0
        with np.errstate(divide="ignore", invalid="ignore"):
            worst = float(np.where(diff > 0.0, diff / (3.0 * sigma), 0.0).max())
        pairs += n * n
        worst_by_instance.append((f"montecarlo[{idx}] n={n} tau={list(tau)}", worst))
    limit = NormalDist().inv_cdf(1.0 - MONTE_CARLO_FALSE_ALARM / (2 * pairs)) / 3.0
    expected = f"max |estimate - exact| / (3 sigma) <= {limit:.6g}"
    return SuiteReport(name="montecarlo", checks=tuple(
        CheckResult(instance=instance, expected=expected, actual=worst,
                    passed=bool(worst <= limit))
        for instance, worst in worst_by_instance))
