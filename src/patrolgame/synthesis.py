"""Patrol-strategy synthesis for complete, complete bipartite, and star graphs.

Each family is k sides that the patrol cycles through (one on a complete
graph, two on a bipartite graph or a star), so it enters node i at most
m_i = floor(tau_i / k) times in an attack's window.  Each side equalizes its
nodes' capture terms with entry probabilities 1 - w**(1/m_i), where its miss
probability w solves sum_i w**(1/m_i) = (side size) - 1 on [0, 1], by Newton's
method on log w, and the weakest side's w is the game's.  A star is the
two-sided graph with its center as the P side; there the strategy is optimal.
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass
from decimal import Decimal
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import InfeasibleTau, InvalidSpec, TrivialGame, Unsupported
from .graphs import (BIPARTITE, STAR, GraphTopology, build_complete, build_star,
                     check_durations, check_integers, read_integers,
                     validate_attack_durations)

OPTIMAL = "optimal"
HEURISTIC = "heuristic"

ODD_TAU_GUARANTEE = 1.0 / 3.0
EVEN_TAU_GUARANTEE = 0.5 * (1.0 - 1.0 / np.e)


def _log_equalized_value(m: Sequence[int]) -> float:
    """s = log w for sorted exponents `m`: Newton's method on the convex,
    increasing f(s) = sum_i exp(s / m_i) - (len(m) - 1) from s = 0, where
    f = 1 > 0, so the iterates fall to the root; s is the last that falls.
    f is summed as exp(s / m_1) + sum_{i>1} expm1(s / m_i), m_1 the least
    exponent: no term near 1 cancels against n - 1, and the one term that
    may be small keeps its digits, so s is within a few ulps of the root.
    Width 1 gives -inf.  `solve_equalized_values` takes the same steps."""
    _check_exponents(m[0], m[-1])
    if len(m) == 1:
        return -np.inf
    lead, inv = 1.0 / m[0], np.array([1.0 / e for e in m[1:]])
    slope = float(np.add.reduce(inv))  # f'(s) = first * lead + slope + sum(terms * inv)
    s = 0.0
    while True:
        first, terms = float(np.exp(s * lead)), np.expm1(s * inv)
        # np.sum wraps this same reduce; calling it directly saves a call a step
        step = ((first + float(np.add.reduce(terms)))
                / (first * lead + slope + float(np.add.reduce(terms * inv))))
        if not s - step < s:
            return s
        s -= step


def _check_exponents(least, largest) -> None:
    """`InvalidSpec` unless the exponents from `least` to `largest` are >= 1
    and within the float range, as Newton divides by each of them."""
    if least < 1:
        raise InvalidSpec("exponents must be positive integers")
    if largest > sys.float_info.max:
        raise InvalidSpec(f"exponent {Decimal(largest):.3g} is past the float range")


@lru_cache(maxsize=None)
def solve_equalized_value(exponents: tuple[int, ...]) -> float:
    """Common miss probability w with sum_i w**(1/m_i) = len(m) - 1.

    The left side is strictly increasing from 0 (at w=0) to len(m) (at w=1),
    so the root exists and is unique for any positive integer exponents.
    Cached on the sorted multiset since the equation is permutation invariant.
    """
    m = tuple(sorted(read_integers(exponents, "exponents")))
    if not m:
        raise InvalidSpec("need at least one exponent")
    if m != exponents:
        return solve_equalized_value(m)
    # np.exp, as the batch takes it: math.exp may differ in the last bit
    return float(np.exp(_log_equalized_value(m)))


def solve_equalized_values(rows) -> np.ndarray:
    """`solve_equalized_value` of every row of a (k, n) array of exponents.

    One Newton iteration runs in every lane at once, each row sorted as the
    scalar sorts its multiset.  Each lane takes the scalar's steps, reduces
    and stop test, so every w is the scalar's bit for bit; a lane drops out
    at its first iterate that does not fall.  Rows of width 1 give 0.0."""
    m = np.asarray(rows)
    if m.ndim != 2 or m.shape[1] == 0:
        raise InvalidSpec(f"need a (k, n) array of exponents with n >= 1, got shape {m.shape}")
    if m.dtype.kind not in "iu":  # floats, text or integers past int64: one by one
        m = np.array(read_integers(m.ravel(), "exponents")).reshape(m.shape)
    if m.size:
        _check_exponents(m.min(), m.max())
    m = np.sort(m.astype(float), axis=1)
    if m.shape[1] == 1:
        return np.zeros(len(m))
    lead, inv = 1.0 / m[:, 0], 1.0 / m[:, 1:]
    slope, s, live = np.add.reduce(inv, axis=1), np.zeros(len(m)), np.arange(len(m))
    while live.size:
        now = s[live]
        first, terms = np.exp(now * lead[live]), np.expm1(now[:, None] * inv[live])
        nxt = now - (first + np.add.reduce(terms, axis=1)) / (
            first * lead[live] + slope[live] + np.add.reduce(terms * inv[live], axis=1))
        falls = nxt < now
        live = live[falls]
        s[live] = nxt[falls]
    return np.exp(s)


@dataclass(frozen=True, eq=False)
class StrategyResult:
    """A synthesized patrol strategy with its game value.

    `w` is the weakest side's miss probability and `mu = 1 - w`; a bipartite
    graph also reports each side's as `w_p` and `w_q`.  `subopt_lb` is a lower
    bound on mu divided by the best achievable capture probability.
    """

    P: np.ndarray
    pi: np.ndarray
    mu: float
    w: float
    subopt_lb: float
    optimality: str
    w_p: float | None = None
    w_q: float | None = None


def generic_capture_bound(tau: Sequence[int]) -> float:
    """Universal upper bound min(1, tau_max / n) on the optimal capture probability."""
    durations = sorted(read_integers(tau, "attack durations"))  # the least and the largest
    if not durations or durations[0] < 1:
        raise InvalidSpec(f"attack durations must be integers >= 1, got {tau!r}")
    # ints compared before they divide: a duration past the float range gives 1.0
    return 1.0 if durations[-1] >= len(durations) else durations[-1] / len(durations)


def _assemble(xs: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Cyclic strategy over the sides' entry distributions `xs`, in node
    order: side s's rows play side (s + 1) mod k's, and pi = concat(xs) / k."""
    k = len(xs)
    cuts = list(itertools.accumulate(map(len, xs), initial=0))
    P = np.zeros((cuts[-1], cuts[-1]))
    for s in range(k):
        t = (s + 1) % k
        P[cuts[s]:cuts[s + 1], cuts[t]:cuts[t + 1]] = xs[t]
    return P, np.concatenate(xs) / k


def _checked(g: GraphTopology, taus) -> tuple[int, list[int], list[tuple[int, ...]]]:
    """g's number of sides k, where they start and end in node order, and
    each of `taus` read and checked in turn as `synthesize` reads one."""
    cuts, n = list(itertools.accumulate(g.sides or (), initial=0)), g.n
    k, rows = len(cuts) - 1, []
    if not k:
        raise Unsupported(f"no strategy synthesis for the {g.family} family")
    for tau in taus:
        durations = check_durations(tau, n)
        if k == 1 and n < 2:
            raise InvalidSpec("complete-graph synthesis needs n >= 2")
        if k > 1:
            least = min(durations)
            if least < k:
                # below a node's k-step return: the feasibility report names it
                raise InfeasibleTau(validate_attack_durations(g, durations).notes)
            _check_exponents(least // k, max(durations) // k)
        rows.append(durations)
    return k, cuts, rows


def values(g: GraphTopology, taus: Sequence[Sequence[int]]) -> np.ndarray:
    """`synthesize(g, tau).w` of each of `taus`, bit for bit, each checked in
    turn as there, from one batched Newton iteration per side."""
    k, cuts, rows = _checked(g, taus)
    if not rows:
        return np.empty(0)
    # one side's tuples go to the batch as they are, which drops its int copy before Newton
    sides = [rows] if k == 1 else np.split(np.array(rows) // k, cuts[1:-1], axis=1)
    return np.maximum.reduce([solve_equalized_values(m) for m in sides])


def synthesize(g: GraphTopology, tau: Sequence[int]) -> StrategyResult:
    """The strategy for `g` that cycles through its k sides, durations read in
    node order (P side first): a heuristic with a certified suboptimality
    bound, optimal on a star.  Raises `Unsupported` on a graph without sides,
    `DimensionMismatch` on a tau of another length, `InfeasibleTau` on tau_i < k."""
    k, cuts, (durations,) = _checked(g, [tau])
    exponents = [tuple([t // k for t in durations[a:b]]) for a, b in zip(cuts, cuts[1:])]
    # each side's s = log w, uncached, and w = exp(s) as the scalar takes it;
    # entry probabilities 1 - w**(1/m) = -expm1(s / m) keep their digits
    # where w**(1/m) rounds to 1 or w underflows, and are 1 at width 1
    logs = [_log_equalized_value(sorted(m)) for m in exponents]
    ws = np.exp(logs).tolist()
    xs = [-np.expm1(s / np.asarray(m, dtype=float)) for s, m in zip(logs, exponents)]
    P, pi = _assemble([x / x.sum() for x in xs])
    w = max(ws)
    mu = 1.0 - w
    if g.family == STAR:  # the one-node center side solves to w = 0
        return StrategyResult(P=P, pi=pi, mu=mu, w=w, subopt_lb=1.0, optimality=OPTIMAL)
    w_p, w_q = ws if k == 2 else (None, None)
    return StrategyResult(P=P, pi=pi, mu=mu, w=w,
                          subopt_lb=min(1.0, mu / generic_capture_bound(durations)),
                          optimality=HEURISTIC, w_p=w_p, w_q=w_q)


def synthesize_complete(tau: Sequence[int]) -> StrategyResult:
    """`synthesize` on the complete graph of len(tau) nodes: every row plays pi."""
    return synthesize(build_complete(len(tau)), tau)


def synthesize_bipartite(g: GraphTopology, tau_p: Sequence[int],
                         tau_q: Sequence[int]) -> StrategyResult:
    """`synthesize` on a bipartite graph or a star, given each side's durations."""
    if g.family not in (BIPARTITE, STAR):
        raise InvalidSpec(f"expected a bipartite or star graph, got {g.family!r}")
    return synthesize(g, check_durations(tau_p, g.n_p) + check_durations(tau_q, g.n_q))


def synthesize_star(tau: Sequence[int]) -> StrategyResult:
    """Optimal strategy for a star graph: `synthesize` with the center, node 1, first."""
    return synthesize(build_star(len(tau)), tau)


@dataclass(frozen=True, eq=False)
class BaselineResult:
    """Uniform cross-block bipartite strategy with its constant-factor guarantee."""

    P: np.ndarray
    pi: np.ndarray
    mu: float
    w: float
    tau: int
    ratio: float
    guarantee: float


def uniform_bipartite_baseline(n_p: int, n_q: int, tau: int) -> BaselineResult:
    """Uniform bipartite strategy under a single shared attack duration.

    Every step crosses sides uniformly at random.  The capture probability is
    decided by the larger side, and its ratio to the generic bound tau/n is
    at least 1/3 for odd tau and (1/2)(1 - 1/e) for even tau.
    """
    check_integers(2, n_p=n_p, n_q=n_q)
    (tau,) = check_durations([tau], 1)
    n = n_p + n_q
    if not 2 <= tau <= 2 * n - 4:
        raise TrivialGame(f"tau={tau} outside the nontrivial range [2, {2 * n - 4}]")
    P, pi = _assemble([np.full(n_p, 1.0 / n_p), np.full(n_q, 1.0 / n_q)])
    mu = 1.0 - (1.0 - 1.0 / max(n_p, n_q)) ** (tau // 2)
    ratio = mu / (tau / n)
    guarantee = ODD_TAU_GUARANTEE if tau % 2 else EVEN_TAU_GUARANTEE
    return BaselineResult(P=P, pi=pi, mu=mu, w=1.0 - mu, tau=tau,
                          ratio=ratio, guarantee=guarantee)


@dataclass(frozen=True)
class BoundReport:
    """Upper bounds on the optimal capture probability of an instance."""

    stationary_bound: float
    generic_bound: float
    ratio: float | None = None


def capture_upper_bound(pi: Sequence[float], tau: Sequence[int],
                        mu: float | None = None) -> BoundReport:
    """Bounds from a stationary distribution: min_i pi_i * tau_i and min(1, tau_max/n).

    The stationary bound certifies any strategy whose chain has distribution
    pi; the generic bound needs no knowledge of the optimum at all.  When a
    capture probability is supplied, its ratio to the generic bound is
    reported as an achieved suboptimality factor.
    """
    pi = np.asarray(pi, dtype=float)
    durations = np.asarray(check_durations(tau, len(pi)))
    stationary = float(np.min(pi * durations))
    generic = generic_capture_bound(durations)
    ratio = None if mu is None else mu / generic
    return BoundReport(stationary_bound=stationary, generic_bound=generic, ratio=ratio)
