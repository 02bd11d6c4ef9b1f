"""Patrol-strategy synthesis for complete, complete bipartite, and star graphs.

All three families reduce to the same one-dimensional root-finding problem:
pick the per-node entry probabilities so that every node's individual capture
term is equal, then spend the remaining simplex mass.  Writing w for the
common miss probability, the entry probabilities are 1 - w**(1/m_i) with
m_i = tau_i on complete graphs and m_i = floor(tau_i / 2) on two-sided
graphs, and w solves sum_i w**(1/m_i) = n - 1 on [0, 1].  A star is the
two-sided graph with its center as the P side; there the strategy is optimal.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, InfeasibleTau, InvalidSpec, TrivialGame, Unsupported
from .graphs import (BIPARTITE, COMPLETE, STAR, GraphTopology, build_star, check_durations,
                     validate_attack_durations)

BISECTION_TOL = 1e-12

OPTIMAL = "optimal"
HEURISTIC = "heuristic"

ODD_TAU_GUARANTEE = 1.0 / 3.0
EVEN_TAU_GUARANTEE = 0.5 * (1.0 - 1.0 / np.e)


@lru_cache(maxsize=None)
def solve_equalized_value(exponents: tuple[int, ...]) -> float:
    """Common miss probability w with sum_i w**(1/m_i) = len(m) - 1.

    The left side is strictly increasing from 0 (at w=0) to len(m) (at w=1),
    so the root exists and is unique for any positive integer exponents.
    Cached on the sorted multiset since the equation is permutation invariant.
    """
    if not exponents:
        raise InvalidSpec("need at least one exponent")
    if any(m < 1 for m in exponents):
        raise InvalidSpec(f"exponents must be positive integers: {exponents}")
    m = tuple(sorted(exponents))
    if m != exponents:
        return solve_equalized_value(m)
    if len(m) == 1:
        return 0.0
    inv = np.array([1.0 / e for e in m])
    target = float(len(m) - 1)
    # bisection on [0, 1], where the left side runs from 0 to len(m) > target;
    # the bracket is below BISECTION_TOL after 41 midpoints
    lo, hi = 0.0, 1.0
    while True:
        mid = 0.5 * (lo + hi)
        # np.sum wraps this same reduce; calling it directly halves each step
        value = float(np.add.reduce(mid ** inv))
        if abs(value - target) <= BISECTION_TOL * target or hi - lo <= BISECTION_TOL:
            return mid
        if value < target:
            lo = mid
        else:
            hi = mid


def solve_equalized_values(rows) -> np.ndarray:
    """`solve_equalized_value` of every row of a (k, n) array of exponents.

    One bisection runs in every lane at once.  Each row is sorted as the
    scalar sorts its multiset, and each lane takes the scalar's midpoints,
    its stop test and its reduce, so every w is the scalar's bit for bit.
    A lane that stops closes its bracket on its w, which every later
    midpoint repeats.  Rows of width 1 give 0.0.
    """
    m = np.asarray(rows, dtype=float)
    if m.ndim != 2 or m.shape[1] == 0:
        raise InvalidSpec(f"need a (k, n) array of exponents with n >= 1, got shape {m.shape}")
    if not (m >= 1).all():  # nan fails too
        raise InvalidSpec("exponents must be positive integers")
    m = np.sort(m, axis=1)
    if m.shape[1] == 1:
        return np.zeros(len(m))
    inv = 1.0 / m
    target = float(m.shape[1] - 1)
    lo, hi = np.zeros(len(m)), np.ones(len(m))
    while True:
        mid = 0.5 * (lo + hi)
        value = np.add.reduce(mid[:, None] ** inv, axis=1)
        done = (np.abs(value - target) <= BISECTION_TOL * target) | (hi - lo <= BISECTION_TOL)
        if done.all():
            return mid
        below = value < target
        lo, hi = np.where(below | done, mid, lo), np.where(below & ~done, hi, mid)


@dataclass(frozen=True, eq=False)
class StrategyResult:
    """A synthesized patrol strategy with its game value.

    `w` is the solved miss probability, so `mu = 1 - w` on complete and star
    graphs and `1 - max(w_p, w_q)` on bipartite ones.  `subopt_lb` is a lower
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
    durations = [int(t) for t in tau]
    return min(1.0, max(durations) / len(durations))


def _entry_probabilities(w: float, exponents: Sequence[int]) -> np.ndarray:
    # 1 - w**(1/m) as -expm1(log(w) / m), which keeps its digits where
    # w**(1/m) rounds to 1; w is 0 only at width 1, where the probability is 1
    if w == 0.0:
        return np.ones(1)
    probs = -np.expm1(np.log(w) / np.asarray(exponents, dtype=float))
    return probs / probs.sum()


def _subopt_lb(mu: float, durations: Sequence[int]) -> float:
    return min(1.0, mu / generic_capture_bound(durations))


def _complete_durations(tau: Sequence[int]) -> tuple[int, ...]:
    durations = check_durations(tau, len(tau))
    if len(durations) < 2:
        raise InvalidSpec("complete-graph synthesis needs n >= 2")
    return durations


def complete_values(taus: Sequence[Sequence[int]]) -> np.ndarray:
    """Game value w of each complete-graph duration vector, all of one length.

    Each vector is checked as `synthesize_complete` checks it, in order,
    before one batched bisection solves them all.
    """
    rows = [_complete_durations(tau) for tau in taus]
    return solve_equalized_values(rows) if rows else np.empty(0)


def synthesize_complete(tau: Sequence[int]) -> StrategyResult:
    """Strategy for a complete graph: every row equals the tuned distribution pi.

    Equalizes the per-node capture terms 1 - (1 - pi_i)**tau_i, which makes
    the worst case independent of the attacked node.
    """
    durations = _complete_durations(tau)
    w = solve_equalized_value(durations)
    pi = _entry_probabilities(w, durations)
    P = np.tile(pi, (len(durations), 1))
    mu = 1.0 - w
    return StrategyResult(P=P, pi=pi, mu=mu, w=w, subopt_lb=_subopt_lb(mu, durations),
                          optimality=HEURISTIC)


def _assemble_two_sided(p: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Block strategy (P-side rows play q, Q-side rows play p) and its stationary pi."""
    n_p, n_q = len(p), len(q)
    P = np.zeros((n_p + n_q, n_p + n_q))
    P[:n_p, n_p:] = q
    P[n_p:, :n_p] = p
    return P, np.concatenate([p / 2.0, q / 2.0])


def synthesize_bipartite(g: GraphTopology, tau_p: Sequence[int],
                         tau_q: Sequence[int]) -> StrategyResult:
    """Strategy for a two-sided graph, alternating sides every step.

    Each side is tuned independently: entering probabilities equalize the
    side's capture terms 1 - (1 - x_i)**floor(tau_i / 2), and the game value
    is set by the weaker side: a heuristic with a certified suboptimality
    bound.  A star is the two-sided graph with its center as the P side; its
    center's duration only has to reach 2, and the strategy is optimal.
    """
    if g.family not in (BIPARTITE, STAR):
        raise InvalidSpec(f"expected a bipartite or star graph, got {g.family!r}")
    durations_p = check_durations(tau_p, g.n_p)
    durations_q = check_durations(tau_q, g.n_q)
    if any(t < 2 for t in durations_p + durations_q):
        # below a node's two-step return: the feasibility report names it
        raise InfeasibleTau(validate_attack_durations(g, durations_p + durations_q).notes)
    m_p, m_q = (tuple(t // 2 for t in side) for side in (durations_p, durations_q))
    w_p, w_q = solve_equalized_value(m_p), solve_equalized_value(m_q)
    P, pi = _assemble_two_sided(_entry_probabilities(w_p, m_p), _entry_probabilities(w_q, m_q))
    if g.family == STAR:
        return StrategyResult(P=P, pi=pi, mu=1.0 - w_q, w=w_q, subopt_lb=1.0,
                              optimality=OPTIMAL)
    w = max(w_p, w_q)
    mu = 1.0 - w
    return StrategyResult(P=P, pi=pi, mu=mu, w=w,
                          subopt_lb=_subopt_lb(mu, durations_p + durations_q),
                          optimality=HEURISTIC, w_p=w_p, w_q=w_q)


def synthesize_star(tau: Sequence[int]) -> StrategyResult:
    """Optimal strategy for a star graph (center is node 1): the two-sided
    strategy of `synthesize_bipartite` with the center as the P side."""
    return synthesize_bipartite(build_star(len(tau)), tau[:1], tau[1:])


def synthesize(g: GraphTopology, tau: Sequence[int]) -> StrategyResult:
    """The family's strategy for `g`: complete, star or bipartite.

    Two-sided durations are read P side first, as the graph numbers its
    nodes.  Raises `Unsupported` for the general family, which has no
    synthesis, and `DimensionMismatch` when tau does not match the graph.
    """
    if len(tau) != g.n:
        raise DimensionMismatch(f"expected {g.n} durations, got {len(tau)}")
    if g.family == COMPLETE:
        return synthesize_complete(tau)
    if g.family in (BIPARTITE, STAR):
        return synthesize_bipartite(g, tau[:g.n_p], tau[g.n_p:])
    raise Unsupported(f"no strategy synthesis for the {g.family} family")


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
    if n_p < 2 or n_q < 2:
        raise InvalidSpec(f"baseline needs both sides >= 2, got ({n_p}, {n_q})")
    (tau,) = check_durations([tau], 1)
    n = n_p + n_q
    if not 2 <= tau <= 2 * n - 4:
        raise TrivialGame(f"tau={tau} outside the nontrivial range [2, {2 * n - 4}]")
    P, pi = _assemble_two_sided(np.full(n_p, 1.0 / n_p), np.full(n_q, 1.0 / n_q))
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
