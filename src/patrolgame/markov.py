"""Markov-chain machinery: stationary distributions, first-hitting-time
probabilities, exact capture probabilities, and a seeded Monte Carlo check.

The first hitting time from node i to node j counts the steps after the agent
leaves i, so the first transition is drawn from row i and a same-node pair
(i = j) measures the return time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, InvalidSpec, NotIrreducible
from .graphs import GraphTopology, check_durations, is_strongly_connected

ROW_SUM_TOL = 1e-9


def check_transition_matrix(P: np.ndarray, graph: GraphTopology | None = None) -> np.ndarray:
    """Validate a row-stochastic matrix, optionally against a graph's support.

    Returns the matrix as a float64 ndarray.  Raises `DimensionMismatch` for
    a non-square input and `InvalidSpec` when rows do not sum to one, entries
    leave [0, 1] (NaN included), or mass sits on a non-edge of `graph`.
    """
    P = np.asarray(P, dtype=float)
    if P.ndim != 2 or P.shape[0] != P.shape[1]:
        raise DimensionMismatch(f"transition matrix must be square, got shape {P.shape}")
    if graph is not None and P.shape[0] != graph.n:
        raise DimensionMismatch(f"matrix is {P.shape[0]}x{P.shape[0]} but graph has {graph.n} nodes")
    if not np.all((P >= -ROW_SUM_TOL) & (P <= 1 + ROW_SUM_TOL)):
        raise InvalidSpec("transition probabilities must lie in [0, 1]")
    if np.any(np.abs(P.sum(axis=1) - 1.0) > ROW_SUM_TOL):
        raise InvalidSpec("every row must sum to 1")
    if graph is not None:
        off_support = ~graph.adjacency() & (P > ROW_SUM_TOL)
        if off_support.any():
            i, j = np.argwhere(off_support)[0]
            raise InvalidSpec(f"probability mass on non-edge ({i + 1}, {j + 1})")
    return P


def stationary_distribution(P: np.ndarray) -> np.ndarray:
    """Stationary distribution pi of an irreducible row-stochastic matrix.

    Solves the balance equations (P^T - I) pi = 0 with the last one replaced
    by the normalization sum(pi) = 1, one direct solve for every chain size.
    Irreducibility makes that square system nonsingular.

    Raises
    ------
    NotIrreducible
        If the support digraph of P is not strongly connected.
    """
    P = check_transition_matrix(P)
    n = P.shape[0]
    if not is_strongly_connected(P > 0.0):
        raise NotIrreducible("transition matrix support is not strongly connected")
    A = P.T - np.eye(n)
    A[-1] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    pi = np.linalg.solve(A, b)
    pi = np.clip(pi, 0.0, None)
    return pi / pi.sum()


def _capture_cdf_stack(P: np.ndarray, durations: Sequence[int]) -> np.ndarray:
    """Capture CDFs of a (K, n, n) stack of strategies for shared durations.

    F_k[i, j], the probability that the first arrival at j after leaving i
    takes exactly k steps, follows F_1 = P and F_k = P offdiag(F_{k-1}).
    The kernel streams F_k through two ping-pong buffers into a running sum
    F_1 + ... + F_k and copies column j out of it at k = tau_j, so memory
    stays O(K n^2) for any tau.  Each slice takes the same matrix products
    and additions, in the same order, as that slice alone.
    """
    K, n, _ = P.shape
    durations = np.asarray(durations)
    running = P.copy()
    front = P.copy()
    back = np.empty_like(front)
    cdf = np.empty_like(front)
    k = 1
    for t in sorted(set(durations.tolist())):
        for _ in range(k, t):
            front.reshape(K, n * n)[:, ::n + 1] = 0.0
            np.matmul(P, front, out=back)
            front, back = back, front
            running += front
        k = t
        ending = durations == t
        cdf[..., ending] = running[..., ending]
    return cdf


@dataclass(frozen=True, eq=False)
class CaptureReport:
    """Worst-case capture probability of a patrol strategy.

    `cdf[i, j]` is the probability of reaching node j+1 from node i+1 within
    tau_{j+1} steps; `mu` is its minimum and `worst_pair` the 1-indexed pair
    attaining it (row-major first in case of ties).
    """

    mu: float
    worst_pair: tuple[int, int]
    cdf: np.ndarray


def capture_cdf(P: np.ndarray, tau: Sequence[int]) -> np.ndarray:
    """Matrix of P(T_ij <= tau_j) for all ordered pairs, same-node pairs included.

    Runs the streaming hitting-time kernel on a one-strategy stack.
    """
    P = check_transition_matrix(P)
    durations = check_durations(tau, P.shape[0])
    return _capture_cdf_stack(P[None], durations)[0]


def capture_probability(P: np.ndarray, tau: Sequence[int]) -> CaptureReport:
    """Exact capture probability against an omniscient attacker.

    The attacker knows the strategy and the agent's position and picks the
    ordered pair (agent node i, target j) minimizing the probability that the
    agent reaches j within tau_j steps.
    """
    cdf = capture_cdf(P, tau)
    flat = int(np.argmin(cdf))
    i, j = divmod(flat, cdf.shape[1])
    return CaptureReport(mu=float(cdf[i, j]), worst_pair=(i + 1, j + 1), cdf=cdf)


def min_capture_evaluator(tau: Sequence[int]):
    """Reusable evaluator P -> min capture probability for fixed durations.

    A thin wrapper over the same streaming kernel as `capture_cdf`, so its
    value equals `capture_probability(P, tau).mu` exactly.  The matrix is
    not validated; optimizers that score many candidates at once call the
    kernel on a whole stack instead.
    """
    durations = np.asarray([int(t) for t in tau])

    def evaluate(P: np.ndarray) -> float:
        return float(_capture_cdf_stack(np.asarray(P, dtype=float)[None], durations).min())

    return evaluate


@dataclass(frozen=True, eq=False)
class SimulationReport:
    """Per-pair empirical capture frequencies from seeded random walks."""

    estimates: np.ndarray
    overall: float
    trials: int
    seed: int


def counter_stream(seed: int, index: int) -> np.random.Generator:
    """Independent counter-based random stream keyed by (seed, index).

    Streams for different indices never overlap, so work items (pairs,
    trials, restarts) can run in any order or in parallel without changing
    any result.
    """
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, index & 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def simulate_capture(P: np.ndarray, tau: Sequence[int], trials: int, seed: int) -> SimulationReport:
    """Monte Carlo estimate of every P(T_ij <= tau_j).

    For each ordered pair (i, j), `trials` walks leave node i (the first step
    is drawn from row i) and the estimate is the fraction that reach j within
    tau_j steps.  Each pair consumes its own counter-based random stream, one
    uniform per trial and step, drawn a step at a time so that memory does
    not grow with tau; results are bitwise reproducible and independent of
    evaluation order.
    """
    if trials < 1:
        raise InvalidSpec(f"trials must be >= 1, got {trials}")
    P = check_transition_matrix(P)
    n = P.shape[0]
    durations = check_durations(tau, n)
    cum = np.cumsum(P, axis=1)
    cum[:, -1] = 1.0

    estimates = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            rng = counter_stream(seed, i * n + j)
            states = np.full(trials, i)
            captured = np.zeros(trials, dtype=bool)
            for _ in range(durations[j]):
                active = np.flatnonzero(~captured)
                if active.size == 0:
                    break
                u = rng.random(trials)[active]
                nxt = (u[:, None] >= cum[states[active]]).sum(axis=1)
                np.minimum(nxt, n - 1, out=nxt)
                states[active] = nxt
                captured[active] = nxt == j
            estimates[i, j] = captured.mean()
    return SimulationReport(
        estimates=estimates,
        overall=float(estimates.min()),
        trials=trials,
        seed=seed,
    )
