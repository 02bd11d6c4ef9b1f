"""Markov-chain machinery: stationary distributions, first-hitting-time
probabilities, exact capture probabilities, and a seeded Monte Carlo check.

The first hitting time from node i to node j counts the steps after the agent
leaves i, so the first transition is drawn from row i and a same-node pair
(i = j) measures the return time.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, InvalidSpec, NotIrreducible
from .graphs import check_durations, check_integers, is_strongly_connected

ROW_SUM_TOL = 1e-9


def check_transition_matrix(P: np.ndarray) -> np.ndarray:
    """Validate a row-stochastic matrix.

    Returns the matrix as a float64 ndarray.  Raises `DimensionMismatch` for
    a non-square input and `InvalidSpec` when rows do not sum to one or
    entries leave [0, 1] (NaN included).
    """
    P = np.asarray(P, dtype=float)
    if P.ndim != 2 or P.shape[0] != P.shape[1]:
        raise DimensionMismatch(f"transition matrix must be square, got shape {P.shape}")
    return _check_rows(P)


def _check_rows(P: np.ndarray) -> np.ndarray:
    """`check_transition_matrix`'s row check, on a matrix or on a stack."""
    if not np.all((P >= -ROW_SUM_TOL) & (P <= 1 + ROW_SUM_TOL)):
        raise InvalidSpec("transition probabilities must lie in [0, 1]")
    if np.any(np.abs(P.sum(axis=-1) - 1.0) > ROW_SUM_TOL):
        raise InvalidSpec("every row must sum to 1")
    return P


def stationary_distribution(P: np.ndarray) -> np.ndarray:
    """Stationary distribution pi of an irreducible row-stochastic matrix.

    Solves the balance equations (P^T - I) pi = 0 with the last one replaced
    by the normalization sum(pi) = 1, one direct solve for every chain size,
    as the one-slice case of the stacked solve the bound suite runs on each
    of its groups.  Irreducibility makes that square system nonsingular.

    Raises
    ------
    NotIrreducible
        If the support digraph of P is not strongly connected.
    """
    return _stationary_stack(check_transition_matrix(P)[None])[0]


def _stationary_stack(P: np.ndarray) -> np.ndarray:
    """Each slice's `stationary_distribution`, bit for bit, of a checked stack."""
    n = P.shape[-1]
    if not is_strongly_connected(P > 0.0):
        raise NotIrreducible("transition matrix support is not strongly connected")
    A = P.swapaxes(1, 2) - np.eye(n)
    A[:, -1] = 1.0
    pi = np.clip(np.linalg.solve(A, np.eye(n)[:, -1:])[..., 0], 0.0, None)
    return pi / pi.sum(axis=1, keepdims=True)


def _distinct_rows(P: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """A one-strategy (1, n, n) stack's distinct rows, keyed by their bytes, and
    each row's index among them; None for K > 1 or more than n / 12 distinct
    rows.  The switch is not where the paths cross: a step of the r x n
    recursion took 1.8 us against the dense product's 10.5 (complete n = 11),
    3.5 against 10.0 (11 + 11), 1.8 against 3.0 (complete n = 4) and 3.5
    against 2.5 (star n = 5) on a 2-core host, with equal mu."""
    K, n, _ = P.shape
    if K != 1:
        return None
    first: dict[bytes, int] = {}
    index = []
    for row in P[0]:
        index.append(first.setdefault(row.tobytes(), len(first)))
        if 12 * len(first) > n:
            return None
    return np.array([np.frombuffer(key, P.dtype) for key in first]), np.array(index)


def _capture_cdf_stack(P: np.ndarray, durations: Sequence[int] | np.ndarray) -> np.ndarray:
    """Capture CDFs of a (K, n, n) stack of strategies, for durations shared
    by every slice, (n,), or a (K, n) array with one row per slice.

    F_k[i, j], the probability that the first arrival at j after leaving i
    takes exactly k steps, follows F_1 = P and F_k = P offdiag(F_{k-1}).
    The kernel streams F_k through two ping-pong buffers into a running sum
    F_1 + ... + F_k and copies column j of slice s out of it at k = tau_sj
    (masked, for per-slice durations), so memory stays O(K n^2) for any tau.
    The dense product takes 2 n^3 flops a step per strategy, and each slice
    the same products and additions, in the same order, as the dense product
    of that slice alone.  A one-strategy stack with r <= n / 12 distinct rows
    (a synthesized strategy has 1 or 2) keeps only those: G_k[c, j] is the
    sum over c', in order, of W[c', c, j] G_{k-1}[c', j], where W[c', c, j] =
    mass(c, c') - [class(j) = c'] P_c[j] and mass(c, c') is row c's total over
    class c'; 2 r^2 n flops a step, bit-equal columns for targets of equal
    tau and entry, n x n at the end.
    """
    K, n, _ = P.shape
    durations = np.asarray(durations)
    if K == 1:  # one slice's durations are shared
        durations = durations.reshape(n)
    compressed = _distinct_rows(P)
    front, index = (P.copy(), None) if compressed is None else compressed
    if compressed is not None:
        # W is the exact weight rounded once: fsum gives each mass and its
        # remainder, and Knuth's TwoSum the error of the subtraction
        sums = [[(total := math.fsum(row[index == c]), math.fsum([*row[index == c], -total]))
                 for row in front] for c in range(len(front))]
        mass, rest = np.split(np.array(sums), 2, axis=-1)
        own = np.zeros((len(front), *front.shape))
        own[index, :, np.arange(n)] = front.T
        W = mass - own
        W += mass - (W - (W - mass)) - (own + (W - mass)) + rest
        term = np.empty_like(front)
    running, back, cdf = front.copy(), np.empty_like(front), np.empty_like(front)
    k = 1
    for t in sorted(set(durations.ravel().tolist())):
        for _ in range(k, t):
            if compressed is None:
                front.reshape(K, n * n)[:, ::n + 1] = 0.0
                np.matmul(P, front, out=back)
            else:
                np.multiply(W[0], front[0], out=back)
                for c in range(1, len(W)):
                    back += np.multiply(W[c], front[c], out=term)
            front, back = back, front
            running += front
        k = t
        ending = durations == t
        if ending.ndim == 1:
            cdf[..., ending] = running[..., ending]
        else:
            np.copyto(cdf, running, where=ending[:, None])
    return cdf if compressed is None else cdf[index][None]


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


def capture_probability(P: np.ndarray, tau: Sequence[int]) -> CaptureReport:
    """Exact capture probability against an omniscient attacker.

    The attacker knows the strategy and the agent's position and picks the
    ordered pair (agent node i, target j) minimizing the probability that the
    agent reaches j within tau_j steps.  The report's `cdf`, every
    P(T_ij <= tau_j), comes from the streaming hitting-time kernel run on a
    one-strategy stack.
    """
    P = check_transition_matrix(P)
    cdf = _capture_cdf_stack(P[None], check_durations(tau, P.shape[0]))[0]
    i, j = divmod(int(np.argmin(cdf)), cdf.shape[1])
    return CaptureReport(mu=float(cdf[i, j]), worst_pair=(i + 1, j + 1), cdf=cdf)


def min_capture_evaluator(tau: Sequence[int]):
    """Reusable evaluator P -> min capture probability for fixed durations.

    A thin wrapper over `capture_probability`'s streaming kernel, so its
    value equals `capture_probability(P, tau).mu` exactly.  Only tau is
    checked, by `check_durations`; optimizers that score many candidates at
    once call the kernel on a whole stack instead.
    """
    durations = np.asarray(check_durations(tau, len(tau)))
    return lambda P: float(_capture_cdf_stack(np.asarray(P, dtype=float)[None], durations).min())


@dataclass(frozen=True, eq=False)
class SimulationReport:
    """Per-pair empirical capture frequencies from seeded random walks."""

    estimates: np.ndarray
    overall: float
    trials: int
    seed: int


def counter_stream(seed: int, index: int) -> np.random.Generator:
    """Independent counter-based random stream keyed by (seed, index).

    Streams for different indices never overlap, so work items (start
    nodes, trials, restarts) can run in any order or in parallel without
    changing any result.  Raises `InvalidSpec` unless seed and index are both
    integers (NumPy integers pass) in [0, 2**64): a value outside, or a
    fraction, would alias an integer inside.
    """
    try:
        seed, index = operator.index(seed), operator.index(index)
    except TypeError:
        raise InvalidSpec(f"seed and stream index must be integers, "
                          f"got {seed!r} and {index!r}") from None
    if not (0 <= seed < 1 << 64 and 0 <= index < 1 << 64):
        raise InvalidSpec(f"seed and stream index must lie in [0, 2**64), got {seed} and {index}")
    key = np.array([seed, index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


# walkers that walk together: memory stays bounded whatever `trials` is
_WALK_CHUNK = 1 << 17
# a start-step's fixed cost, in walkers: at trials = 1 a step takes 5.8 us at
# n = 2, 17.5 us at n = 10 and 48 us at n = 30 on a 2-core host, as long as 740,
# 1000 and 1130 more gathering walkers take at 1e5 (770, 1950, 3700 on equal rows)
WALK_STEP_WALKERS = 1000


def walk_work(n: int, tau_max: int, trials: int) -> int:
    """`simulate_capture`'s work on an n-node chain, in walker-column steps.

    Each start node walks `trials` walkers for tau_max steps, and each step
    counts n - 1 threshold columns and records one visit; a step's fixed
    cost counts as `WALK_STEP_WALKERS` more walkers, whatever `trials` is.
    A `trials` below 1 raises `InvalidSpec`, before any guard counts it.
    """
    check_integers(1, trials=trials)
    return n * tau_max * (trials + WALK_STEP_WALKERS) * n


def simulate_capture(P: np.ndarray, tau: Sequence[int], trials: int, seed: int) -> SimulationReport:
    """Monte Carlo estimate of every P(T_ij <= tau_j).

    Each start node i walks one set of `trials` walkers for max tau steps,
    and the estimate for (i, j) is the fraction of them that visit j at some
    step k <= tau_j, so one walk scores every target.  Start node i consumes
    the counter-based stream keyed by (seed, i): walkers go in chunks of
    `_WALK_CHUNK`, and each step of a chunk draws one uniform per walker, so
    results are bitwise reproducible and independent of evaluation order.  A
    walker's next node counts the cumulative thresholds of its row that its
    uniform passes, in the narrowest unsigned dtype that holds n - 1.  At step
    1, and at every step when all rows are equal, every walker reads row i,
    and the uniforms meet its thresholds as scalars, with no gather.  Visits
    are bits of ceil(n / 64) uint64 words; the walkers' memory is
    O(ceil(n / 64) min(trials, `_WALK_CHUNK`)) whatever tau is.
    """
    check_integers(1, trials=trials)
    P = check_transition_matrix(P)
    n = P.shape[0]
    durations = np.asarray(check_durations(tau, n))
    # u < 1 never passes the last threshold, which would be 1, so counting
    # the first n - 1 keeps every step below n; counting column by column
    # stays exact where a tiny admitted negative entry unsorts a row
    cum = np.cumsum(P, axis=1)[:, :-1]
    thresholds = [np.ascontiguousarray(column) for column in cum.T]
    shared, counter = bool((P == P[0]).all()), np.min_scalar_type(n - 1)
    steps = int(durations.max())
    # a visit to node j sets bit j % 64 of a walker's word j // 64
    nodes = np.arange(n)
    bits = np.zeros((-(-n // 64), n), np.uint64)
    bits[nodes // 64, nodes] = np.left_shift(np.uint64(1), (nodes % 64).astype(np.uint64))
    ending = [np.flatnonzero(durations == k).tolist() for k in range(steps + 1)]

    hits = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        rng, row = counter_stream(seed, i), cum[i].tolist()
        for start in range(0, trials, _WALK_CHUNK):
            walkers = min(_WALK_CHUNK, trials - start)
            seen = np.zeros((len(bits), walkers), np.uint64)
            for k in range(1, steps + 1):
                u = rng.random(walkers)
                count = np.zeros(walkers, counter)
                # at step 1, and at every step when all rows are equal, all read row i
                for column, threshold in zip(thresholds, row):
                    count += u >= (threshold if k == 1 or shared else column[states])
                states = count.astype(np.intp)
                # indexed, not zipped: a loop name bound to a row of `seen`
                # would keep the last start's words alive into the next
                for w in range(len(bits)):
                    seen[w] |= bits[w][states]
                for j in ending[k]:
                    hits[i, j] += np.count_nonzero(seen[j // 64] & bits[j // 64, j])
    estimates = hits / trials
    return SimulationReport(
        estimates=estimates,
        overall=float(estimates.min()),
        trials=trials,
        seed=seed,
    )
