"""Integer allocation of a defense budget over nodes.

Interpreting each attack duration as the strength of the defenses at that
node, the best split of a total budget B is one rule: count B in units of
the family's step (1 on complete graphs, 2 on each bipartite side) and split
the units as evenly as possible, so entries differ by at most one unit.
The pairwise-balancing procedure justifies the rule and is kept as a
checkable construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import BudgetOutOfRange, InvalidSpec, InvalidStart, ParityError
from .graphs import BIPARTITE, COMPLETE, GraphTopology
from .synthesis import solve_equalized_value


@dataclass(frozen=True)
class AllocationResult:
    """An integer budget split with its solved game value.

    `tau` is sorted non-increasing (per side for the two-sided case, with the
    P side first); any permutation performs identically.  `mu` is the capture
    probability of the matching synthesized strategy, 1 - w.
    """

    tau: tuple[int, ...]
    B: int
    w: float
    mu: float
    B_p: int | None = None
    B_q: int | None = None
    tau_p: tuple[int, ...] | None = None
    tau_q: tuple[int, ...] | None = None
    w_p: float | None = None
    w_q: float | None = None


def _near_uniform(n: int, units: int) -> tuple[int, ...]:
    """`units` split over n entries as evenly as possible, largest first."""
    q, r = divmod(units, n)
    return (q + 1,) * r + (q,) * (n - r)


def complete_allocation_value(tau: Sequence[int]) -> float:
    """Game value w of a complete-graph allocation: sum_i w**(1/tau_i) = n - 1."""
    return solve_equalized_value(tuple(sorted(int(t) for t in tau)))


def bipartite_side_value(tau_side: Sequence[int]) -> float:
    """Game value w of one even-valued side: sum_i w**(2/tau_i) = n_side - 1."""
    exponents = []
    for t in tau_side:
        t = int(t)
        if t % 2 or t < 2:
            raise InvalidSpec(f"side durations must be even and >= 2: {tuple(tau_side)}")
        exponents.append(t // 2)
    return solve_equalized_value(tuple(sorted(exponents)))


def allocate_complete(n: int, B: int) -> AllocationResult:
    """Optimal placement on a complete graph: B units of 1 split near-uniformly.

    Valid for budgets strictly between n (anything less cannot give every
    node a unit) and n*n (anything more makes the game trivial).
    """
    if n < 2:
        raise InvalidSpec(f"complete-graph allocation needs n >= 2, got {n}")
    if not n < B < n * n:
        raise BudgetOutOfRange(f"budget must satisfy {n} < B < {n * n}, got {B}")
    tau = _near_uniform(n, B)
    w = solve_equalized_value(tau[::-1])
    return AllocationResult(tau=tau, B=B, w=w, mu=1.0 - w)


@dataclass(frozen=True)
class SideAllocation:
    """Even-valued allocation for one side of a bipartite graph."""

    tau: tuple[int, ...]
    B: int
    w: float


def allocate_bipartite_side(n_side: int, B_side: int) -> SideAllocation:
    """Optimal even placement on one side: B/2 units of 2 split near-uniformly.

    Entries are even and differ by at most two.  The degenerate all-twos
    budget B_side = 2*n_side is accepted because the co-optimization
    brackets start there.
    """
    if n_side < 1:
        raise InvalidSpec(f"side size must be >= 1, got {n_side}")
    if B_side % 2:
        raise ParityError(f"side budget must be even, got {B_side}")
    if B_side < 2 * n_side:
        raise BudgetOutOfRange(f"side budget {B_side} cannot give {n_side} nodes >= 2 each")
    units = _near_uniform(n_side, B_side // 2)
    # tuple() of a list: from a generator, bipartite sweeps kept ~1 MB more resident
    return SideAllocation(tau=tuple([2 * u for u in units]), B=B_side,
                          w=solve_equalized_value(units[::-1]))


def co_optimize_bipartite(n_p: int, n_q: int, B: int) -> AllocationResult:
    """Best even split of B across the two sides of a complete bipartite graph.

    Bisects on the P-side sub-budget, counted in units of 2: the P-side value
    falls and the Q-side value rises as budget moves to P, so the overall
    value max(w_p, w_q) is minimized where they cross.  Both surviving
    bracket ends are evaluated and the better one returned (ties go to the
    smaller sub-budget).
    """
    if n_p < 1 or n_q < 1:
        raise InvalidSpec(f"side sizes must be >= 1, got ({n_p}, {n_q})")
    if B % 2:
        raise ParityError(f"total budget must be even, got {B}")
    lo_limit = 2 * (n_p + n_q)
    hi_limit = 2 * (n_p * n_p + n_q * n_q)
    if not lo_limit < B < hi_limit:
        raise BudgetOutOfRange(f"budget must satisfy {lo_limit} < B < {hi_limit}, got {B}")

    lb, ub = n_p, B // 2 - n_q
    while ub - lb > 1:
        mid = (lb + ub + 1) // 2
        side_p = allocate_bipartite_side(n_p, 2 * mid)
        side_q = allocate_bipartite_side(n_q, B - 2 * mid)
        if side_p.w < side_q.w:
            ub = mid
        else:
            lb = mid

    best = None
    for units in sorted({lb, ub}):
        side_p = allocate_bipartite_side(n_p, 2 * units)
        side_q = allocate_bipartite_side(n_q, B - 2 * units)
        w = max(side_p.w, side_q.w)
        if best is None or w < best[0] - 1e-12:
            best = (w, side_p, side_q)
    w, side_p, side_q = best
    return AllocationResult(
        tau=side_p.tau + side_q.tau, B=B, w=w, mu=1.0 - w,
        B_p=side_p.B, B_q=side_q.B, tau_p=side_p.tau, tau_q=side_q.tau,
        w_p=side_p.w, w_q=side_q.w,
    )


def allocate(g: GraphTopology, B: int) -> AllocationResult:
    """The family's optimal split of budget B over the nodes of `g`.

    Complete graphs use `allocate_complete`, bipartite graphs
    `co_optimize_bipartite`; any other family raises `InvalidSpec`.
    """
    if g.family == COMPLETE:
        return allocate_complete(g.n, B)
    if g.family == BIPARTITE:
        return co_optimize_bipartite(g.n_p, g.n_q, B)
    raise InvalidSpec(f"{g.family} allocation is unsupported")


@dataclass(frozen=True)
class BalancingTrace:
    """States visited by pairwise balancing: (allocation, value) at each step."""

    states: tuple[tuple[tuple[int, ...], float], ...]

    @property
    def taus(self) -> tuple[tuple[int, ...], ...]:
        return tuple(s[0] for s in self.states)

    @property
    def ws(self) -> tuple[float, ...]:
        return tuple(s[1] for s in self.states)

    @property
    def final(self) -> tuple[int, ...]:
        return self.states[-1][0]


def pairwise_balance(tau: Sequence[int], step: int) -> BalancingTrace:
    """Move one unit of `step` from a largest to a smallest entry until the
    entries, counted in units, differ by at most one.

    Each transfer strictly lowers w, solved on the units, which is how the
    near-uniform placement rule is proved optimal.  Step 1 balances a
    complete-graph allocation (entries >= 1), step 2 one even bipartite side
    (entries even and >= 2).
    """
    if step not in (1, 2):
        raise InvalidSpec(f"step must be 1 or 2, got {step}")
    current = [int(t) for t in tau]
    if not current:
        raise InvalidSpec("allocation must be nonempty")
    if any(t < step or t % step for t in current):
        raise InvalidStart(f"entries must be {'>= 1' if step == 1 else 'even and >= 2'}: {current}")
    units = [t // step for t in current]
    states = []
    while True:
        states.append((tuple(step * u for u in units),
                       solve_equalized_value(tuple(sorted(units)))))
        if max(units) - min(units) <= 1:
            return BalancingTrace(states=tuple(states))
        units[units.index(max(units))] -= 1
        units[units.index(min(units))] += 1
