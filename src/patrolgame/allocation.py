"""Integer allocation of a defense budget over nodes.

Interpreting each attack duration as the strength of the defenses at that
node, the best split of a total budget B is as even as possible: on complete
graphs the entries differ by at most one, on each bipartite side they are
even and differ by at most two.  The pairwise-balancing procedure justifies
both rules and is kept as a checkable construction.
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
    """Optimal placement on a complete graph: B mod n nodes get one extra unit.

    Valid for budgets strictly between n (anything less cannot give every
    node a unit) and n*n (anything more makes the game trivial).
    """
    if n < 2:
        raise InvalidSpec(f"complete-graph allocation needs n >= 2, got {n}")
    if not n < B < n * n:
        raise BudgetOutOfRange(f"budget must satisfy {n} < B < {n * n}, got {B}")
    high, rem = divmod(B, n)
    if rem:
        tau = (high + 1,) * rem + (high,) * (n - rem)
    else:
        tau = (high,) * n
    w = complete_allocation_value(tau)
    return AllocationResult(tau=tau, B=B, w=w, mu=1.0 - w)


@dataclass(frozen=True)
class SideAllocation:
    """Even-valued allocation for one side of a bipartite graph."""

    tau: tuple[int, ...]
    B: int
    w: float


def allocate_bipartite_side(n_side: int, B_side: int) -> SideAllocation:
    """Optimal even placement on one side: entries differ by at most two.

    The per-node values are ceil(B/n) and floor(B/n) rounded outward to even,
    with the count of high entries fixed by the budget.  The degenerate
    all-twos budget B_side = 2*n_side is accepted because the co-optimization
    brackets start there.
    """
    if n_side < 1:
        raise InvalidSpec(f"side size must be >= 1, got {n_side}")
    if B_side % 2:
        raise ParityError(f"side budget must be even, got {B_side}")
    if B_side < 2 * n_side:
        raise BudgetOutOfRange(f"side budget {B_side} cannot give {n_side} nodes >= 2 each")
    high, rem = divmod(B_side, n_side)
    low = high
    if high % 2:
        high += 1
        low -= 1
    elif rem:
        high += 2
    if high == low:
        count_high = n_side
    else:
        count_high = (B_side - n_side * low) // 2
    tau = (high,) * count_high + (low,) * (n_side - count_high)
    assert sum(tau) == B_side
    return SideAllocation(tau=tau, B=B_side, w=bipartite_side_value(tau))


def co_optimize_bipartite(n_p: int, n_q: int, B: int) -> AllocationResult:
    """Best even split of B across the two sides of a complete bipartite graph.

    Bisects on the P-side sub-budget: the P-side value falls and the Q-side
    value rises as budget moves to P, so the overall value max(w_p, w_q) is
    minimized where they cross.  Both surviving bracket ends are evaluated
    and the better one returned (ties go to the smaller sub-budget).
    """
    if n_p < 1 or n_q < 1:
        raise InvalidSpec(f"side sizes must be >= 1, got ({n_p}, {n_q})")
    if B % 2:
        raise ParityError(f"total budget must be even, got {B}")
    lo_limit = 2 * (n_p + n_q)
    hi_limit = 2 * (n_p * n_p + n_q * n_q)
    if not lo_limit < B < hi_limit:
        raise BudgetOutOfRange(f"budget must satisfy {lo_limit} < B < {hi_limit}, got {B}")

    lb, ub = 2 * n_p, B - 2 * n_q
    while ub - lb > 2:
        b_p = (lb + ub) // 2
        if b_p % 2:
            b_p += 1
        side_p = allocate_bipartite_side(n_p, b_p)
        side_q = allocate_bipartite_side(n_q, B - b_p)
        if side_p.w < side_q.w:
            ub = b_p
        else:
            lb = b_p

    best = None
    for b_p in sorted({lb, ub}):
        side_p = allocate_bipartite_side(n_p, b_p)
        side_q = allocate_bipartite_side(n_q, B - b_p)
        w = max(side_p.w, side_q.w)
        if best is None or w < best[0] - 1e-12:
            best = (w, b_p, side_p, side_q)
    w, b_p, side_p, side_q = best
    return AllocationResult(
        tau=side_p.tau + side_q.tau, B=B, w=w, mu=1.0 - w,
        B_p=b_p, B_q=B - b_p, tau_p=side_p.tau, tau_q=side_q.tau,
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
    """Move `step` units from a largest to a smallest entry until balanced.

    Each transfer strictly lowers the solved value w, which is how the
    closed-form placement rules are proved optimal.  Step 1 balances a
    complete-graph allocation (entries >= 1), step 2 one even bipartite side
    (entries even and >= 2).
    """
    if step not in (1, 2):
        raise InvalidSpec(f"step must be 1 or 2, got {step}")
    current = [int(t) for t in tau]
    if not current:
        raise InvalidSpec("allocation must be nonempty")
    if step == 1 and min(current) < 1:
        raise InvalidStart(f"entries must be >= 1: {current}")
    if step == 2 and any(t < 2 or t % 2 for t in current):
        raise InvalidStart(f"entries must be even and >= 2: {current}")

    def value(alloc: list[int]) -> float:
        if step == 1:
            return complete_allocation_value(alloc)
        return bipartite_side_value(alloc)

    states = [(tuple(current), value(current))]
    while max(current) - min(current) > step:
        current[current.index(max(current))] -= step
        current[current.index(min(current))] += step
        states.append((tuple(current), value(current)))
    return BalancingTrace(states=tuple(states))
