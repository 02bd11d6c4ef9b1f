"""Integer allocation of a defense budget over nodes.

Interpreting each attack duration as the strength of the defenses at that
node, the best split of a total budget B is one rule: count B in units of
the family's step (1 on complete graphs, 2 on each bipartite side) and split
the units as evenly as possible, so entries differ by at most one unit.
The pairwise-balancing lemma behind the rule (moving a unit from a largest
to a smallest entry strictly lowers w) is checked in tests/test_allocation.py.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import BudgetOutOfRange, InvalidSpec, ParityError, TrivialGame, Unsupported
from .graphs import (BIPARTITE, COMPLETE, GraphTopology, build_bipartite, check_durations,
                     check_integers)
from .synthesis import solve_equalized_value


@dataclass(frozen=True)
class AllocationResult:
    """An integer budget split with its solved game value.

    `tau` is sorted non-increasing (per side for the two-sided case, with the
    P side first); any permutation performs identically.  `mu` is the capture
    probability of the matching synthesized strategy, 1 - w; for one
    bipartite side, `allocate_bipartite_side`, it is 1 - w of that side.
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


def _side_value(n: int, units: int) -> float:
    """w of `units` split near-uniformly over n entries."""
    return solve_equalized_value(_near_uniform(n, units)[::-1])


def _even_side(n: int, units: int) -> tuple[int, ...]:
    """`units` units of 2 split near-uniformly over a side of n nodes."""
    return tuple([2 * u for u in _near_uniform(n, units)])


def complete_allocation_value(tau: Sequence[int]) -> float:
    """Game value w of a complete-graph allocation: sum_i w**(1/tau_i) = n - 1."""
    return solve_equalized_value(tuple(sorted(check_durations(tau, len(tau)))))


def bipartite_side_value(tau_side: Sequence[int]) -> float:
    """Game value w of one even-valued side: sum_i w**(2/tau_i) = n_side - 1."""
    durations = check_durations(tau_side, len(tau_side))
    if any(t % 2 or t < 2 for t in durations):
        raise InvalidSpec(f"side durations must be even and >= 2: {durations}")
    return solve_equalized_value(tuple(sorted(t // 2 for t in durations)))


def complete_split(n: int, B: int) -> tuple[int, ...]:
    """Optimal placement on a complete graph: B units of 1 split near-uniformly.

    Valid for budgets strictly between n (anything less cannot give every
    node a unit) and n*n (anything more makes the game trivial).
    """
    check_integers(budget=B, n=n)
    if n < 2:
        raise InvalidSpec(f"complete-graph allocation needs n >= 2, got {n}")
    if not n < B < n * n:
        raise BudgetOutOfRange(f"budget must satisfy {n} < B < {n * n}, got {B}")
    return _near_uniform(n, B)


def allocate_complete(n: int, B: int) -> AllocationResult:
    """`complete_split` of B with its solved game value."""
    tau = complete_split(n, B)
    w = _side_value(n, B)
    return AllocationResult(tau=tau, B=B, w=w, mu=1.0 - w)


def allocate_bipartite_side(n_side: int, B_side: int) -> AllocationResult:
    """Optimal even placement on one side: B/2 units of 2 split near-uniformly.

    Entries are even and differ by at most two.  The degenerate all-twos
    budget B_side = 2*n_side is accepted.
    """
    check_integers(budget=B_side)
    check_integers(1, n_side=n_side)
    if B_side % 2:
        raise ParityError(f"side budget must be even, got {B_side}")
    if B_side < 2 * n_side:
        raise BudgetOutOfRange(f"side budget {B_side} cannot give {n_side} nodes >= 2 each")
    w = _side_value(n_side, B_side // 2)
    return AllocationResult(tau=_even_side(n_side, B_side // 2), B=B_side, w=w, mu=1.0 - w)


def bipartite_splits(g: GraphTopology, budgets: Sequence[int], sides: dict) -> list[tuple]:
    """(units, w_p, w_q) of the best even split of each of `budgets` across the
    sides of K_{n_p, n_q} = `g`, 2 * units on the P side, each side value
    memoized in `sides` by (side size, units); other families are `Unsupported`.

    Bisects on the P-side units: the P-side value falls and the Q-side value
    rises as budget moves to P, so the overall value max(w_p, w_q) is
    minimized where they cross.  Both surviving bracket ends are evaluated;
    the larger sub-budget wins only when its value is lower by more than
    1e-12, so ties go to the smaller one.
    """
    if g.family != BIPARTITE:
        raise Unsupported(f"{g.family} allocation is unsupported")
    n_p, n_q = g.n_p, g.n_q

    def side(n: int, units: int) -> float:
        w = sides.get((n, units))
        if w is None:
            w = sides[n, units] = _side_value(n, units)
        return w

    splits = []
    for i, B in enumerate(budgets):
        check_integers(budget=B)
        if not i:  # the sizes pass or fail at the first budget: their checks run once
            check_integers(1, n_p=n_p, n_q=n_q)
            lo_limit, hi_limit = 2 * (n_p + n_q), 2 * (n_p * n_p + n_q * n_q)
        if B % 2:
            raise ParityError(f"total budget must be even, got {B}")
        if n_p == n_q == 1:
            raise TrivialGame("sides (1, 1): two one-node sides capture every attack at any split")
        if not lo_limit < B < hi_limit:
            raise BudgetOutOfRange(f"budget must satisfy {lo_limit} < B < {hi_limit}, got {B}")
        half = B // 2
        lb, ub = n_p, half - n_q
        while ub - lb > 1:
            mid = (lb + ub + 1) // 2
            if side(n_p, mid) < side(n_q, half - mid):
                ub = mid
            else:
                lb = mid
        lower, upper = ((u, side(n_p, u), side(n_q, half - u)) for u in (lb, ub))
        splits.append(upper if max(upper[1:]) < max(lower[1:]) - 1e-12 else lower)
    return splits


def allocate_budgets(g: GraphTopology, budgets: Sequence[int]) -> list[AllocationResult]:
    """The family's optimal split of each of `budgets` over the nodes of `g`:
    `allocate_complete` or `bipartite_splits`, whose side values the call's
    budgets share; other families raise `Unsupported`."""
    if g.family == COMPLETE:
        return [allocate_complete(g.n, B) for B in budgets]
    results = []
    for B, (units, w_p, w_q) in zip(budgets, bipartite_splits(g, budgets, {})):
        tau_p, tau_q = _even_side(g.n_p, units), _even_side(g.n_q, B // 2 - units)
        w = max(w_p, w_q)
        results.append(AllocationResult(
            tau=tau_p + tau_q, B=B, w=w, mu=1.0 - w, B_p=2 * units, B_q=B - 2 * units,
            tau_p=tau_p, tau_q=tau_q, w_p=w_p, w_q=w_q))
    return results


def co_optimize_bipartite(n_p: int, n_q: int, B: int) -> AllocationResult:
    """Best even split of B across the two sides of a complete bipartite graph."""
    return allocate(build_bipartite(n_p, n_q), B)


def allocate(g: GraphTopology, B: int) -> AllocationResult:
    """`allocate_budgets` of the one budget B."""
    return allocate_budgets(g, [B])[0]
