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
from .graphs import BIPARTITE, COMPLETE, GraphTopology, check_durations, check_integers
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
    # tuple() of a list: from a generator, bipartite sweeps kept ~1 MB more resident
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


def co_optimize_bipartite(n_p: int, n_q: int, B: int) -> AllocationResult:
    """Best even split of B across the two sides of a complete bipartite graph.

    Bisects on the P-side sub-budget, counted in units of 2: the P-side value
    falls and the Q-side value rises as budget moves to P, so the overall
    value max(w_p, w_q) is minimized where they cross.  Both surviving
    bracket ends are evaluated; the larger sub-budget wins only when its
    value is lower by more than 1e-12, so ties go to the smaller one.
    """
    check_integers(budget=B)
    check_integers(1, n_p=n_p, n_q=n_q)
    if B % 2:
        raise ParityError(f"total budget must be even, got {B}")
    if n_p == n_q == 1:
        raise TrivialGame("sides (1, 1): two one-node sides capture every attack at any split")
    lo_limit = 2 * (n_p + n_q)
    hi_limit = 2 * (n_p * n_p + n_q * n_q)
    if not lo_limit < B < hi_limit:
        raise BudgetOutOfRange(f"budget must satisfy {lo_limit} < B < {hi_limit}, got {B}")

    half = B // 2
    lb, ub = n_p, half - n_q
    while ub - lb > 1:
        mid = (lb + ub + 1) // 2
        if _side_value(n_p, mid) < _side_value(n_q, half - mid):
            ub = mid
        else:
            lb = mid

    lower, upper = ((_side_value(n_p, u), _side_value(n_q, half - u), u) for u in (lb, ub))
    w_p, w_q, units = upper if max(upper[:2]) < max(lower[:2]) - 1e-12 else lower
    w = max(w_p, w_q)
    tau_p, tau_q = _even_side(n_p, units), _even_side(n_q, half - units)
    return AllocationResult(
        tau=tau_p + tau_q, B=B, w=w, mu=1.0 - w, B_p=2 * units, B_q=B - 2 * units,
        tau_p=tau_p, tau_q=tau_q, w_p=w_p, w_q=w_q)


def allocate(g: GraphTopology, B: int) -> AllocationResult:
    """The family's optimal split of budget B over the nodes of `g`.

    Complete graphs use `allocate_complete`, bipartite graphs
    `co_optimize_bipartite`; any other family raises `Unsupported`.
    """
    if g.family == COMPLETE:
        return allocate_complete(g.n, B)
    if g.family == BIPARTITE:
        return co_optimize_bipartite(g.n_p, g.n_q, B)
    raise Unsupported(f"{g.family} allocation is unsupported")
