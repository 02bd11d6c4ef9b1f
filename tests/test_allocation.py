import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from patrolgame import (
    BudgetOutOfRange,
    InvalidSpec,
    ParityError,
    TrivialGame,
    Unsupported,
    allocate,
    allocate_bipartite_side,
    allocate_complete,
    bipartite_side_value,
    co_optimize_bipartite,
    complete_allocation_value,
    solve_equalized_value,
    synthesize_bipartite,
    synthesize_complete,
    build_bipartite,
    build_complete,
    build_general,
    build_star,
    exhaustive_allocation,
    synthesize,
)
from patrolgame.allocation import complete_split
from patrolgame.cli import _dump_json

GOLDEN_W = (3 - math.sqrt(5)) / 2


# --- complete graphs -----------------------------------------------------------

def test_complete_remainder_goes_to_the_first_nodes():
    result = allocate_complete(3, 7)
    assert result.tau == (3, 2, 2)
    assert result.B == 7
    assert result.mu == pytest.approx(1 - result.w, abs=1e-15)


def test_complete_divisible_budget_is_uniform():
    result = allocate_complete(3, 6)
    assert result.tau == (2, 2, 2)
    assert result.w == pytest.approx(4 / 9, abs=1e-10)


def test_complete_two_extra_units():
    assert allocate_complete(4, 10).tau == (3, 3, 2, 2)


@pytest.mark.parametrize("B", [2, 3, 9, 15])
def test_complete_budget_range(B):
    with pytest.raises(BudgetOutOfRange):
        allocate_complete(3, B)


def test_complete_needs_two_nodes():
    with pytest.raises(InvalidSpec):
        allocate_complete(1, 2)


def test_complete_budget_conservation_and_floor():
    for n in range(2, 6):
        for B in range(n + 1, n * n):
            result = allocate_complete(n, B)
            assert sum(result.tau) == B
            assert max(result.tau) - min(result.tau) <= 1
            assert result.w > math.exp(-2)
            assert result.mu < 1 - math.exp(-2)


# --- the balancing lemma ------------------------------------------------------------

def _balancing_walk(units):
    """`units`, then the units after each transfer of one unit from a first
    largest entry to a first smallest one, until entries differ by at most one."""
    units = list(units)
    walk = [tuple(units)]
    while max(units) - min(units) > 1:
        units[units.index(max(units))] -= 1
        units[units.index(min(units))] += 1
        walk.append(tuple(units))
    return walk


def _strictly_falling_values(walk):
    ws = [solve_equalized_value(tuple(sorted(units))) for units in walk]
    assert all(b < a for a, b in zip(ws, ws[1:])), ws
    return ws


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 5).flatmap(
    # an entry above n^2 - n puts B at n^2 or more, so capping the entries
    # there keeps every list with n < B < n^2 and filters out fewer
    lambda n: st.lists(st.integers(1, min(9, n * n - n)), min_size=n, max_size=n)))
def test_every_transfer_lowers_w_down_to_the_complete_split(tau):
    n, B = len(tau), sum(tau)
    assume(n < B < n * n)
    walk = _balancing_walk(tau)
    ws = _strictly_falling_values(walk)
    assert tuple(sorted(walk[-1], reverse=True)) == complete_split(n, B)
    assert ws[-1] == allocate_complete(n, B).w


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(1, 8), min_size=1, max_size=5))
def test_every_transfer_lowers_w_down_to_the_side_rule(units):
    walk = _balancing_walk(units)
    ws = _strictly_falling_values(walk)
    rule = allocate_bipartite_side(len(units), 2 * sum(units))
    assert tuple(sorted((2 * u for u in walk[-1]), reverse=True)) == rule.tau
    assert ws[-1] == rule.w


# --- bipartite sides ---------------------------------------------------------------

def test_side_reference_instances():
    assert allocate_bipartite_side(3, 14).tau == (6, 4, 4)
    assert allocate_bipartite_side(2, 6).tau == (4, 2)
    assert allocate_bipartite_side(3, 10).tau == (4, 4, 2)


def test_side_degenerate_budget_allowed():
    side = allocate_bipartite_side(3, 6)
    assert side.tau == (2, 2, 2)
    # all exponents collapse to one: 3w = 2
    assert side.w == pytest.approx(2 / 3, abs=1e-10)


def test_side_uniform_even_level():
    assert allocate_bipartite_side(3, 12).tau == (4, 4, 4)


def test_side_parity_and_range():
    with pytest.raises(ParityError):
        allocate_bipartite_side(3, 9)
    with pytest.raises(BudgetOutOfRange):
        allocate_bipartite_side(3, 4)


def test_side_equation_value():
    side = allocate_bipartite_side(2, 6)
    # sum of w**(2/tau) over (4, 2) equals n - 1 = 1
    w = side.w
    assert w ** (2 / 4) + w ** (2 / 2) == pytest.approx(1.0, abs=1e-9)
    assert w == pytest.approx(GOLDEN_W, abs=1e-10)


def test_side_value_requires_even_entries():
    with pytest.raises(InvalidSpec):
        bipartite_side_value([4, 3])


def test_side_budget_conservation_sweep():
    for n_side in (2, 3, 4):
        for B_side in range(2 * n_side, 2 * n_side * n_side + 1, 2):
            side = allocate_bipartite_side(n_side, B_side)
            assert sum(side.tau) == B_side
            assert all(t % 2 == 0 and t >= 2 for t in side.tau)
            assert max(side.tau) - min(side.tau) <= 2


# --- co-optimization ------------------------------------------------------------------

def test_co_optimize_reference_instance():
    result = co_optimize_bipartite(3, 2, 20)
    assert (result.B_p, result.B_q) == (14, 6)
    assert result.tau_p == (6, 4, 4)
    assert result.tau_q == (4, 2)
    assert result.mu == pytest.approx(0.6007819285453665, abs=1e-9)
    assert result.tau == result.tau_p + result.tau_q
    assert sum(result.tau) == 20


def test_co_optimize_symmetric_instance():
    result = co_optimize_bipartite(2, 2, 12)
    assert result.B_p == result.B_q == 6
    assert result.tau_p == result.tau_q == (4, 2)
    assert result.mu == pytest.approx(1 - GOLDEN_W, abs=1e-9)


def test_co_optimize_tie_breaks_to_smaller_sub_budget():
    result = co_optimize_bipartite(2, 2, 10)
    assert result.B_p == 4
    assert result.mu == pytest.approx(0.5, abs=1e-9)


def test_co_optimize_parity_and_range():
    with pytest.raises(ParityError):
        co_optimize_bipartite(2, 2, 11)
    with pytest.raises(BudgetOutOfRange):
        co_optimize_bipartite(2, 2, 8)
    with pytest.raises(BudgetOutOfRange):
        co_optimize_bipartite(2, 2, 16)
    with pytest.raises(TrivialGame, match=r"sides \(1, 1\)"):
        co_optimize_bipartite(1, 1, 6)


def test_co_optimize_matches_a_scan_of_every_even_split():
    # every even split of B, each scored by the larger of its two side values;
    # the answer's sides are the split it picks, each with its own value
    for n_p in range(1, 9):
        for n_q in range(1, 9):
            if n_p == n_q == 1:
                continue
            g = build_bipartite(n_p, n_q)
            for B in range(2 * (n_p + n_q) + 2, 2 * (n_p * n_p + n_q * n_q), 2):
                case = (n_p, n_q, B)
                scan = {B_p: max(allocate_bipartite_side(n_p, B_p).w,
                                 allocate_bipartite_side(n_q, B - B_p).w)
                        for B_p in range(2 * n_p, B - 2 * n_q + 1, 2)}
                result, best = co_optimize_bipartite(n_p, n_q, B), min(scan.values())
                assert result.w == best, case
                assert scan[result.B_p] <= best + 1e-12, case
                assert result.B_p + result.B_q == B, case
                assert result.tau == result.tau_p + result.tau_q, case
                sides = ((n_p, result.B_p, result.tau_p, result.w_p),
                         (n_q, result.B_q, result.tau_q, result.w_q))
                for n_side, B_side, tau_side, w_side in sides:
                    assert len(tau_side) == n_side and sum(tau_side) == B_side, case
                    assert all(t % 2 == 0 and t >= 2 for t in tau_side), case
                    assert max(tau_side) - min(tau_side) <= 2, case
                    assert w_side == bipartite_side_value(tau_side), case
                assert result.w == max(result.w_p, result.w_q), case
                assert synthesize(g, result.tau).w == result.w, case


@pytest.mark.parametrize("allocate_with, sizes, B", [
    (allocate_complete, (3,), 8),
    (allocate_bipartite_side, (2,), 8),
    (co_optimize_bipartite, (2, 2), 12),
], ids=["allocate_complete", "allocate_bipartite_side", "co_optimize_bipartite"])
def test_a_budget_must_be_an_integer(allocate_with, sizes, B):
    with pytest.raises(InvalidSpec, match="budget must be an integer"):
        allocate_with(*sizes, float(B))
    assert allocate_with(*sizes, np.int64(B)) == allocate_with(*sizes, B)


@pytest.mark.parametrize("allocate_with, sizes, B", [
    (complete_split, (3,), 5),
    (allocate_complete, (3,), 5),
    (allocate_bipartite_side, (2,), 8),
    (co_optimize_bipartite, (2, 3), 20),
], ids=["complete_split", "allocate_complete", "allocate_bipartite_side", "co_optimize_bipartite"])
def test_a_size_must_be_an_integer(allocate_with, sizes, B):
    for at, size in enumerate(sizes):
        for bad in (float(size), size + 0.5):
            args = sizes[:at] + (bad,) + sizes[at + 1:]
            with pytest.raises(InvalidSpec, match="must be an integer"):
                allocate_with(*args, B)
    assert allocate_with(*map(np.int64, sizes), B) == allocate_with(*sizes, B)


def test_co_optimize_value_matches_strategy_evaluation():
    result = co_optimize_bipartite(3, 2, 20)
    g = build_bipartite(3, 2)
    strategy = synthesize_bipartite(g, result.tau_p, result.tau_q)
    assert strategy.mu == pytest.approx(result.mu, abs=1e-12)


def test_side_values_monotone_in_sub_budget():
    # the bisection inside the co-optimizer relies on opposite monotonicity
    n_p, n_q, B = 3, 2, 20
    w_ps, w_qs = [], []
    for b_p in range(2 * n_p, B - 2 * n_q + 1, 2):
        w_ps.append(allocate_bipartite_side(n_p, b_p).w)
        w_qs.append(allocate_bipartite_side(n_q, B - b_p).w)
    assert all(b <= a + 1e-12 for a, b in zip(w_ps, w_ps[1:]))
    assert all(b >= a - 1e-12 for a, b in zip(w_qs, w_qs[1:]))


def test_allocate_dispatches_on_family():
    assert allocate(build_complete(3), 7) == allocate_complete(3, 7)
    assert allocate(build_bipartite(3, 2), 20) == co_optimize_bipartite(3, 2, 20)
    with pytest.raises(InvalidSpec, match="star allocation is unsupported"):
        allocate(build_star(3), 7)


def test_a_family_without_the_construction_is_unsupported():
    ring = build_general(3, [[1, 2], [2, 3], [3, 1]])
    calls = [(lambda: synthesize(ring, (2, 2, 2)), "no strategy synthesis for the general"),
             (lambda: allocate(build_star(3), 7), "star allocation is unsupported"),
             (lambda: exhaustive_allocation(build_star(3), 7), "star allocation is unsupported")]
    for call, message in calls:
        with pytest.raises(Unsupported, match=message) as exc:
            call()
        assert isinstance(exc.value, InvalidSpec)


def test_allocation_json_shape():
    payload = json.loads(_dump_json(co_optimize_bipartite(3, 2, 20)))
    assert set(payload) == {"tau", "B", "w", "mu", "B_p", "B_q", "tau_p", "tau_q", "w_p", "w_q"}
    payload = json.loads(_dump_json(allocate_complete(3, 7)))
    assert set(payload) == {"tau", "B", "w", "mu"}


def test_complete_value_equation():
    # solved value satisfies sum_i w**(1/tau_i) = n - 1
    tau = (3, 2, 2)
    w = complete_allocation_value(tau)
    assert sum(w ** (1 / t) for t in tau) == pytest.approx(2.0, abs=1e-9)
    result = synthesize_complete(tau)
    assert result.w == pytest.approx(w, abs=1e-12)
