import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from patrolgame import (
    BudgetOutOfRange,
    InvalidSpec,
    InvalidStart,
    ParityError,
    allocate,
    allocate_bipartite_side,
    allocate_complete,
    bipartite_side_value,
    co_optimize_bipartite,
    complete_allocation_value,
    pairwise_balance,
    synthesize_bipartite,
    synthesize_complete,
    build_bipartite,
    build_complete,
    build_star,
)
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


# --- pairwise balancing ----------------------------------------------------------

def test_balance_two_transfers():
    trace = pairwise_balance([5, 1, 1], step=1)
    assert trace.taus == ((5, 1, 1), (4, 2, 1), (3, 2, 2))
    ws = trace.ws
    assert all(b < a for a, b in zip(ws, ws[1:]))


def test_balance_already_balanced():
    trace = pairwise_balance([3, 2, 2], step=1)
    assert trace.taus == ((3, 2, 2),)


def test_balance_even_side():
    trace = pairwise_balance([8, 2, 2], step=2)
    assert trace.taus == ((8, 2, 2), (6, 4, 2), (4, 4, 4))
    assert all(b < a for a, b in zip(trace.ws, trace.ws[1:]))


def test_balance_invalid_starts():
    with pytest.raises(InvalidStart):
        pairwise_balance([3, 0, 1], step=1)
    with pytest.raises(InvalidStart):
        pairwise_balance([4, 3], step=2)
    with pytest.raises(InvalidStart):
        pairwise_balance([4, 0], step=2)
    with pytest.raises(InvalidSpec):
        pairwise_balance([3, 2], step=3)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(1, 9), min_size=2, max_size=5))
def test_balance_conserves_budget_and_reaches_closed_form(tau):
    B = sum(tau)
    n = len(tau)
    trace = pairwise_balance(tau, step=1)
    assert all(sum(state) == B for state in trace.taus)
    assert max(trace.final) - min(trace.final) <= 1
    high, rem = divmod(B, n)
    expected = sorted([high + 1] * rem + [high] * (n - rem), reverse=True)
    assert sorted(trace.final, reverse=True) == expected
    # in the theorem's budget range the value strictly decreases every step
    if n < B < n * n:
        assert all(b < a for a, b in zip(trace.ws, trace.ws[1:]))


def test_balance_terminal_matches_allocate_complete():
    trace = pairwise_balance([7, 1, 1, 1], step=1)
    closed = allocate_complete(4, 10)
    assert sorted(trace.final, reverse=True) == list(closed.tau)
    assert trace.ws[-1] == pytest.approx(closed.w, abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(1, 12).map(lambda u: 2 * u), min_size=1, max_size=6))
def test_two_sided_balance_ends_at_the_side_rule(tau):
    trace = pairwise_balance(tau, step=2)
    rule = allocate_bipartite_side(len(tau), sum(tau))
    assert tuple(sorted(trace.final, reverse=True)) == rule.tau
    assert trace.ws[-1] == rule.w


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
