import math
from dataclasses import replace
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import patrolgame.graphs
import patrolgame.synthesis

from patrolgame import (
    DimensionMismatch,
    InfeasibleTau,
    InvalidSpec,
    PatrolGameError,
    TrivialGame,
    build_bipartite,
    build_complete,
    build_general,
    build_star,
    capture_probability,
    capture_upper_bound,
    generic_capture_bound,
    allocation_agreement_suite,
    solve_equalized_value,
    solve_equalized_values,
    stationary_distribution,
    synthesize,
    synthesize_bipartite,
    synthesize_complete,
    synthesize_star,
    uniform_bipartite_baseline,
)
from patrolgame.synthesis import values

# root of s^2 + s = 1 squared: solves sqrt(w) + w = 1, i.e. exponents (2, 1)
GOLDEN_W = (3 - math.sqrt(5)) / 2
# root of w**(1/3) + 2*w**(1/2) = 2, i.e. exponents (3, 2, 2); derived below
# from the cubic 2s^3 + s^2 - 2 = 0 with s = w**(1/6)
W_322 = 0.39921807145463346


def cubic_oracle_w322():
    roots = np.roots([2.0, 1.0, 0.0, -2.0])
    s = [r.real for r in roots if abs(r.imag) < 1e-12 and 0 < r.real < 1]
    assert len(s) == 1
    return s[0] ** 6


# --- equalization ------------------------------------------------------------

def decimal_log_root(exponents):
    """s = log w with sum_i exp(s / m_i) = len(m) - 1, in 50-digit decimal
    arithmetic: Newton from s = 0 until a step is below 1e-40 of max(1, |s|)."""
    with localcontext() as ctx:
        ctx.prec = 50
        inv = [Decimal(1) / m for m in exponents]
        s = Decimal(0)
        for _ in range(1000):
            terms = [(s * x).exp() for x in inv]
            step = (sum(terms) - (len(inv) - 1)) / sum(t * x for t, x in zip(terms, inv))
            s -= step
            if abs(step) < Decimal("1e-40") * max(1, abs(s)):
                return s
    raise AssertionError(f"no decimal root of {exponents}")


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(1, 400) | st.integers(1, 10**6), min_size=2, max_size=300))
@example([1] * 300)
@example(list(range(101, 401)))
@example([1, 10**6])
def test_equalized_value_is_within_ulps_of_a_decimal_root(exponents):
    # s is computed to a few ulps; exp magnifies s's last bit |s| times, so
    # w's bound scales with max(1, |s|); below the normal range the ulp is
    # the subnormal one and the bound holds as it is
    exact = decimal_log_root(exponents)
    s = patrolgame.synthesis._log_equalized_value(sorted(exponents))
    assert abs(Decimal(s) - exact) <= 4 * Decimal(math.ulp(float(exact)))
    w, w_exact = solve_equalized_value(tuple(exponents)), exact.exp()
    bound = 4 * Decimal(math.ulp(float(w_exact))) * max(1, abs(exact))
    assert abs(Decimal(w) - w_exact) <= bound


def test_equalized_value_prints_the_exact_fraction_of_a_uniform_row():
    # a uniform row of n exponents m solves to w = ((n - 1) / n)**m; the CLI
    # prints 12 significant digits
    assert 1.0 - solve_equalized_value((2, 2, 2)) == 5 / 9
    assert solve_equalized_value((2, 2)) == 0.25
    for n in range(2, 41):
        for m in range(1, 61):
            exact = Fraction(n - 1, n) ** m
            assert "%.12g" % solve_equalized_value((m,) * n) == "%.12g" % exact, (n, m)


class _CountingNumpy:
    """numpy, counting the calls of np.expm1: one per Newton evaluation."""

    def __init__(self):
        self.evaluations = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def expm1(self, *args, **kwargs):
        self.evaluations += 1
        return np.expm1(*args, **kwargs)


def _cli_range_exponents():
    """Exponent vectors over the CLI's range (n <= 1000, m <= 1e6): the widest
    spreads, where Newton's first steps are the slowest, then random ones."""
    rows = [(1, 10**6), (1, 10**6, 10**6), (1,) + (10**6,) * 999, (1,) * 999 + (10**6,),
            (10**6,) * 1000, (1,) * 1000, (1, 2), (2, 2, 2)]
    rng = np.random.default_rng(2032)
    for n in (2, 3, 10, 100, 1000):
        for _ in range(40):
            rows.append(tuple(sorted(np.maximum(1, np.round(10 ** rng.uniform(0, 6, n)))
                                     .astype(int).tolist())))
    return rows


def test_newton_steps_are_few_over_the_cli_range(monkeypatch):
    counting = _CountingNumpy()
    monkeypatch.setattr(patrolgame.synthesis, "np", counting)
    worst = 0
    for m in _cli_range_exponents():
        counting.evaluations = 0
        patrolgame.synthesis._log_equalized_value(m)
        worst = max(worst, counting.evaluations)
    # the most is on (1, 10**6), where each step falls by about 1 until
    # exp(s) nears 1e-6; a uniform row takes 4 to 7
    assert worst <= 20
    for n in (2, 3, 10, 29):
        counting.evaluations = 0
        solve_equalized_values([(tau,) * n for tau in range(1, 1001)])
        assert counting.evaluations <= 7


# w to the last bit; each is within two ulps of its 50-digit root
PINNED_W = [
    ((1, 2), "0x1.8722191a02d61p-2"),
    ((2, 3, 3, 4), "0x1.c3033119df351p-2"),
    ((1, 1, 2, 3, 5, 8), "0x1.649ba40b7a090p-1"),
    ((12,) * 29, "0x1.500a1e5153d69p-1"),
    (tuple(int(m) for m in np.random.default_rng(2026).integers(1, 40, size=300)),
     "0x1.ef9d5acabde05p-1"),
]


@pytest.mark.parametrize("exponents, w_hex", PINNED_W,
                         ids=["1,2", "2,3,3,4", "fibonacci", "12x29", "seeded300"])
def test_equalized_value_is_pinned_bitwise(exponents, w_hex):
    assert float.hex(solve_equalized_value(exponents)) == w_hex


def _assert_batch_is_the_scalar(rows):
    rows = [tuple(int(m) for m in row) for row in rows]
    got = [float.hex(w) for w in solve_equalized_values(rows).tolist()]
    assert got == [float.hex(solve_equalized_value(row)) for row in rows]


def _suite_batches(monkeypatch):
    """The rows of every batch the alloc-oracle suite at nmax 6 solves."""
    batches = []
    batch = patrolgame.synthesis.solve_equalized_values

    def recording(rows):
        batches.append(np.asarray(rows).tolist())
        return batch(rows)

    monkeypatch.setattr(patrolgame.synthesis, "solve_equalized_values", recording)
    allocation_agreement_suite(nmax=6)
    monkeypatch.undo()
    return batches


# bit for bit: a lane that stops one midpoint early or late, or a sum taken in
# another order (n >= 8 sums in eight interleaved partial sums), fails
def test_batch_equals_scalar_on_every_alloc_oracle_multiset(monkeypatch):
    batches = _suite_batches(monkeypatch)
    assert sum(map(len, batches)) == 9688
    for rows in batches:
        _assert_batch_is_the_scalar(rows)


@pytest.mark.parametrize("n", range(2, 41))
def test_batch_equals_scalar_on_uniform_rows(n):
    _assert_batch_is_the_scalar([(tau,) * n for tau in range(1, 61)])


@pytest.mark.parametrize("n", range(2, 41))
def test_batch_equals_scalar_on_random_rows(n):
    rng = np.random.default_rng([2026, n])
    _assert_batch_is_the_scalar(np.sort(rng.integers(1, 400, size=(40, n)), axis=1))


def test_batch_sorts_each_row_and_gives_zero_at_width_one():
    assert solve_equalized_values([(4, 1, 2), (2, 1, 4)]).tolist() == [
        solve_equalized_value((1, 2, 4))] * 2
    assert solve_equalized_values([(1,), (7,), (300,)]).tolist() == [0.0, 0.0, 0.0]
    assert solve_equalized_values(np.zeros((0, 3))).shape == (0,)


@pytest.mark.parametrize("rows", [[], [1, 2], np.zeros((2, 0)), [(0, 2)], [(math.nan, 2)]],
                         ids=["empty", "one-dimensional", "width-0", "zero", "nan"])
def test_batch_rejects_what_is_not_positive_exponent_rows(rows):
    with pytest.raises(InvalidSpec):
        solve_equalized_values(rows)


@pytest.mark.parametrize("exponents", [(math.nan, 3), (2.5, 3), ("3", 2), (math.inf, 2)],
                         ids=["nan", "fraction", "text", "inf"])
@pytest.mark.parametrize("solve", [solve_equalized_value, lambda m: solve_equalized_values([m])],
                         ids=["scalar", "batch"])
def test_both_equalization_entry_points_refuse_exponents_that_are_not_integers(solve, exponents):
    with pytest.raises(InvalidSpec, match="integers"):
        solve(exponents)


@pytest.mark.parametrize("solve", [solve_equalized_value, lambda m: solve_equalized_values([m])],
                         ids=["scalar", "batch"])
def test_both_equalization_entry_points_refuse_an_exponent_past_the_float_range(solve):
    # Newton divides by each exponent, and no float holds 10**400
    with pytest.raises(InvalidSpec, match=r"^exponent 1\.00e\+400 is past the float range$"):
        solve((10 ** 400, 2))


@pytest.mark.parametrize("exponents", [(0, 2), (-1, 10 ** 400)], ids=["zero", "negative-and-huge"])
@pytest.mark.parametrize("solve", [solve_equalized_value, lambda m: solve_equalized_values([m])],
                         ids=["scalar", "batch"])
def test_both_equalization_entry_points_refuse_an_exponent_below_one_alike(solve, exponents):
    # one rule, one message: the least exponent is checked before the largest
    with pytest.raises(InvalidSpec, match=r"^exponents must be positive integers$"):
        solve(exponents)


def test_the_scalar_needs_at_least_one_exponent():
    with pytest.raises(InvalidSpec, match=r"^need at least one exponent$"):
        solve_equalized_value(())


def test_equalized_value_against_polynomial_oracle():
    assert solve_equalized_value((3, 2, 2)) == pytest.approx(cubic_oracle_w322(), abs=1e-11)
    assert solve_equalized_value((3, 2, 2)) == pytest.approx(W_322, abs=1e-11)
    assert solve_equalized_value((2, 1)) == pytest.approx(GOLDEN_W, abs=1e-11)
    assert solve_equalized_value((1,)) == 0.0


# --- complete graphs ----------------------------------------------------------

def test_complete_symmetric_instance():
    result = synthesize_complete([2, 2, 2])
    assert result.w == pytest.approx(4 / 9, abs=1e-10)
    assert result.mu == pytest.approx(5 / 9, abs=1e-10)
    np.testing.assert_allclose(result.pi, 1 / 3, atol=1e-10)
    np.testing.assert_allclose(result.P, 1 / 3, atol=1e-10)
    assert result.optimality == "heuristic"


def test_complete_two_nodes_mixed_durations():
    result = synthesize_complete([1, 2])
    assert result.w == pytest.approx(GOLDEN_W, abs=1e-10)
    assert result.mu == pytest.approx(1 - GOLDEN_W, abs=1e-10)
    np.testing.assert_allclose(result.pi, [1 - GOLDEN_W, GOLDEN_W], atol=1e-9)
    # both nodes' individual capture terms equalize at mu
    terms = [1 - (1 - result.pi[i]) ** t for i, t in enumerate((1, 2))]
    np.testing.assert_allclose(terms, result.mu, atol=1e-9)


@pytest.mark.parametrize("n,tau", [(2, 3), (3, 2), (4, 5), (6, 4)])
def test_complete_uniform_duration_closed_form(n, tau):
    result = synthesize_complete([tau] * n)
    assert result.mu == pytest.approx(1 - (1 - 1 / n) ** tau, abs=1e-9)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("synth", [synthesize_complete, synthesize_star])
def test_huge_equal_durations_give_a_finite_uniform_strategy(synth):
    # w**(1/tau) rounds to 1 here, so 1 - w**(1/tau) would be 0 in every entry
    result = synth((10 ** 20,) * 3)
    assert np.isfinite(result.P).all() and np.isfinite(result.pi).all()
    np.testing.assert_allclose(result.P.sum(axis=1), 1.0, atol=1e-12)
    if synth is synthesize_complete:
        np.testing.assert_allclose(result.pi, 1 / 3, atol=1e-12)
    else:  # the centre holds half the mass and the leaves share the rest
        np.testing.assert_allclose(result.pi, [0.5, 0.25, 0.25], atol=1e-12)


def test_complete_rejects_single_node():
    with pytest.raises(InvalidSpec):
        synthesize_complete([3])
    empty = patrolgame.graphs.GraphTopology(family="complete", n=0, adjacency=np.ones((0, 0)))
    with pytest.raises(InvalidSpec, match="needs n >= 2"):
        synthesize(empty, ())


def test_complete_equalization_and_recursion_agreement():
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = int(rng.integers(2, 7))
        tau = [int(t) for t in rng.integers(1, 9, size=n)]
        result = synthesize_complete(tau)
        terms = np.array([1 - (1 - result.pi[i]) ** tau[i] for i in range(n)])
        np.testing.assert_allclose(terms, terms[0], atol=1e-8)
        assert capture_probability(result.P, tau).mu == pytest.approx(result.mu, abs=1e-9)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(1, 8), min_size=2, max_size=6), st.integers(0, 5))
def test_complete_monotone_in_any_duration(tau, which):
    which %= len(tau)
    bumped = list(tau)
    bumped[which] += 1
    assert synthesize_complete(bumped).mu >= synthesize_complete(tau).mu - 1e-12


def test_complete_bound_dominance():
    rng = np.random.default_rng(13)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        tau = [int(t) for t in rng.integers(1, 9, size=n)]
        result = synthesize_complete(tau)
        bounds = capture_upper_bound(result.pi, tau, mu=result.mu)
        assert result.mu <= bounds.stationary_bound + 1e-9
        assert result.mu <= bounds.generic_bound + 1e-9
        assert 0.0 <= result.subopt_lb <= 1.0


# --- bipartite graphs -----------------------------------------------------------

def test_bipartite_reference_instance():
    g = build_bipartite(3, 2)
    result = synthesize_bipartite(g, [6, 4, 4], [4, 2])
    assert result.w_p == pytest.approx(W_322, abs=1e-10)
    assert result.w_q == pytest.approx(GOLDEN_W, abs=1e-10)
    assert result.mu == pytest.approx(1 - W_322, abs=1e-10)
    assert capture_probability(result.P, [6, 4, 4, 4, 2]).mu == pytest.approx(result.mu, abs=1e-9)


def test_bipartite_uniform_even_durations():
    g = build_bipartite(3, 2)
    result = synthesize_bipartite(g, [4, 4, 4], [4, 4])
    assert result.w_p == pytest.approx(4 / 9, abs=1e-10)
    assert result.w_q == pytest.approx(1 / 4, abs=1e-10)
    assert result.mu == pytest.approx(5 / 9, abs=1e-10)


def test_bipartite_duration_two_entry():
    g = build_bipartite(2, 2)
    result = synthesize_bipartite(g, [4, 2], [4, 2])
    assert result.w_p == pytest.approx(GOLDEN_W, abs=1e-10)


def test_bipartite_rejects_duration_below_two():
    g = build_bipartite(2, 2)
    with pytest.raises(InfeasibleTau):
        synthesize_bipartite(g, [4, 1], [4, 2])


def test_bipartite_stationary_structure():
    g = build_bipartite(3, 2)
    result = synthesize_bipartite(g, [6, 4, 4], [4, 2])
    # P side carries half the mass, split as the entering probabilities
    assert result.pi[:3].sum() == pytest.approx(0.5, abs=1e-9)
    np.testing.assert_allclose(result.pi, stationary_distribution(result.P), atol=1e-9)


def test_bipartite_recursion_agreement_random():
    rng = np.random.default_rng(23)
    for _ in range(20):
        n_p = int(rng.integers(1, 5))
        n_q = int(rng.integers(1, 5))
        tau_p = [int(t) for t in rng.integers(2, 10, size=n_p)]
        tau_q = [int(t) for t in rng.integers(2, 10, size=n_q)]
        g = build_bipartite(n_p, n_q)
        result = synthesize_bipartite(g, tau_p, tau_q)
        mu = capture_probability(result.P, tau_p + tau_q).mu
        assert mu == pytest.approx(result.mu, abs=1e-9)


def test_bipartite_on_star_graph_matches_star_solver():
    for tau in [(2, 2), (2, 2, 3, 4), (5, 2, 2, 2), (3, 7, 4, 9, 11, 2)]:
        g = build_star(len(tau))
        results = [synthesize_star(tau), synthesize(g, tau),
                   synthesize_bipartite(g, tau[:1], tau[1:])]
        fields = [(r.P.tobytes(), r.mu, r.w, r.subopt_lb, r.optimality, r.w_p, r.w_q)
                  for r in results]
        assert fields[0] == fields[1] == fields[2], tau
        assert fields[0][3:] == (1.0, "optimal", None, None), tau


def test_bipartite_dimension_check():
    g = build_bipartite(3, 2)
    with pytest.raises(DimensionMismatch):
        synthesize_bipartite(g, [4, 4], [4, 4])
    # a short side is a dimension error even when the other side is infeasible
    with pytest.raises(DimensionMismatch):
        synthesize_bipartite(build_bipartite(1, 2), [1], [2])


def test_bipartite_entry_refuses_a_graph_without_two_sides():
    with pytest.raises(InvalidSpec, match=r"^expected a bipartite or star graph, got 'complete'$"):
        synthesize_bipartite(build_complete(3), [2], [2, 2])


# --- family dispatch -------------------------------------------------------------

@pytest.mark.parametrize("graph, tau, direct", [
    (build_complete(3), (3, 2, 2), lambda: synthesize_complete((3, 2, 2))),
    (build_star(4), (2, 2, 3, 4), lambda: synthesize_star((2, 2, 3, 4))),
    (build_bipartite(3, 2), (6, 4, 4, 4, 2),
     lambda: synthesize_bipartite(build_bipartite(3, 2), (6, 4, 4), (4, 2))),
], ids=["complete", "star", "bipartite"])
def test_synthesize_dispatches_on_family(graph, tau, direct):
    result, expected = synthesize(graph, tau), direct()
    assert result.P.tobytes() == expected.P.tobytes()
    assert (result.mu, result.w, result.optimality) == (expected.mu, expected.w,
                                                        expected.optimality)


def reference_strategy(g, tau):
    """(P, pi) as the constructions `synthesize` replaced built them: a
    complete graph tiles its pi, a two-sided graph fills two blocks (P-side
    rows play q, Q-side rows play p) with pi = (p/2, q/2)."""
    def entry(m):  # equalized entry probabilities of one side's exponents, from s = log w
        s = patrolgame.synthesis._log_equalized_value(sorted(m)) if len(m) > 1 else -math.inf
        probs = -np.expm1(s / np.asarray(m, dtype=float))
        return probs / probs.sum()

    if g.family == "complete":
        pi = entry(tau)
        return np.tile(pi, (g.n, 1)), pi
    p, q = entry([t // 2 for t in tau[:g.n_p]]), entry([t // 2 for t in tau[g.n_p:]])
    P = np.zeros((g.n, g.n))
    P[:g.n_p, g.n_p:] = q
    P[g.n_p:, :g.n_p] = p
    return P, np.concatenate([p / 2.0, q / 2.0])


def test_one_construction_matches_the_per_family_constructions_bitwise():
    rng = np.random.default_rng(30)
    graphs = [build_complete(n) for n in range(2, 13)]
    graphs += [build_bipartite(n_p, n_q) for n_p in range(1, 7) for n_q in range(1, 7)]
    graphs += [build_star(n) for n in range(2, 13)]
    assert len(graphs) == 58
    for g in graphs:
        low = 1 if g.family == "complete" else 2
        tau = tuple(int(t) for t in rng.integers(low, 3 * g.n, size=g.n))
        result = synthesize(g, tau)
        P, pi = reference_strategy(g, tau)
        assert (result.P.tobytes(), result.pi.tobytes()) == (P.tobytes(), pi.tobytes()), (g, tau)


def test_sides_follow_the_family():
    assert build_complete(4).sides == (4,)
    assert build_bipartite(3, 2).sides == (3, 2)
    assert build_star(5).sides == (1, 4)
    assert replace(build_bipartite(1, 4), family="star").sides == (1, 4)
    assert build_general(2, [(1, 2), (2, 1)]).sides is None
    # keyed on the family, not on whether side sizes are set
    topology = patrolgame.graphs.GraphTopology(family="general", n=2,
                                               adjacency=np.ones((2, 2)), n_p=1, n_q=1)
    assert topology.sides is None


def test_synthesize_rejects_general_and_wrong_length():
    with pytest.raises(InvalidSpec):
        synthesize(build_general(3, [(1, 2), (2, 3), (3, 1)]), (3, 3, 3))
    with pytest.raises(DimensionMismatch):
        synthesize(build_complete(3), (2, 2))


def _refusal(call):
    with pytest.raises(PatrolGameError) as info:
        call()
    return type(info.value), str(info.value)


def test_values_are_each_synthesized_w_bit_for_bit_and_refuse_as_synthesize_does():
    rng = np.random.default_rng(38)
    graphs = [build_complete(n) for n in range(2, 13)]
    graphs += [build_bipartite(n_p, n_q) for n_p in range(1, 6) for n_q in range(1, 6)]
    graphs += [build_star(n) for n in range(2, 13)]
    for g in graphs:
        k = len(g.sides)
        taus = [tuple(int(t) for t in rng.integers(k, 4 * g.n, size=g.n)) for _ in range(6)]
        taus += [(k,) * g.n, (10 ** 20,) + taus[0][1:]]  # the least, and one past int64
        got = [float.hex(w) for w in values(g, taus).tolist()]
        assert got == [float.hex(synthesize(g, tau).w) for tau in taus], (g, taus)
        assert values(g, []).shape == (0,)
        # one bad tau among good ones raises what synthesize raises on it
        good = taus[0]
        bad = [good[1:], (0,) + good[1:], (2.5,) + good[1:], (10 ** 400,) + good[1:]]
        bad += [(k - 1,) + good[1:]] if k > 1 else []
        for tau in bad:
            at = int(rng.integers(0, len(taus) + 1))
            expected = _refusal(lambda: synthesize(g, tau))
            assert _refusal(lambda: values(g, taus[:at] + [tau] + taus[at:])) == expected, tau
    # graphs that refuse every tau: the general family and a one-node complete graph
    for g in (build_general(3, [(1, 2), (2, 3), (3, 1)]), build_complete(1)):
        for tau in ((2,) * g.n, (2,) * (g.n + 1), (0,) * g.n):
            assert _refusal(lambda: values(g, [tau])) == _refusal(lambda: synthesize(g, tau))


# --- star graphs ----------------------------------------------------------------

def test_star_symmetric_leaves():
    result = synthesize_star([2, 2, 2])
    np.testing.assert_allclose(result.P[0], [0.0, 0.5, 0.5], atol=1e-10)
    assert result.mu == pytest.approx(0.5, abs=1e-10)
    assert result.subopt_lb == 1.0


def test_star_mixed_leaves():
    result = synthesize_star([2, 4, 2])
    np.testing.assert_allclose(result.P[0], [0.0, GOLDEN_W, 1 - GOLDEN_W], atol=1e-9)
    assert result.mu == pytest.approx(1 - GOLDEN_W, abs=1e-9)
    np.testing.assert_allclose(result.pi, [0.5, GOLDEN_W / 2, (1 - GOLDEN_W) / 2], atol=1e-9)


def test_star_leaves_return_to_center():
    result = synthesize_star([3, 2, 5, 4])
    np.testing.assert_array_equal(result.P[1:, 0], 1.0)
    np.testing.assert_array_equal(result.P[1:, 1:], 0.0)
    assert capture_probability(result.P, [3, 2, 5, 4]).mu == pytest.approx(result.mu, abs=1e-9)


@pytest.mark.parametrize("center", [2, 3, 7])
def test_star_center_duration_is_irrelevant(center):
    base = synthesize_star([2, 3, 4, 2])
    other = synthesize_star([center, 3, 4, 2])
    assert other.mu == base.mu
    np.testing.assert_array_equal(other.P, base.P)


def test_star_rejects_short_durations():
    with pytest.raises(InfeasibleTau):
        synthesize_star([1, 2, 2])
    with pytest.raises(InfeasibleTau):
        synthesize_star([2, 2, 1])
    with pytest.raises(InvalidSpec):
        synthesize_star([2])


# --- uniform baseline --------------------------------------------------------------

def test_baseline_even_duration():
    result = uniform_bipartite_baseline(2, 2, 4)
    assert result.mu == pytest.approx(0.75, abs=1e-12)
    assert result.guarantee == pytest.approx(0.5 * (1 - 1 / math.e), abs=1e-12)


def test_baseline_minimum_attained_by_larger_side():
    result = uniform_bipartite_baseline(2, 3, 2)
    assert result.mu == pytest.approx(1 / 3, abs=1e-12)
    assert result.guarantee == pytest.approx(0.5 * (1 - 1 / math.e), abs=1e-12)
    assert result.ratio >= result.guarantee


def test_baseline_odd_duration_guarantee():
    result = uniform_bipartite_baseline(2, 3, 3)
    assert result.mu == pytest.approx(1 / 3, abs=1e-12)
    assert result.guarantee == pytest.approx(1 / 3, abs=1e-12)
    assert result.ratio >= result.guarantee - 1e-12


def test_baseline_matches_recursion():
    for n_p, n_q, tau in [(2, 2, 4), (2, 3, 2), (3, 4, 5), (4, 2, 6)]:
        result = uniform_bipartite_baseline(n_p, n_q, tau)
        n = n_p + n_q
        mu = capture_probability(result.P, [tau] * n).mu
        assert mu == pytest.approx(result.mu, abs=1e-9)
        np.testing.assert_allclose(result.pi, stationary_distribution(result.P), atol=1e-9)


def test_baseline_range_checks():
    with pytest.raises(TrivialGame):
        uniform_bipartite_baseline(2, 2, 1)
    with pytest.raises(TrivialGame):
        uniform_bipartite_baseline(2, 2, 5)
    with pytest.raises(InvalidSpec):
        uniform_bipartite_baseline(1, 3, 2)
    with pytest.raises(InvalidSpec, match=">= 1"):
        uniform_bipartite_baseline(2, 2, 0)


# --- upper bounds -------------------------------------------------------------------

def test_bound_uniform_case():
    report = capture_upper_bound([0.25] * 4, [3] * 4)
    assert report.stationary_bound == pytest.approx(0.75, abs=1e-12)
    assert report.generic_bound == pytest.approx(0.75, abs=1e-12)


def test_bound_caps_at_one():
    report = capture_upper_bound([0.5, 0.5], [3, 3])
    assert report.generic_bound == 1.0


def test_bound_certifies_two_node_instance():
    result = synthesize_complete([1, 2])
    report = capture_upper_bound(result.pi, [1, 2], mu=result.mu)
    assert report.stationary_bound == pytest.approx(0.618, abs=1e-3)
    # achieved value meets its own stationary bound: optimal in this instance
    assert result.mu == pytest.approx(report.stationary_bound, abs=1e-9)
    assert report.ratio is not None and report.ratio <= 1 + 1e-12


def test_bound_dimension_check():
    with pytest.raises(DimensionMismatch):
        capture_upper_bound([0.5, 0.5], [1, 2, 3])


def test_generic_bound_values():
    assert generic_capture_bound([2, 2, 2]) == pytest.approx(2 / 3)
    assert generic_capture_bound([9, 1]) == 1.0
    assert generic_capture_bound(np.array([2, 4, 1, 3])) == 1.0


@pytest.mark.parametrize("tau", [[2.5, 3], [0, 0], [], [3, None], [3, math.nan], [3, "2"]],
                         ids=["fraction", "zeros", "empty", "none-entry", "nan-entry",
                              "text-entry"])
def test_generic_bound_refuses_what_is_not_a_duration_vector(tau):
    with pytest.raises(InvalidSpec):
        generic_capture_bound(tau)
