import json
import math
import tracemalloc
from collections import deque

import numpy as np
import pytest
from hypothesis import given, strategies as st

import patrolgame.graphs
from patrolgame.graphs import check_durations
from patrolgame import (
    DimensionMismatch,
    InvalidSpec,
    build_bipartite,
    build_complete,
    build_general,
    build_graph,
    build_star,
    eccentricities,
    is_strongly_connected,
    min_full_tour_length,
    validate_attack_durations,
)
from patrolgame.cli import ADJACENCY_LIMIT, _dump_json
from patrolgame.markov import capture_probability


def test_complete_has_all_pairs_and_self_loops():
    g = build_complete(3)
    assert g.n == 3
    assert len(g.edges) == 9
    assert all((i, i) in g.edges for i in (1, 2, 3))


def test_bipartite_has_only_cross_edges():
    g = build_bipartite(3, 2)
    assert g.n == 5
    assert len(g.edges) == 12
    assert all(i != j for i, j in g.edges)
    assert (g.n_p, g.n_q) == (3, 2)
    # nodes 1..n_p are the P side
    for i, j in g.edges:
        assert (i <= g.n_p) != (j <= g.n_p)


def test_star_edge_set():
    g = build_star(3)
    assert g.edges == frozenset({(1, 2), (2, 1), (1, 3), (3, 1)})
    assert (g.n_p, g.n_q) == (1, 2)
    # the same edges, but another family
    assert g != build_bipartite(1, 2) and g.edges == build_bipartite(1, 2).edges


@pytest.mark.parametrize("bad", [0, -1])
def test_nonpositive_sizes_rejected(bad):
    with pytest.raises(InvalidSpec):
        build_complete(bad)
    with pytest.raises(InvalidSpec):
        build_bipartite(bad, 2)
    with pytest.raises(InvalidSpec):
        build_star(bad)


def test_build_graph_json_descriptors():
    assert build_graph({"family": "complete", "n": 4}) == build_complete(4)
    assert build_graph({"family": "bipartite", "n_p": 2, "n_q": 3}) == build_bipartite(2, 3)
    assert build_graph({"family": "star", "n": 5}) == build_star(5)
    g = build_graph({"family": "general", "n": 3, "edges": [[1, 2], [2, 3], [3, 1]]})
    assert g.edges == frozenset({(1, 2), (2, 3), (3, 1)})
    with pytest.raises(InvalidSpec):
        build_graph({"family": "bipartite", "n": 6, "n_p": 2, "n_q": 3})
    with pytest.raises(InvalidSpec):
        build_graph({"family": "ring", "n": 3})


@pytest.mark.parametrize("spec, key", [
    ({"family": "bipartite", "n_p": 2}, "n_q"),
    ({"family": "bipartite", "n_q": 2}, "n_p"),
    ({"family": "bipartite", "n_p": 2, "n_q": 3, "n": "five"}, "n"),
    ({"family": "complete", "n": "x"}, "n"),
    ({"family": "complete"}, "n"),
    ({"family": "star", "n": None}, "n"),
    ({"family": "general", "n": [3], "edges": []}, "n"),
    ({"family": "complete", "n": 4.7}, "n"),
    ({"family": "bipartite", "n_p": 2.9, "n_q": 3}, "n_p"),
])
def test_malformed_descriptor_names_the_key(spec, key):
    with pytest.raises(InvalidSpec, match=f"integer '{key}'"):
        build_graph(spec)


@pytest.mark.parametrize("size", [4, 4.0, np.int64(4)], ids=["int", "float", "int64"])
def test_an_integral_descriptor_size_reads_as_an_int(size):
    g = build_graph({"family": "complete", "n": size})
    assert g == build_complete(4) and type(g.n) is int
    g = build_graph({"family": "bipartite", "n_p": size, "n_q": 3, "n": size + 3})
    assert g == build_bipartite(4, 3) and (type(g.n), type(g.n_p)) == (int, int)


@pytest.mark.parametrize("edges", [[[1]], 5, [["a", 1]], [[1, 2, 3]], [[1.5, 2], [2, 1]]])
def test_malformed_edge_list_is_invalid(edges):
    with pytest.raises(InvalidSpec, match="edges must be pairs of integers"):
        build_graph({"family": "general", "n": 2, "edges": edges})


def test_general_graph_must_be_strongly_connected():
    with pytest.raises(InvalidSpec):
        build_general(3, [[1, 2], [2, 3]])
    with pytest.raises(InvalidSpec):
        build_general(2, [[1, 3]])
    # a lone node is strongly connected, but no chain can patrol it without
    # an edge out of it
    with pytest.raises(InvalidSpec, match="edge out of each node"):
        build_general(1, [])
    assert build_general(1, [[1, 1]]).n == 1


def test_build_is_deterministic():
    assert build_bipartite(3, 2) == build_bipartite(3, 2)
    assert build_complete(4).edges == build_complete(4).edges


@pytest.mark.parametrize("g", [
    build_complete(1), build_complete(4), build_bipartite(1, 1),
    build_bipartite(3, 2), build_star(2), build_star(6),
])
def test_families_strongly_connected(g):
    assert is_strongly_connected(g.adjacency)


def test_eccentricities():
    assert eccentricities(build_complete(3).adjacency).tolist() == [1, 1, 1]
    # star leaves sit two hops from each other, the center one hop from all
    assert eccentricities(build_star(3).adjacency).tolist() == [1, 2, 2]
    assert eccentricities(build_bipartite(3, 2).adjacency).tolist() == [2, 2, 2, 2, 2]
    assert eccentricities(build_complete(1).adjacency).tolist() == [0]
    assert eccentricities(build_bipartite(1, 1).adjacency).tolist() == [1, 1]
    assert eccentricities(build_star(2).adjacency).tolist() == [1, 1]


def test_eccentricities_reject_graph_not_strongly_connected():
    adj = np.zeros((3, 3), dtype=bool)
    adj[0, 1] = adj[1, 2] = True
    with pytest.raises(InvalidSpec):
        eccentricities(adj)


def _reference_distances(adj, source):
    # plain queue BFS, one node at a time
    dist = [-1] * len(adj)
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in range(len(adj)):
            if adj[u][v] and dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


@st.composite
def digraphs(draw):
    """Boolean adjacency on 1-30 nodes: random edges (self-loops allowed),
    sometimes threaded on a random Hamiltonian cycle so that it is strongly
    connected, otherwise often with nodes that cannot be reached."""
    n = draw(st.integers(1, 30))
    adj = np.zeros((n, n), dtype=bool)
    for i, j in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                              max_size=3 * n)):
        adj[i, j] = True
    if draw(st.booleans()):
        order = draw(st.permutations(range(n)))
        adj[order, np.roll(order, -1)] = True
    return adj


@given(digraphs())
def test_bfs_matches_reference_queue_bfs(adj):
    n = adj.shape[0]
    reference = [_reference_distances(adj, s) for s in range(n)]
    for s in range(n):
        assert patrolgame.graphs._distances(adj, [s]).tolist() == [reference[s]]
    assert patrolgame.graphs._distances(adj, np.arange(n)).tolist() == reference
    reverse = _reference_distances(adj.T, 0)
    connected = min(reference[0]) >= 0 and min(reverse) >= 0
    assert is_strongly_connected(adj) == connected
    # a stack searches each slice as it would be searched alone
    stack = np.stack([adj, adj.T, np.ones_like(adj)])
    assert patrolgame.graphs._distances(stack, [0]).tolist() == [
        [reference[0]], [reverse], [[int(j > 0) for j in range(n)]]]
    assert is_strongly_connected(stack) == connected
    if connected:
        assert eccentricities(adj).tolist() == [max(d) for d in reference]
    else:
        with pytest.raises(InvalidSpec):
            eccentricities(adj)


@pytest.mark.parametrize("n", [2, 3, 17, 280])
def test_lazy_tour_support_connectivity(n):
    # stay at i or step to i+1 (mod n); without one ring edge the tour breaks
    idx = np.arange(n)
    adj = np.zeros((n, n), dtype=bool)
    adj[idx, idx] = True
    adj[idx, (idx + 1) % n] = True
    assert is_strongly_connected(adj)
    adj[n - 1, 0] = False
    assert not is_strongly_connected(adj)


def test_min_full_tour_lengths():
    assert min_full_tour_length(build_complete(4)) == 4
    assert min_full_tour_length(build_bipartite(3, 2)) == 6
    assert min_full_tour_length(build_star(5)) == 8
    assert min_full_tour_length(build_general(2, [[1, 2], [2, 1]])) is None


def test_validate_star_leaf_below_eccentricity():
    report = validate_attack_durations(build_star(3), [2, 1, 2])
    assert report.condition1_violations == (2,)
    assert not report.nontrivial


def test_validate_bipartite_short_duration():
    report = validate_attack_durations(build_bipartite(3, 2), [4, 4, 4, 4, 1])
    assert report.condition1_violations == (5,)


def test_validate_complete_all_ones_nontrivial():
    # self-loops put every node one step from every node, itself included,
    # and the shortest full tour has length 3
    report = validate_attack_durations(build_complete(3), [1, 1, 1])
    assert report.nontrivial
    assert report.condition1_violations == ()
    assert report.condition2_holds


def test_validate_condition2_failures():
    report = validate_attack_durations(build_complete(3), [3, 3, 3])
    assert not report.condition2_holds and not report.nontrivial
    report = validate_attack_durations(build_bipartite(3, 2), [6, 6, 6, 6, 6])
    assert not report.condition2_holds
    report = validate_attack_durations(build_bipartite(3, 2), [6, 6, 6, 6, 5])
    assert report.condition2_holds


def test_validate_general_family_skips_condition2():
    g = build_general(3, [[1, 2], [2, 3], [3, 1]])
    report = validate_attack_durations(g, [3, 3, 3])
    assert report.condition2_holds
    assert "not checked" in report.notes


def test_validate_rejects_bad_durations():
    g = build_complete(3)
    with pytest.raises(DimensionMismatch):
        validate_attack_durations(g, [1, 1])
    with pytest.raises(InvalidSpec):
        validate_attack_durations(g, [1, 0, 1])
    with pytest.raises(InvalidSpec):
        validate_attack_durations(g, [1, 1.5, 1])
    with pytest.raises(InvalidSpec, match="must be integers"):
        validate_attack_durations(g, (t for t in [1, 1.5, 1]))
    for tau in ([math.inf, 2, 2], [math.nan, 2, 2], ["x", 2, 2], [None, 2, 2]):
        with pytest.raises(InvalidSpec, match="finite integers"):
            validate_attack_durations(g, tau)


# each reader of attack durations outside the graph checks, as a function of
# tau, with durations it must refuse and integral ones it must read
DURATION_READERS = {
    "complete_allocation_value": (patrolgame.complete_allocation_value, [[2.5, 3]], [4, 3]),
    "bipartite_side_value": (patrolgame.bipartite_side_value, [[4, 2.5], [4.5, 2]], [4, 2]),
    "min_capture_evaluator": (lambda tau: patrolgame.markov.min_capture_evaluator(tau)(
        np.full((len(tau), len(tau)), 1 / len(tau))), [[2.5, 3]], [4, 3]),
    "capture_upper_bound": (lambda tau: patrolgame.capture_upper_bound(
        np.full(len(tau), 1 / len(tau)), tau), [[2.5, 3], [2.7, 3]], [4, 3]),
    "uniform_bipartite_baseline": (lambda tau: patrolgame.uniform_bipartite_baseline(
        2, 2, *tau).mu, [[2.5], [2.9]], [4]),
    "generic_capture_bound": (patrolgame.generic_capture_bound, [[2.5, 3], [3, 2.7]], [4, 3]),
}


@pytest.mark.parametrize("reader", DURATION_READERS)
def test_every_duration_reader_refuses_fractions_and_reads_integral_floats(reader):
    read, fractional, integral = DURATION_READERS[reader]
    for tau in fractional:
        with pytest.raises(InvalidSpec, match="must be integers"):
            read(tau)
    assert read([float(t) for t in integral]) == read(integral)


# each library count outside the graph builders, as a function of the count;
# the parameter it fills names the count in the refusal
COUNT_READERS = {
    "local_search_strategy": (lambda k: patrolgame.local_search_strategy(
        patrolgame.build_star(3), (2, 2, 2), restarts=k, seed=0), "restarts"),
    "monte_carlo_suite-instances": (lambda k: patrolgame.monte_carlo_suite(instances=k),
                                    "instances"),
    "monte_carlo_suite-trials": (lambda k: patrolgame.monte_carlo_suite(trials=k, instances=1),
                                 "trials"),
    "simulate_capture": (lambda k: patrolgame.simulate_capture(
        np.full((3, 3), 1 / 3), (2, 2, 2), trials=k, seed=0), "trials"),
    "allocation_agreement_suite": (lambda k: patrolgame.allocation_agreement_suite(nmax=k),
                                   "nmax"),
    "uniform_bipartite_baseline": (lambda k: patrolgame.uniform_bipartite_baseline(k, 3, 4),
                                   "n_p"),
    "walk_work": (lambda k: patrolgame.markov.walk_work(3, 2, k), "trials"),
}


@pytest.mark.parametrize("reader", COUNT_READERS)
def test_a_count_must_be_an_integer(reader):
    call, name = COUNT_READERS[reader]
    for count in (2.5, 4.0, "3"):  # refused before any comparison or allocation
        with pytest.raises(InvalidSpec, match=f"{name} must be an integer, got {count!r}"):
            call(count)


def test_a_lower_bound_is_checked_after_every_count_is_read_as_an_integer():
    check = patrolgame.graphs.check_integers
    with pytest.raises(InvalidSpec, match=r"^b must be an integer, got 'x'$"):
        check(1, a=0, b="x")
    with pytest.raises(InvalidSpec, match=r"^a must be >= 1, got 0$"):
        check(1, a=0, b=0)
    check(1, a=1, b=np.int64(5))
    check(a=-3)  # no bound, only the type


@pytest.mark.parametrize("build, sizes, message", [
    (build_bipartite, (0, 2), "n_p must be >= 1, got 0"),
    (build_bipartite, (2, -1), "n_q must be >= 1, got -1"),
    (patrolgame.co_optimize_bipartite, (2, 0, 10), "n_q must be >= 1, got 0"),
    (patrolgame.allocate_bipartite_side, (0, 4), "n_side must be >= 1, got 0"),
    (patrolgame.uniform_bipartite_baseline, (1, 3, 4), "n_p must be >= 2, got 1"),
], ids=["bipartite-p", "bipartite-q", "co-optimize", "side", "baseline"])
def test_a_side_size_below_its_least_is_refused_by_name(build, sizes, message):
    with pytest.raises(InvalidSpec, match=f"^{message}$"):
        build(*sizes)


@pytest.mark.parametrize("read", [lambda tau: check_durations(tau, len(tau)),
                                  patrolgame.generic_capture_bound],
                         ids=["check_durations", "generic_capture_bound"])
def test_a_duration_reader_refuses_text(read):
    for tau in (["3", 3], [4, "2"], [b"4", 2]):
        with pytest.raises(InvalidSpec, match="must be finite integers"):
            read(tau)


def test_integers_past_two_to_the_53_read_exactly():
    big = 2**53 + 1  # float(big) rounds to 2**53
    assert check_durations([big, 3], 2) == (big, 3)
    assert check_durations(np.array([big, 3], dtype=np.int64), 2) == (big, 3)
    assert patrolgame.graphs._size({"n": big}, "n") == big
    assert patrolgame.graphs._size({"n": np.uint64(big)}, "n") == big


def test_integral_floats_and_numpy_integers_read_as_ints():
    out = check_durations([4.0, np.float64(3.0), np.int32(2), True], 4)
    assert out == (4, 3, 2, 1) and all(type(t) is int for t in out)
    with pytest.raises(InvalidSpec, match="graph descriptor needs an integer 'n'"):
        build_graph({"family": "complete", "n": "4"})


def test_validate_rejects_graph_not_strongly_connected():
    adj = np.zeros((3, 3), dtype=bool)
    adj[0, 1] = adj[1, 2] = True
    g = patrolgame.graphs.GraphTopology(family="general", n=3, adjacency=adj)
    with pytest.raises(InvalidSpec, match="not strongly connected"):
        validate_attack_durations(g, [3, 3, 3])


def test_validate_rejects_node_without_out_edge():
    # a lone node is strongly connected, but no walk leaves it, so it has no
    # first-arrival time; build_general refuses the same graph
    g = patrolgame.graphs.GraphTopology(family="general", n=1, adjacency=np.zeros((1, 1)))
    with pytest.raises(InvalidSpec, match="edge out of each node"):
        validate_attack_durations(g, [1])


@pytest.mark.parametrize("build, sizes", [
    (build_bipartite, (2.0, 2)),
    (build_bipartite, (2, 2.5)),
    (build_star, (3.5,)),
    (build_bipartite, ("2", 3)),
    (build_star, ("3",)),
], ids=["bipartite-float", "bipartite-fraction", "star-fraction", "bipartite-text", "star-text"])
def test_a_builder_refuses_a_size_that_is_not_an_integer(build, sizes):
    with pytest.raises(InvalidSpec, match="must be an integer"):
        build(*sizes)


@pytest.mark.parametrize("build, args", [
    (build_complete, (4.0,)),
    (build_complete, ("4",)),
    (build_general, (2.5, [[1, 2], [2, 1]])),
    (build_general, (2.0, [[1, 2], [2, 1]])),
], ids=["complete-float", "complete-text", "general-fraction", "general-float"])
def test_a_builder_refuses_a_size_that_is_not_an_integer_before_allocating(build, args):
    with pytest.raises(InvalidSpec, match="needs an integer n >= 1"):
        build(*args)
    assert build(np.int64(2), *args[1:]) == build(2, *args[1:])


def test_a_topology_refuses_a_size_that_is_not_an_integer_before_its_shape():
    topology = patrolgame.graphs.GraphTopology
    with pytest.raises(InvalidSpec, match="graph sizes must be integers"):
        topology(family="general", n=3.0, adjacency=np.ones((3, 3)))
    with pytest.raises(InvalidSpec, match="graph sizes must be integers"):
        topology(family="general", n=2.5, adjacency=np.ones((2, 2)))
    with pytest.raises(InvalidSpec, match="graph sizes must be integers"):
        topology(family="bipartite", n=3, adjacency=np.ones((3, 3)), n_p=1.5, n_q=1.5)
    assert topology(family="general", n=np.int64(2), adjacency=np.ones((2, 2))).n == 2


def test_adjacency_must_be_n_by_n():
    with pytest.raises(DimensionMismatch):
        patrolgame.graphs.GraphTopology(family="general", n=3, adjacency=np.ones((2, 2)))
    with pytest.raises(DimensionMismatch):
        patrolgame.graphs.GraphTopology(family="general", n=4, adjacency=np.ones(16))


def test_adjacency_is_a_read_only_copy():
    adj = np.ones((3, 3), dtype=bool)
    g = patrolgame.graphs.GraphTopology(family="complete", n=3, adjacency=adj)
    adj[0, 1] = False
    assert g == build_complete(3)
    with pytest.raises(ValueError, match="read-only"):
        g.adjacency[0, 1] = False


def test_largest_admitted_graph_builds_and_checks_in_bounded_memory():
    # the CLI's graph limit admits a complete graph on 1000 nodes; its
    # adjacency is 1 MB of bools and the all-sources search a few n^2 arrays
    n = math.isqrt(ADJACENCY_LIMIT)
    tracemalloc.start()
    try:
        report = validate_attack_durations(build_complete(n), [2] * n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.nontrivial
    assert peak < 32 * 2**20


@pytest.mark.parametrize("g, tau, violations", [
    # the center is one hop from every leaf, but returns to itself in two
    (build_star(3), (1, 2, 2), (1,)),
    (build_bipartite(1, 1), (1, 1), (1, 2)),
    # on a directed 3-cycle the node after j needs two steps to reach it
    (build_general(3, [[1, 2], [2, 3], [3, 1]]), (2, 2, 2), (1, 2, 3)),
    (build_general(3, [[1, 2], [2, 3], [3, 1]]), (3, 3, 3), ()),
])
def test_condition1_counts_the_return_time(g, tau, violations):
    assert validate_attack_durations(g, tau).condition1_violations == violations


def test_condition1_is_exact_against_the_recursion():
    # under the uniform strategy over out-edges every walk has positive
    # probability, so its capture probability is positive exactly when some
    # strategy's is: when no tau_j falls below j's first-arrival time
    rng = np.random.default_rng(16)
    checked = infeasible = 0
    while checked < 1200:
        n = int(rng.integers(1, 7))
        adj = rng.random((n, n)) < rng.uniform(0.2, 0.7)
        if not (is_strongly_connected(adj) and adj.any(axis=1).all()):
            continue
        g = build_general(n, (np.argwhere(adj) + 1).tolist())
        tau = rng.integers(1, n + 2, size=n).tolist()
        P = adj / adj.sum(axis=1, keepdims=True)
        captured = capture_probability(P, tau).mu > 0.0
        violations = validate_attack_durations(g, tau).condition1_violations
        assert (violations == ()) == captured, (adj.astype(int).tolist(), tau)
        checked += 1
        infeasible += not captured
    # both verdicts are exercised
    assert 100 < infeasible < 1100


@given(st.integers(2, 7), st.lists(st.integers(1, 30), min_size=2, max_size=7))
def test_complete_never_violates_condition1(n, durations):
    durations = (durations * n)[:n]
    report = validate_attack_durations(build_complete(n), durations)
    assert report.condition1_violations == ()


def test_report_json_shape():
    report = validate_attack_durations(build_star(3), [2, 1, 2])
    payload = json.loads(_dump_json(report))
    assert set(payload) == {"nontrivial", "condition1_violations", "condition2_holds", "notes"}
    assert payload["condition1_violations"] == [2]
