import json
from collections import deque

import numpy as np
import pytest
from hypothesis import given, strategies as st

import patrolgame.graphs
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
from patrolgame.cli import _dump_json


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
])
def test_malformed_descriptor_names_the_key(spec, key):
    with pytest.raises(InvalidSpec, match=f"integer '{key}'"):
        build_graph(spec)


def test_general_graph_must_be_strongly_connected():
    with pytest.raises(InvalidSpec):
        build_general(3, [[1, 2], [2, 3]])
    with pytest.raises(InvalidSpec):
        build_general(2, [[1, 3]])


def test_build_is_deterministic():
    assert build_bipartite(3, 2) == build_bipartite(3, 2)
    assert build_complete(4).edges == build_complete(4).edges


@pytest.mark.parametrize("g", [
    build_complete(1), build_complete(4), build_bipartite(1, 1),
    build_bipartite(3, 2), build_star(2), build_star(6),
])
def test_families_strongly_connected(g):
    assert is_strongly_connected(g.adjacency())


def test_eccentricities():
    assert eccentricities(build_complete(3).adjacency()).tolist() == [1, 1, 1]
    # star leaves sit two hops from each other, the center one hop from all
    assert eccentricities(build_star(3).adjacency()).tolist() == [1, 2, 2]
    assert eccentricities(build_bipartite(3, 2).adjacency()).tolist() == [2, 2, 2, 2, 2]
    assert eccentricities(build_complete(1).adjacency()).tolist() == [0]
    assert eccentricities(build_bipartite(1, 1).adjacency()).tolist() == [1, 1]
    assert eccentricities(build_star(2).adjacency()).tolist() == [1, 1]


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
        assert patrolgame.graphs._bfs_distances(adj, s).tolist() == reference[s]
    reverse = _reference_distances(adj.T, 0)
    connected = min(reference[0]) >= 0 and min(reverse) >= 0
    assert is_strongly_connected(adj) == connected
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
    # eccentricity is 1 everywhere and the shortest full tour has length 3
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
