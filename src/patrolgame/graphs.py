"""Graph topologies for patrol games and attack-duration feasibility checks.

Nodes are 1-indexed everywhere in the public interface.  For the two-sided
families the first block of nodes (1..n_p) is always the P side and the
remaining nodes (n_p+1..n) the Q side; a star is the two-sided graph with
the center as the single P-side node.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import DimensionMismatch, InvalidSpec

COMPLETE = "complete"
BIPARTITE = "bipartite"
STAR = "star"
GENERAL = "general"

_FAMILIES = (COMPLETE, BIPARTITE, STAR, GENERAL)


@dataclass(frozen=True)
class GraphTopology:
    """A strongly connected directed graph from one of the supported families.

    Attributes
    ----------
    family : str
        One of "complete", "bipartite", "star", "general".
    n : int
        Number of nodes.
    edges : frozenset of (int, int)
        Directed edges as 1-indexed ordered pairs.
    n_p, n_q : int or None
        Side sizes for bipartite and star graphs (center counts as the
        P side of size 1), None otherwise.
    """

    family: str
    n: int
    edges: frozenset
    n_p: int | None = None
    n_q: int | None = None

    def adjacency(self) -> np.ndarray:
        """Boolean adjacency matrix, 0-indexed."""
        adj = np.zeros((self.n, self.n), dtype=bool)
        for i, j in self.edges:
            adj[i - 1, j - 1] = True
        return adj


def build_complete(n: int) -> GraphTopology:
    """Complete digraph on n nodes, self-loops included at every node."""
    if n < 1:
        raise InvalidSpec(f"complete graph needs n >= 1, got {n}")
    edges = frozenset((i, j) for i in range(1, n + 1) for j in range(1, n + 1))
    return GraphTopology(family=COMPLETE, n=n, edges=edges)


def build_bipartite(n_p: int, n_q: int) -> GraphTopology:
    """Complete bipartite digraph: all cross-side pairs, no self-loops."""
    if n_p < 1 or n_q < 1:
        raise InvalidSpec(f"bipartite sides must be >= 1, got ({n_p}, {n_q})")
    n = n_p + n_q
    p_side = range(1, n_p + 1)
    q_side = range(n_p + 1, n + 1)
    edges = set()
    for i in p_side:
        for j in q_side:
            edges.add((i, j))
            edges.add((j, i))
    return GraphTopology(family=BIPARTITE, n=n, edges=frozenset(edges), n_p=n_p, n_q=n_q)


def build_star(n: int) -> GraphTopology:
    """Star on n nodes with node 1 as the center (bipartite with n_p = 1)."""
    if n < 2:
        raise InvalidSpec(f"star graph needs n >= 2, got {n}")
    g = build_bipartite(1, n - 1)
    return GraphTopology(family=STAR, n=n, edges=g.edges, n_p=1, n_q=n - 1)


def build_general(n: int, edges: Iterable[Sequence[int]]) -> GraphTopology:
    """General digraph from an explicit edge list; must be strongly connected."""
    if n < 1:
        raise InvalidSpec(f"graph needs n >= 1, got {n}")
    edge_set = set()
    for pair in edges:
        i, j = int(pair[0]), int(pair[1])
        if not (1 <= i <= n and 1 <= j <= n):
            raise InvalidSpec(f"edge ({i}, {j}) out of range for n={n}")
        edge_set.add((i, j))
    g = GraphTopology(family=GENERAL, n=n, edges=frozenset(edge_set))
    if not is_strongly_connected(g.adjacency()):
        raise InvalidSpec("general graph must be strongly connected")
    return g


def _size(spec: Mapping, key: str) -> int:
    """`spec[key]` as an int, or `InvalidSpec` naming the key."""
    try:
        return int(spec[key])
    except (KeyError, TypeError, ValueError):
        raise InvalidSpec(f"graph descriptor needs an integer {key!r}, "
                          f"got {spec.get(key)!r}") from None


def build_graph(spec: Mapping) -> GraphTopology:
    """Build a graph from a JSON-style descriptor.

    Expected keys: ``family`` plus ``n`` (complete, star, general),
    ``n_p``/``n_q`` (bipartite, ``n`` optional as a consistency check),
    and ``edges`` for the general family.  A missing or non-integer size
    raises `InvalidSpec` naming its key.
    """
    family = spec.get("family")
    if family not in _FAMILIES:
        raise InvalidSpec(f"unknown family {family!r}")
    if family == COMPLETE:
        return build_complete(_size(spec, "n"))
    if family == BIPARTITE:
        n_p, n_q = _size(spec, "n_p"), _size(spec, "n_q")
        if "n" in spec and _size(spec, "n") != n_p + n_q:
            raise InvalidSpec(f"n={spec['n']} inconsistent with n_p+n_q={n_p + n_q}")
        return build_bipartite(n_p, n_q)
    if family == STAR:
        return build_star(_size(spec, "n"))
    return build_general(_size(spec, "n"), spec.get("edges", ()))


def _bfs_distances(adj: np.ndarray, source: int) -> np.ndarray:
    """Hop distances from `source` (0-indexed) to all nodes; -1 if unreachable.

    Level-synchronous: each level expands the whole frontier in one array
    expression, so the Python loop runs once per level, not once per node.
    """
    dist = np.full(adj.shape[0], -1, dtype=int)
    dist[source] = 0
    frontier = dist == 0
    level = 0
    while frontier.any():
        level += 1
        frontier = adj[frontier].any(axis=0) & (dist < 0)
        dist[frontier] = level
    return dist


def is_strongly_connected(adj: np.ndarray) -> bool:
    """True if every node reaches every node along directed edges."""
    n = adj.shape[0]
    if n == 0:
        return False
    return bool((_bfs_distances(adj, 0) >= 0).all() and (_bfs_distances(adj.T, 0) >= 0).all())


def eccentricities(adj: np.ndarray) -> np.ndarray:
    """Per-node eccentricity: hop count to the furthest node, 0-indexed input."""
    n = adj.shape[0]
    ecc = np.zeros(n, dtype=int)
    for i in range(n):
        dist = _bfs_distances(adj, i)
        if (dist < 0).any():
            raise InvalidSpec("eccentricity undefined: graph not strongly connected")
        ecc[i] = dist.max()
    return ecc


def min_full_tour_length(g: GraphTopology) -> int | None:
    """Minimum length of a closed walk visiting all nodes, or None if not computed.

    Known closed forms for the supported families only; the general case is a
    Hamiltonian-type search and is deliberately skipped.
    """
    if g.family == COMPLETE:
        return max(g.n, 1)
    if g.family in (BIPARTITE, STAR):
        return 2 * max(g.n_p, g.n_q)
    return None


def check_durations(tau: Sequence[int], n: int) -> tuple[int, ...]:
    """Validate an attack-duration vector and return it as a tuple of ints."""
    out = tuple(int(t) for t in tau)
    if len(out) != n:
        raise DimensionMismatch(f"expected {n} durations, got {len(out)}")
    if any(t != float(orig) for t, orig in zip(out, tau)):
        raise InvalidSpec("attack durations must be integers")
    if any(t < 1 for t in out):
        raise InvalidSpec(f"attack durations must all be >= 1: {out}")
    return out


@dataclass(frozen=True)
class FeasibilityReport:
    """Outcome of the two nontriviality conditions on attack durations."""

    nontrivial: bool
    condition1_violations: tuple[int, ...]
    condition2_holds: bool
    notes: str


def validate_attack_durations(g: GraphTopology, tau: Sequence[int]) -> FeasibilityReport:
    """Check the nontriviality of a game instance.

    Condition 1: each node's duration must reach its eccentricity, otherwise
    some attack can never be intercepted and the game value is zero.
    Condition 2: at least one duration must fall strictly below the shortest
    closed walk through all nodes, otherwise a deterministic tour intercepts
    everything.  Condition 2 is evaluated only for the named families.
    """
    durations = check_durations(tau, g.n)
    ecc = eccentricities(g.adjacency())
    violations = tuple(i + 1 for i in range(g.n) if durations[i] < ecc[i])

    tour = min_full_tour_length(g)
    notes = []
    if violations:
        notes.append(f"capture probability is zero: tau below eccentricity at {list(violations)}")
    if tour is None:
        condition2 = True
        notes.append("condition 2 not checked for the general family")
    else:
        condition2 = any(t < tour for t in durations)
        if not condition2:
            notes.append(f"trivial game: a length-{tour} tour intercepts every attack")
    return FeasibilityReport(
        nontrivial=(not violations) and condition2,
        condition1_violations=violations,
        condition2_holds=condition2,
        notes="; ".join(notes) if notes else "ok",
    )
