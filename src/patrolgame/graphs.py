"""Graph topologies for patrol games and attack-duration feasibility checks.

Nodes are 1-indexed in the public interface and 0-indexed in the adjacency
array.  For the two-sided families the first block of nodes (1..n_p) is always
the P side and the remaining nodes (n_p+1..n) the Q side; a star is the
two-sided graph with the center as the single P-side node.
"""

from __future__ import annotations

import numbers
import operator
from dataclasses import dataclass, replace
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import DimensionMismatch, InvalidSpec

COMPLETE = "complete"
BIPARTITE = "bipartite"
STAR = "star"
GENERAL = "general"

_FAMILIES = (COMPLETE, BIPARTITE, STAR, GENERAL)


@dataclass(frozen=True, eq=False)
class GraphTopology:
    """A strongly connected directed graph from one of the supported families.

    Attributes
    ----------
    family : str
        One of "complete", "bipartite", "star", "general".
    n : int
        Number of nodes.
    adjacency : ndarray of bool, shape (n, n)
        Read-only copy, 0-indexed: ``adjacency[i - 1, j - 1]`` is edge (i, j).
    n_p, n_q : int or None
        Side sizes for bipartite and star graphs (center counts as the
        P side of size 1), None otherwise.

    Graphs compare by value and are not hashable.
    """

    family: str
    n: int
    adjacency: np.ndarray
    n_p: int | None = None
    n_q: int | None = None

    def __post_init__(self):
        sizes = (self.n, *(k for k in (self.n_p, self.n_q) if k is not None))
        if not all(isinstance(k, numbers.Integral) for k in sizes):  # NumPy integers pass
            raise InvalidSpec(f"graph sizes must be integers, got n={self.n!r}, "
                              f"n_p={self.n_p!r}, n_q={self.n_q!r}")
        adjacency = np.array(self.adjacency, dtype=bool)
        if adjacency.shape != (self.n, self.n):
            raise DimensionMismatch(f"adjacency is {adjacency.shape} but graph has {self.n} nodes")
        adjacency.flags.writeable = False
        object.__setattr__(self, "adjacency", adjacency)

    def __eq__(self, other):
        return (isinstance(other, GraphTopology) and np.array_equal(self.adjacency, other.adjacency)
                and (self.family, self.n_p, self.n_q) == (other.family, other.n_p, other.n_q))

    @property
    def sides(self) -> tuple[int, ...] | None:
        """Sizes of the sides a patrol cycles through, in node order: (n,) on a
        complete graph, (n_p, n_q) on a bipartite graph or a star, else None."""
        if self.family in (BIPARTITE, STAR):
            return (self.n_p, self.n_q)
        return (self.n,) if self.family == COMPLETE else None

    @property
    def edges(self) -> frozenset:
        """Directed edges as 1-indexed ordered pairs."""
        return frozenset(map(tuple, (np.argwhere(self.adjacency) + 1).tolist()))


def build_complete(n: int) -> GraphTopology:
    """Complete digraph on n nodes, self-loops included at every node."""
    if not isinstance(n, numbers.Integral) or n < 1:  # before np.ones reads it
        raise InvalidSpec(f"complete graph needs an integer n >= 1, got {n!r}")
    return GraphTopology(family=COMPLETE, n=n, adjacency=np.ones((n, n), dtype=bool))


def build_bipartite(n_p: int, n_q: int) -> GraphTopology:
    """Complete bipartite digraph: all cross-side pairs, no self-loops."""
    check_integers(1, n_p=n_p, n_q=n_q)
    p_side = np.arange(n_p + n_q) < n_p  # the two blocks: P to Q and Q to P
    return GraphTopology(BIPARTITE, n_p + n_q, p_side[:, None] != p_side, n_p, n_q)


def build_star(n: int) -> GraphTopology:
    """Star on n nodes with node 1 as the center (bipartite with n_p = 1)."""
    check_integers(n=n)
    if n < 2:
        raise InvalidSpec(f"star graph needs n >= 2, got {n}")
    return replace(build_bipartite(1, n - 1), family=STAR)


def build_general(n: int, edges: Iterable[Sequence[int]]) -> GraphTopology:
    """General digraph from an explicit edge list; must be strongly connected."""
    if not isinstance(n, numbers.Integral) or n < 1:  # before np.zeros reads it
        raise InvalidSpec(f"graph needs an integer n >= 1, got {n!r}")
    try:
        pairs = [tuple(map(operator.index, pair)) for pair in edges]
    except TypeError:  # not iterable, or an entry that is not an integer
        pairs = [()]
    if any(len(pair) != 2 for pair in pairs):
        raise InvalidSpec(f"edges must be pairs of integers, got {edges!r}")
    adjacency = np.zeros((n, n), dtype=bool)
    for i, j in pairs:
        if not (1 <= i <= n and 1 <= j <= n):
            raise InvalidSpec(f"edge ({i}, {j}) out of range for n={n}")
        adjacency[i - 1, j - 1] = True
    if not _patrollable(adjacency, is_strongly_connected(adjacency)):
        raise InvalidSpec("general graph must be strongly connected with an edge out of each node")
    return GraphTopology(family=GENERAL, n=n, adjacency=adjacency)


def _size(spec: Mapping, key: str) -> int:
    """`spec[key]` as an int, read as `read_integers` reads it (4.0 reads as
    4, 4.7 and "4" are refused), or `InvalidSpec` naming the key."""
    try:
        (size,) = read_integers([spec[key]], key)
        return size
    except (KeyError, InvalidSpec):
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


def _distances(adj: np.ndarray, sources: Sequence[int]) -> np.ndarray:
    """Hop distances (-1 where unreachable) from each of `sources`, 0-indexed,
    to every node, one row per source; a (K, n, n) stack of adjacencies gives
    a (K, len(sources), n) stack.  Level-synchronous: each level advances
    every source's frontier with one float32 product by the adjacency (path
    counts of at most n stay exact), so Python loops once per level."""
    step = adj.astype(np.float32)
    dist = np.full((*adj.shape[:-2], len(sources), adj.shape[-1]), -1, dtype=np.int32)
    dist[..., np.arange(len(sources)), sources] = 0
    frontier = dist == 0
    unreached = ~frontier
    level = 0
    while frontier.any() and unreached.any():
        level += 1
        frontier = (frontier.astype(np.float32) @ step > 0) & unreached
        dist[frontier] = level
        unreached &= ~frontier
    return dist


def _patrollable(adj: np.ndarray, strongly_connected: bool) -> bool:
    """True for a strongly connected graph with an edge out of each node."""
    return bool(adj.size and strongly_connected and adj.any(axis=1).all())


def is_strongly_connected(adj: np.ndarray) -> bool:
    """True if every node reaches every node along directed edges, in each slice of a stack."""
    return bool(adj.size) and all((_distances(a, [0]) >= 0).all()
                                  for a in (adj, adj.swapaxes(-1, -2)))


def eccentricities(adj: np.ndarray) -> np.ndarray:
    """Per-node eccentricity: hop count to the furthest node, 0-indexed input."""
    dist = _distances(adj, np.arange(adj.shape[0]))
    if (dist < 0).any():
        raise InvalidSpec("eccentricity undefined: graph not strongly connected")
    return dist.max(axis=1, initial=0)


def min_full_tour_length(g: GraphTopology) -> int | None:
    """Minimum length of a closed walk visiting all nodes, or None if not computed.

    A closed walk that cycles through k sides enters each side once every k
    steps, so covering the largest side takes k * max(sides) steps.  The
    general case is a Hamiltonian-type search and is deliberately skipped.
    """
    return None if g.sides is None else len(g.sides) * max(g.sides)


def _whole(value) -> int | None:
    """An integer (NumPy's too) as an int, a real as the int it equals, or
    None for a fraction; TypeError for text and other values that are not
    real, ValueError or OverflowError for nan and inf."""
    try:
        return operator.index(value)
    except TypeError:
        if not isinstance(value, numbers.Real):
            raise
    whole = int(value)
    return whole if whole == value else None


def read_integers(values: Iterable, what: str) -> tuple[int, ...]:
    """`values`, read once, as a tuple of ints: integers as they are (NumPy's
    too, and past 2**53), integral floats such as 4.0 as the ints they equal.
    `InvalidSpec` naming `what` refuses text, None, nan, inf and fractions."""
    try:
        values = tuple(values)
        try:  # the common case: every entry is an integer
            return tuple(map(operator.index, values))
        except TypeError:
            out = tuple(map(_whole, values))
    except (TypeError, ValueError, OverflowError):
        raise InvalidSpec(f"{what} must be finite integers, got {values!r}") from None
    if None in out:
        raise InvalidSpec(f"{what} must be integers, got {values!r}")
    return out


def check_integers(minimum: int | None = None, /, **values) -> None:
    """`InvalidSpec` naming the first of `values` that is not an integer, then
    the first below `minimum` when one is given."""
    for name, value in values.items():
        # a plain int skips the slower ABC check; NumPy integers pass it
        if type(value) is not int and not isinstance(value, numbers.Integral):
            raise InvalidSpec(f"{name} must be an integer, got {value!r}")
    for name, value in values.items():
        if minimum is not None and value < minimum:
            raise InvalidSpec(f"{name} must be >= {minimum}, got {value}")


def check_durations(tau: Sequence[int], n: int) -> tuple[int, ...]:
    """Validate an attack-duration vector and return it as a tuple of ints."""
    out = read_integers(tau, "attack durations")
    if len(out) != n:
        raise DimensionMismatch(f"expected {n} durations, got {len(out)}")
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

    Condition 1, exact: each tau_j must reach j's first-arrival time, the most
    steps any node needs to first arrive at j after leaving (j's own shortest
    return included, as in `markov`); otherwise no strategy ever intercepts
    some attack at j, and the game value is zero.
    Condition 2: at least one duration must fall strictly below the shortest
    closed walk through all nodes, otherwise a deterministic tour intercepts
    everything.  Condition 2 is evaluated only for the named families.
    """
    durations = check_durations(tau, g.n)
    dist = _distances(g.adjacency, np.arange(g.n))  # dist[i, j]: hops from i to j
    if not _patrollable(g.adjacency, (dist >= 0).all()):  # a hand-built graph may not be
        raise InvalidSpec("feasibility undefined: graph not strongly connected "
                          "with an edge out of each node")
    # first arrival at j: max_i d(i, j) and 1 + min d(l, j), l out of j (every d < n)
    arrival = np.maximum(dist.max(axis=0), 1 + np.where(g.adjacency, dist.T, g.n).min(axis=1))
    violations = (np.flatnonzero(np.array(durations) < arrival) + 1).tolist()

    tour = min_full_tour_length(g)
    notes = []
    if violations:
        notes.append(f"capture probability is zero: tau below first-arrival time at {violations}")
    if tour is None:
        condition2 = True
        notes.append("condition 2 not checked for the general family")
    else:
        condition2 = any(t < tour for t in durations)
        if not condition2:
            notes.append(f"trivial game: a length-{tour} tour intercepts every attack")
    return FeasibilityReport(
        nontrivial=(not violations) and condition2,
        condition1_violations=tuple(violations),
        condition2_holds=condition2,
        notes="; ".join(notes) if notes else "ok",
    )
