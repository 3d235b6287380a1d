"""Edge-colored weighted multigraphs: color counts, degree screens, walks.

Vertices are dense integers 0..n-1, colors are 1..k, weights are
non-negative integers, so every weight comparison and sum is exact.
Parallel edges are allowed, loops are not. Graphs are immutable after
construction; every operation is a pure query or returns a new graph.

An ``Edge`` is a named tuple ``(eid, u, v, color, weight)``: it reads by
attribute, unpacks, and compares equal to the plain tuple of its fields.
The result types here and in the later stages (``PCWalk``,
``EulerCheck``, ``WalkReport``, ``Solution``, ``PerfectMatching``,
``AuxEdge``) are named tuples too, and behave the same way.
The constructor validates each row once, with one combined test per row;
only a failing row is examined field by field for its message. The CLI's
parser (``cli.parse_instance_text``) checks the same facts on each line,
to name the line, and builds the fields in the same pass; ``with_copies``
derives a graph from rows of an existing one, checks the edge ids it is
given but not the rows, and shares the rows of every vertex that the
copies do not touch. Both hand their ready fields to ``_of_fields``.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable, NamedTuple


class GraphError(ValueError):
    """Malformed graph input or violated operation precondition."""


class InvariantError(RuntimeError):
    """Internal consistency failure; indicates a bug in the solver pipeline."""


class Edge(NamedTuple):
    eid: int
    u: int
    v: int
    color: int
    weight: int


# builds an Edge from a ready tuple without NamedTuple's argument parsing
_new_tuple = tuple.__new__


def _check_row(eid: int, n: int, k: int, u, v, color, weight) -> None:
    """Raise the GraphError of a row's first fault; return if it has none.

    The faults are tested in a fixed order: endpoint, loop, color, weight
    type (an ``int`` subclass passes, ``bool`` does not), negative weight.
    """
    if not (0 <= u < n and 0 <= v < n):
        raise GraphError(f"edge {eid}: endpoint out of range")
    if u == v:
        raise GraphError(f"edge {eid}: loops are not allowed")
    if not (1 <= color <= k):
        raise GraphError(f"edge {eid}: color {color} not in 1..{k}")
    if isinstance(weight, bool) or not isinstance(weight, int):
        raise GraphError(f"edge {eid}: weight {weight!r} is not an integer")
    if weight < 0:
        raise GraphError(f"edge {eid}: negative weight")


class ColoredMultigraph:
    """Immutable edge-colored weighted multigraph.

    Args:
        n: number of vertices (ids 0..n-1).
        k: number of colors (ids 1..k; not every color needs to be used).
        edges: iterable of (u, v, color, weight) tuples with non-negative
            integer weights; edge ids are assigned densely in input order.

    ``incidence[u]`` holds one ``(eid, other end, color, weight)`` entry per
    edge end at u, ascending by edge id; ``build_transition_system``
    relies on that order.
    """

    __slots__ = ("n", "k", "edges", "incidence", "_color_counts")

    def __init__(self, n: int, k: int, edges: Iterable[tuple[int, int, int, int]]):
        if n < 0 or k < 0:
            raise GraphError("vertex and color counts must be non-negative")
        self.n = n
        self.k = k
        built: list[Edge] = []
        incidence: list[list[tuple[int, int, int, int]]] = [[] for _ in range(n)]
        counts = [[0] * k for _ in range(n)]
        for eid, (u, v, color, weight) in enumerate(edges):
            if not (
                0 <= u < n and 0 <= v < n and u != v and 1 <= color <= k
                and type(weight) is int and weight >= 0
            ):
                _check_row(eid, n, k, u, v, color, weight)
            built.append(_new_tuple(Edge, (eid, u, v, color, weight)))
            incidence[u].append((eid, v, color, weight))
            incidence[v].append((eid, u, color, weight))
            counts[u][color - 1] += 1
            counts[v][color - 1] += 1
        self.edges: tuple[Edge, ...] = tuple(built)
        self.incidence: tuple[tuple[tuple[int, int, int, int], ...], ...] = tuple(
            tuple(lst) for lst in incidence
        )
        self._color_counts = tuple(tuple(c) for c in counts)

    @classmethod
    def _of_fields(cls, n, k, edges, incidence, color_counts) -> ColoredMultigraph:
        """The graph with these tuple fields, vouched for by the caller; nothing is checked."""
        g = cls.__new__(cls)
        g.n = n
        g.k = k
        g.edges = edges
        g.incidence = incidence
        g._color_counts = color_counts
        return g

    def with_copies(self, eids: Iterable[int]) -> ColoredMultigraph:
        """This graph plus one copy of each listed edge id, in list order.

        Copy i gets edge id m + i. An id outside 0..m-1 raises GraphError.
        Every row comes from this graph, which validated it, so no row is
        validated again. Only the incidence lists and color counts of the
        copies' endpoints are rebuilt; every other vertex shares its tuples
        with this graph.
        """
        source = self.edges
        m = eid = len(source)
        copies: list[Edge] = []
        new_ends: dict[int, list[tuple[int, int, int, int]]] = defaultdict(list)
        for src in eids:
            if not 0 <= src < m:
                raise GraphError(f"unknown edge id {src}")
            _, u, v, color, weight = source[src]
            copies.append(_new_tuple(Edge, (eid, u, v, color, weight)))
            new_ends[u].append((eid, v, color, weight))
            new_ends[v].append((eid, u, color, weight))
            eid += 1
        incidence = list(self.incidence)
        color_counts = list(self._color_counts)
        for x, ends in new_ends.items():
            incidence[x] += tuple(ends)
            counts = list(color_counts[x])
            for _, _, color, _ in ends:
                counts[color - 1] += 1
            color_counts[x] = tuple(counts)
        return ColoredMultigraph._of_fields(
            self.n, self.k, source + tuple(copies), tuple(incidence), tuple(color_counts)
        )

    def color_counts(self, u: int) -> tuple[int, ...]:
        self._check_vertex(u)
        return self._color_counts[u]

    def total_weight(self) -> int:
        return sum(e.weight for e in self.edges)

    def _check_vertex(self, u: int) -> None:
        if not (0 <= u < self.n):
            raise GraphError(f"unknown vertex {u}")

    def __repr__(self) -> str:
        return f"ColoredMultigraph(n={self.n}, k={self.k}, m={len(self.edges)})"


def is_connected(g: ColoredMultigraph) -> bool:
    """True iff all n vertices lie in one component (isolated vertices count)."""
    if g.n == 0:
        raise GraphError("connectivity is undefined on the empty graph")
    seen = [False] * g.n
    seen[0] = True
    stack = [0]
    reached = 1
    while stack:
        x = stack.pop()
        for _, y, _, _ in g.incidence[x]:
            if not seen[y]:
                seen[y] = True
                reached += 1
                stack.append(y)
    return reached == g.n


def first_odd_or_unbalanced(g: ColoredMultigraph) -> tuple[str, int] | None:
    """Return ``(reason, vertex)`` for the first vertex that is not even and balanced.

    Vertices are scanned by ascending id; at each one the odd-degree test
    comes before the unbalanced one, so a vertex that is both is reported
    as ``"odd-degree"``. A vertex is unbalanced when one color holds more
    than half of its edge ends. None if every vertex passes.
    """
    for u, (ends, counts) in enumerate(zip(g.incidence, g._color_counts)):
        d = len(ends)
        if d % 2 != 0:
            return ("odd-degree", u)
        if 2 * max(counts, default=0) > d:
            return ("unbalanced", u)
    return None


class PCWalk(NamedTuple):
    """A walk as alternating vertex/edge-id sequences with end colors.

    ``edges[i]`` joins ``vertices[i]`` and ``vertices[i+1]``. Consecutive
    edges are expected to carry distinct colors; for closed walks the
    wraparound pair is exempt unless checked explicitly by a verifier.
    """

    vertices: tuple[int, ...]
    edges: tuple[int, ...]
    first_color: int
    last_color: int
    weight: int

    @property
    def closed(self) -> bool:
        return self.vertices[0] == self.vertices[-1]
