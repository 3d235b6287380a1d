"""Edge-colored weighted multigraphs: degree profiles, normalization, walks.

Vertices are dense integers 0..n-1, colors are 1..k, weights are
non-negative integers, so every weight comparison and sum is exact.
Parallel edges are allowed, loops are not. Graphs are immutable after
construction; every operation is a pure query or returns a new graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable


class GraphError(ValueError):
    """Malformed graph input or violated operation precondition."""


class InvariantError(RuntimeError):
    """Internal consistency failure; indicates a bug in the solver pipeline."""


@dataclass(frozen=True)
class Edge:
    eid: int
    u: int
    v: int
    color: int
    weight: int

    def other(self, x: int) -> int:
        if x == self.u:
            return self.v
        if x == self.v:
            return self.u
        raise GraphError(f"vertex {x} is not an endpoint of edge {self.eid}")

    def pair(self) -> tuple[int, int]:
        return (self.u, self.v) if self.u < self.v else (self.v, self.u)


class ColoredMultigraph:
    """Immutable edge-colored weighted multigraph.

    Args:
        n: number of vertices (ids 0..n-1).
        k: number of colors (ids 1..k; not every color needs to be used).
        edges: iterable of (u, v, color, weight) tuples with non-negative
            integer weights; edge ids are assigned densely in input order.
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
            built.append(Edge(eid, u, v, color, weight))
            incidence[u].append((eid, v, color, weight))
            incidence[v].append((eid, u, color, weight))
            counts[u][color - 1] += 1
            counts[v][color - 1] += 1
        self.edges: tuple[Edge, ...] = tuple(built)
        self.incidence: tuple[tuple[tuple[int, int, int, int], ...], ...] = tuple(
            tuple(lst) for lst in incidence
        )
        self._color_counts = tuple(tuple(c) for c in counts)

    def degree(self, u: int) -> int:
        self._check_vertex(u)
        return len(self.incidence[u])

    def color_counts(self, u: int) -> tuple[int, ...]:
        self._check_vertex(u)
        return self._color_counts[u]

    def total_weight(self) -> int:
        return sum(e.weight for e in self.edges)

    def is_simple(self) -> bool:
        seen = set()
        for e in self.edges:
            p = e.pair()
            if p in seen:
                return False
            seen.add(p)
        return True

    def _check_vertex(self, u: int) -> None:
        if not (0 <= u < self.n):
            raise GraphError(f"unknown vertex {u}")

    def __repr__(self) -> str:
        return f"ColoredMultigraph(n={self.n}, k={self.k}, m={len(self.edges)})"


@dataclass(frozen=True)
class DegreeProfile:
    """Per-vertex degree decomposition by color.

    ``dominant`` is the color occurring on strictly more than half of the
    incident edges, if any; at most one color can do that.
    """

    vertex: int
    degree: int
    per_color: tuple[int, ...]
    dominant: int | None

    def count(self, color: int) -> int:
        return self.per_color[color - 1]


def color_degrees(g: ColoredMultigraph, u: int) -> DegreeProfile:
    """Count incident edges of each color at u and find the dominant color."""
    counts = g.color_counts(u)
    d = len(g.incidence[u])
    dominant = None
    for c, cnt in enumerate(counts, start=1):
        if 2 * cnt > d:
            dominant = c
            break
    return DegreeProfile(u, d, counts, dominant)


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


def has_single_color_vertex(g: ColoredMultigraph) -> int | None:
    """Return a vertex whose incident edges all share one color, if any.

    Such a vertex admits no properly colored closed walk through it, so
    instances containing one are infeasible. Vertices of degree zero do
    not qualify (they are a connectivity problem instead).
    """
    for u in range(g.n):
        counts = g._color_counts[u]
        d = len(g.incidence[u])
        if d >= 1 and max(counts) == d:
            return u
    return None


@dataclass(frozen=True)
class PCWalk:
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


@dataclass(frozen=True)
class SubdividedEdge:
    """Record of one double subdivision: original edge -> 3-edge path."""

    original_eid: int
    path_eids: tuple[int, int, int]
    interior: tuple[int, int]
    middle_color: int


@dataclass(frozen=True)
class NormalizationMap:
    """Bookkeeping to contract solutions on a normalized graph back.

    ``origin_of[eid]`` gives, for every edge of the normalized graph, the
    original edge it descends from. ``paths`` maps each subdivided
    original edge id to its replacement path.
    """

    original: ColoredMultigraph
    normalized: ColoredMultigraph
    origin_of: tuple[int, ...]
    paths: dict[int, SubdividedEdge]
    fresh_colors: tuple[int, ...]

    @property
    def identity(self) -> bool:
        return not self.paths


def normalize(g: ColoredMultigraph) -> tuple[ColoredMultigraph, NormalizationMap]:
    """Eliminate parallel edges and force an odd color count >= 3.

    All parallel edges but the first of each parallel class are double
    subdivided: edge e = xy becomes a path x-a-b-y whose outer edges keep
    e's color and whose middle edge gets a fresh color shared by all
    parallel-class subdivisions. If the resulting color count is even (or
    below 3), further edges are subdivided, each with its own fresh color,
    until it is odd and >= 3. The full original weight sits on the first
    path edge, so weight totals are preserved exactly.

    Already-normalized graphs are returned unchanged with an empty map.
    """
    if not g.edges:
        raise GraphError("normalization requires at least one edge")

    seen_pairs: set[tuple[int, int]] = set()
    parallel: list[int] = []
    for e in g.edges:
        p = e.pair()
        if p in seen_pairs:
            parallel.append(e.eid)
        else:
            seen_pairs.add(p)

    fresh_colors: list[int] = []
    shared_fresh = 0
    if parallel:
        shared_fresh = g.k + 1
        fresh_colors.append(shared_fresh)

    k_cur = g.k + len(fresh_colors)
    parity_targets: list[int] = []
    parallel_set = set(parallel)
    candidates = (e.eid for e in g.edges if e.eid not in parallel_set)
    while k_cur % 2 == 0 or k_cur < 3:
        target = next(candidates, None)
        if target is None:
            raise GraphError(
                "cannot normalize: too few distinct edges to reach an odd "
                "color count of at least 3"
            )
        parity_targets.append(target)
        k_cur += 1
        fresh_colors.append(g.k + len(fresh_colors) + 1)

    if not parallel and not parity_targets:
        empty_map = NormalizationMap(g, g, tuple(range(len(g.edges))), {}, ())
        return g, empty_map

    middle_color_of: dict[int, int] = {eid: shared_fresh for eid in parallel}
    # parity fixes come after the shared parallel color in the fresh sequence
    offset = 1 if parallel else 0
    for i, eid in enumerate(parity_targets):
        middle_color_of[eid] = fresh_colors[offset + i]

    new_edges: list[tuple[int, int, int, int]] = []
    origin_of: list[int] = []
    paths: dict[int, SubdividedEdge] = {}
    next_vertex = g.n
    for e in g.edges:
        if e.eid in middle_color_of:
            a, b = next_vertex, next_vertex + 1
            next_vertex += 2
            first = len(new_edges)
            new_edges.append((e.u, a, e.color, e.weight))
            new_edges.append((a, b, middle_color_of[e.eid], 0))
            new_edges.append((b, e.v, e.color, 0))
            origin_of.extend([e.eid, e.eid, e.eid])
            paths[e.eid] = SubdividedEdge(
                original_eid=e.eid,
                path_eids=(first, first + 1, first + 2),
                interior=(a, b),
                middle_color=middle_color_of[e.eid],
            )
        else:
            origin_of.append(e.eid)
            new_edges.append((e.u, e.v, e.color, e.weight))

    normalized = ColoredMultigraph(next_vertex, k_cur, new_edges)
    if not normalized.is_simple() or normalized.k % 2 == 0 or normalized.k < 3:
        raise InvariantError("normalization produced a non-normalized graph")
    return normalized, NormalizationMap(g, normalized, tuple(origin_of), paths, tuple(fresh_colors))


def contract_walk(nmap: NormalizationMap, walk: PCWalk) -> PCWalk:
    """Map a walk on the normalized graph back to the original multigraph.

    Every maximal run of consecutive walk edges descending from the same
    subdivided original edge must be one complete traversal of its
    replacement path; properly colored walks cannot enter a subdivision
    path without crossing it (interior vertices have degree 2 with two
    distinct colors), so any violation indicates a solver bug.
    """
    if nmap.identity:
        return walk
    orig = nmap.original
    origin_of = nmap.origin_of
    if walk.vertices[0] >= orig.n:
        raise InvariantError("contracted walk must start at an original vertex")

    out_eids: list[int] = []
    out_verts: list[int] = [walk.vertices[0]]
    total = 0
    i = 0
    m = len(walk.edges)
    while i < m:
        oid = origin_of[walk.edges[i]]
        j = i
        while j < m and origin_of[walk.edges[j]] == oid:
            j += 1
        run_len = j - i
        endpoint = walk.vertices[j]
        sub = nmap.paths.get(oid)
        if sub is None:
            if run_len != 1:
                raise InvariantError(
                    f"edge {oid} repeated {run_len} times consecutively in walk"
                )
        else:
            if run_len != 3 or sorted(walk.edges[i:j]) != sorted(sub.path_eids):
                raise InvariantError(
                    f"walk crosses subdivision path of edge {oid} incompletely"
                )
        if endpoint >= orig.n or out_verts[-1] >= orig.n:
            raise InvariantError("subdivision vertex at a traversal boundary")
        e = orig.edges[oid]
        if {out_verts[-1], endpoint} != {e.u, e.v}:
            raise InvariantError(f"contracted traversal of edge {oid} has wrong endpoints")
        out_eids.append(oid)
        out_verts.append(endpoint)
        total += e.weight
        i = j

    return PCWalk(
        vertices=tuple(out_verts),
        edges=tuple(out_eids),
        first_color=orig.edges[out_eids[0]].color,
        last_color=orig.edges[out_eids[-1]].color,
        weight=total,
    )
