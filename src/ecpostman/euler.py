"""Properly colored Euler trails: feasibility, extraction, verification.

A connected edge-colored multigraph has a properly colored Euler trail
exactly when every vertex has even degree and no color occupies more
than half of any vertex's incident edge ends. Extraction works through
a transition system: per vertex, a list of pairs of its edge ends with
distinct colors. The pairing decomposes the edge set into closed
properly colored trails; cross re-pairing at shared vertices merges
them into one, and that one trail is walked once. The edge screen
(``uncoverable_edge``) decides the weaker question the postman problem
asks: whether some properly colored closed walk covers every edge, with
edges traversed any number of times. It runs on the same (vertex,
entering color) states as the walk tables of ``pcwalks``.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush

from .graph import (
    ColoredMultigraph,
    GraphError,
    InvariantError,
    PCWalk,
    first_odd_or_unbalanced,
    is_connected,
)
from .pcwalks import color_states, other_colors


@dataclass(frozen=True)
class EulerCheck:
    feasible: bool
    reason: str | None = None
    vertex: int | None = None


def check_pc_euler(g: ColoredMultigraph) -> EulerCheck:
    """Decide whether g admits a properly colored Euler trail.

    Feasible iff g is connected and every vertex is even and balanced.
    On failure the first violating vertex (ascending id) or the
    disconnection is reported.
    """
    if g.n == 0:
        raise GraphError("feasibility is undefined on the empty graph")
    if not is_connected(g):
        return EulerCheck(False, "disconnected", None)
    fault = first_odd_or_unbalanced(g)
    if fault is not None:
        return EulerCheck(False, *fault)
    return EulerCheck(True)


def uncoverable_edge(g: ColoredMultigraph) -> int | None:
    """Return the lowest edge id on no properly colored closed walk, or None.

    A connected multigraph has a covering properly colored closed walk
    iff every edge lies on some properly colored closed walk: one such
    walk per edge, added up, is even and balanced everywhere, so Kotzig's
    theorem gives an Euler trail of the sum.

    The test runs on the states of the walk tables, numbered as they are
    (``pcwalks.color_states``): state (x, c) means "at x, entered by
    color c", one per color present at x. An edge xy of color c' != c
    leads from (x, c) to (y, c'), so cycles of this digraph are exactly
    the properly colored closed walks, wraparound included. Edge e = xy
    of color c lies on one iff (y, c) shares a strongly connected
    component with some (x, c'), c' != c. The successors are grouped by
    color first (``pcwalks.other_colors``), so the two states of a
    two-color vertex share one list each way; the verdict does not
    depend on their order.
    """
    state_at, count = color_states(g)
    heads: list[list[int]] = [[] for _ in range(count)]
    for states, ends in zip(state_at, g.incidence):
        for _, y, color, _ in ends:
            heads[states[color]].append(state_at[y][color])
    component = _strong_components(other_colors(state_at, heads))
    for eid, x, y, color, _ in g.edges:
        target = component[state_at[y][color]]
        for c, s in state_at[x].items():
            if c != color and component[s] == target:
                break
        else:
            return eid
    return None


def _strong_components(succ: list[list[int]]) -> list[int]:
    """Label each node with the root node of its strongly connected component.

    Tarjan's algorithm with an explicit stack of (node, successor
    iterator) frames, so deep digraphs cannot hit the recursion limit.
    A visited node without a label is still on Tarjan's stack.
    """
    n = len(succ)
    index = [-1] * n
    low = [0] * n
    component = [-1] * n
    stack: list[int] = []
    counter = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        frames = [(root, iter(succ[root]))]
        while frames:
            v, successors = frames[-1]
            for w in successors:
                if index[w] < 0:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    frames.append((w, iter(succ[w])))
                    break
                if component[w] < 0 and index[w] < low[v]:
                    low[v] = index[w]
            else:
                frames.pop()
                if frames:
                    parent = frames[-1][0]
                    if low[v] < low[parent]:
                        low[parent] = low[v]
                if low[v] == index[v]:
                    w = -1
                    while w != v:
                        w = stack.pop()
                        component[w] = v
    return component


def build_transition_system(g: ColoredMultigraph) -> list[list[tuple[int, int]]]:
    """Pair the edge ends at every vertex so paired ends differ in color.

    Returns, per vertex, its pairs of edge ids, each pair and each list
    sorted. Every vertex must be even and balanced; that is the caller's
    precondition (``check_pc_euler``), not checked here. Greedy per
    vertex: pair the smallest edge id of the most frequent remaining
    color with the smallest edge id of the second most frequent, ties
    to the smaller color. Each step keeps the vertex balanced, so the
    greedy never gets stuck.
    """
    pairs_at: list[list[tuple[int, int]]] = []
    for ends in g.incidence:
        # incidence lists ascend by edge id, so walking one backwards
        # leaves every bucket descending and pop() yields its smallest id
        buckets: dict[int, list[int]] = {}
        for eid, _, color, _ in reversed(ends):
            bucket = buckets.get(color)
            if bucket is None:
                buckets[color] = [eid]
            else:
                bucket.append(eid)
        heap = [(-len(ids), color) for color, ids in buckets.items()]
        heapify(heap)
        pairs: list[tuple[int, int]] = []
        while heap:
            first, c1 = heappop(heap)
            second, c2 = heappop(heap)
            a = buckets[c1].pop()
            b = buckets[c2].pop()
            pairs.append((a, b) if a < b else (b, a))
            if first < -1:
                heappush(heap, (first + 1, c1))
            if second < -1:
                heappush(heap, (second + 1, c2))
        pairs.sort()
        pairs_at.append(pairs)
    return pairs_at


def _cross_repair(
    g: ColoredMultigraph, p: tuple[int, int], q: tuple[int, int]
) -> tuple[tuple[int, int], tuple[int, int]]:
    """Re-pair two transitions at a shared vertex so both new pairs are proper."""
    e1, e2 = p
    f1, f2 = q
    col = lambda eid: g.edges[eid].color
    for a, b, c, d in ((e1, f2, f1, e2), (e1, f1, e2, f2)):
        if col(a) != col(b) and col(c) != col(d):
            return (min(a, b), max(a, b)), (min(c, d), max(c, d))
    raise InvariantError("no proper cross re-pairing exists")  # impossible per case analysis


def pc_euler_trail(g: ColoredMultigraph) -> PCWalk:
    """Extract a properly colored Euler trail from a feasible multigraph.

    The transition system decomposes the edges into closed properly
    colored trails; trails sharing a vertex are merged by cross
    re-pairing until one remains, which is then walked once from edge 0.
    The result traverses each edge exactly once and is proper including
    the wraparound pair. The trail is rotated to start at its smallest
    vertex id with, among those positions, the smallest departing edge
    id. A graph without edges, or one that ``check_pc_euler`` rejects,
    raises GraphError naming the reason.
    """
    if not g.edges:
        raise GraphError("trail extraction requires at least one edge")
    chk = check_pc_euler(g)
    if not chk.feasible:
        where = "" if chk.vertex is None else f" at vertex {chk.vertex}"
        raise GraphError(f"graph has no properly colored Euler trail: {chk.reason}{where}")
    return _extract_trail(g)


def _extract_trail(g: ColoredMultigraph) -> PCWalk:
    """``pc_euler_trail`` on a graph known to be connected, even and balanced.

    That precondition, and at least one edge, is the caller's to
    establish; it is not checked again here.
    """
    m = len(g.edges)
    pairs_at = build_transition_system(g)

    # union-find over edge ids: each set is the edge set of one closed
    # trail of the current pairing, starting from the transition pairs
    parent = list(range(m))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for pairs in pairs_at:
        for a, b in pairs:
            parent[find(b)] = find(a)

    # merge every trail through v into the one through v's first pair
    partner: list[dict[int, int]] = []
    for pairs in pairs_at:
        for idx in range(1, len(pairs)):
            rb, rp = find(pairs[0][0]), find(pairs[idx][0])
            if rb != rp:
                pairs[0], pairs[idx] = _cross_repair(g, pairs[0], pairs[idx])
                parent[rp] = rb
        at: dict[int, int] = {}
        for a, b in pairs:
            at[a] = b
            at[b] = a
        partner.append(at)

    edges = g.edges
    cur_v = min(edges[0].u, edges[0].v)
    verts, eids = [cur_v], []
    cur_e = 0
    weight = 0
    for _ in range(m):
        eids.append(cur_e)
        e = edges[cur_e]
        cur_v = e.v if e.u == cur_v else e.u
        weight += e.weight
        verts.append(cur_v)
        cur_e = partner[cur_v][cur_e]
        if cur_e == 0:
            break
    if cur_e != 0 or cur_v != verts[0] or len(eids) != m:
        raise InvariantError("pairing does not induce a single closed trail")

    best = min(zip(verts, eids, range(m)))[2]
    verts = verts[best:-1] + verts[: best + 1]
    eids = eids[best:] + eids[:best]

    return PCWalk(
        vertices=tuple(verts),
        edges=tuple(eids),
        first_color=g.edges[eids[0]].color,
        last_color=g.edges[eids[-1]].color,
        weight=weight,
    )


@dataclass(frozen=True)
class WalkReport:
    ok: bool
    failure: str | None
    weight: int
    traversals: tuple[int, ...]


def verify_pc_closed_walk(g: ColoredMultigraph, walk: PCWalk) -> WalkReport:
    """Check a closed walk for structure, properness, coverage and weight.

    Properness includes the wraparound pair (last edge vs first edge).
    Every edge of g must be traversed at least once.
    The report carries the first failure and the per-edge traversal
    counts; the reported walk weight must equal the recomputed one.
    """
    counts = [0] * len(g.edges)

    def fail(msg: str) -> WalkReport:
        return WalkReport(False, msg, 0, tuple(counts))

    if len(walk.vertices) != len(walk.edges) + 1:
        return fail("vertex/edge sequence lengths are inconsistent")
    if not walk.edges:
        return fail("walk has no edges")
    if walk.vertices[0] != walk.vertices[-1]:
        return fail("walk is not closed")
    edges = g.edges
    m = len(edges)
    total = 0
    prev_color = None
    cur = walk.vertices[0]
    for eid, nxt in zip(walk.edges, walk.vertices[1:]):
        if not (0 <= eid < m):
            return fail(f"unknown edge id {eid}")
        e = edges[eid]
        u, v, color = e.u, e.v, e.color
        if not ((u == cur and v == nxt) or (v == cur and u == nxt)):
            return fail(f"edge {eid} does not join {cur} and {nxt}")
        if color == prev_color:
            return fail(f"consecutive edges share color {color}")
        counts[eid] += 1
        total += e.weight
        prev_color = color
        cur = nxt
    first = g.edges[walk.edges[0]]
    last = g.edges[walk.edges[-1]]
    if first.color == last.color:
        return fail(f"wraparound edges share color {first.color}")
    if walk.first_color != first.color or walk.last_color != last.color:
        return fail("recorded end colors are wrong")
    if any(c == 0 for c in counts):
        missing = counts.index(0)
        return fail(f"edge {missing} is never traversed")
    if walk.weight != total:
        return fail(f"recorded weight {walk.weight} != traversed weight {total}")
    return WalkReport(True, None, total, tuple(counts))
