"""Properly colored Euler trails: feasibility, extraction, verification.

A connected edge-colored multigraph has a properly colored Euler trail
exactly when every vertex has even degree and no color occupies more
than half of any vertex's incident edge ends. Extraction works through
a transition system, a greedy pairing of each vertex's edge ends in
distinct colors, read off directly at degree 2 and at two colors. It
splits the edges into closed properly colored trails; cross re-pairing
at shared vertices merges them into one, walked once. The edge screen
(``uncoverable_edge``) decides the weaker question the postman problem
asks: whether some properly colored closed walk covers every edge, with
edges traversed any number of times. It runs on the same (vertex,
entering color) states as the walk tables of ``pcwalks``, in the one
numbering a solve makes, with every pass-through vertex (degree 2, two
colors) left out: a chain of them is one move between the states of its
two ends, and answers for all of its edges.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import NamedTuple

from .graph import (
    ColoredMultigraph,
    GraphError,
    InvariantError,
    PCWalk,
    first_odd_or_unbalanced,
    is_connected,
)
from .pcwalks import Numbering, color_states, other_colors


class EulerCheck(NamedTuple):
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


def uncoverable_edge(g: ColoredMultigraph, numbering: Numbering | None = None) -> int | None:
    """Return the lowest edge id on no properly colored closed walk, or None.

    A connected multigraph has a covering properly colored closed walk
    iff every edge lies on some properly colored closed walk: one such
    walk per edge, added up, is even and balanced everywhere, so Kotzig's
    theorem gives an Euler trail of the sum.

    The test runs on the states of the walk tables (``pcwalks.color_states``):
    state (x, c) means "at x, entered by color c", one per color present
    at x. An edge xy of color c' != c leads from (x, c) to (y, c'), so
    cycles of this digraph are exactly the properly colored closed
    walks, wraparound included. Edge e = xy of color c lies on one iff
    (y, c) shares a strongly connected component with some (x, c'),
    c' != c. The successors are grouped by color first
    (``pcwalks.other_colors``), so the two states of a two-color vertex
    share one list each way, and a state of a vertex of three or more
    colors gets the other groups joined by concatenation; the verdict
    does not depend on their order.

    A walk that enters a pass-through vertex (degree 2, two colors) must
    leave it along its other edge, so no such vertex gets states. From a
    kept vertex x the screen follows each chain of pass-through vertices
    to the kept state (z, c) that the chain enters, once per chain: the
    chain is a successor of x's group in its first color, and walked
    backwards, of (z, c)'s group. It is also one coverage entry (x's
    states, first color, end state, lowest edge id), checked as a single
    edge is; every edge of a chain is covered iff the chain is, so the
    chain answers for its lowest edge id. An edge between two kept
    vertices is checked on its own, in id order, as long as its id is
    below the lowest uncovered chain's. An alternating cycle of
    pass-through vertices is itself a closed walk, and none of its edges
    is ever looked at. ``numbering``: ``color_states(g, ())``, made if None.
    """
    state_at, count = color_states(g, ()) if numbering is None else numbering
    incidence = g.incidence
    edges = g.edges
    heads: list[list[int]] = [[] for _ in range(count)]
    chains: list[tuple[dict[int, int], int, int, int]] = []
    walked = bytearray(len(edges))  # the last edges of the chains walked so far
    inner = 0  # edges on the chains walked so far
    for states, ends in zip(state_at, incidence):
        if not states:
            continue  # pass-through, or isolated
        for eid, y, first, _ in ends:
            ahead = state_at[y]
            if ahead:
                heads[states[first]].append(ahead[first])
                continue
            if walked[eid]:
                continue  # walked from its other end already
            # the chain never comes back to a vertex it crossed: it used
            # both of that vertex's edges
            low = eid
            color = first
            while not ahead:
                a, b = incidence[y]
                eid, y, color, _ = b if a[2] == color else a
                if eid < low:
                    low = eid
                inner += 1
                ahead = state_at[y]
            walked[eid] = 1
            inner += 1
            start = states[first]
            end = ahead[color]
            heads[start].append(end)
            heads[end].append(start)
            chains.append((states, first, end, low))
    component = _strong_components(other_colors(state_at, heads))
    found = None
    for states, first, end, low in chains:
        target = component[end]
        for c, s in states.items():
            if c != first and component[s] == target:
                break
        else:
            if found is None or low < found:
                found = low
    if inner == len(edges):
        return found  # every edge lies on a chain
    for eid, x, y, color, _ in edges:
        if eid == found:
            break
        ahead = state_at[y]
        states = state_at[x]
        if not (ahead and states):
            continue  # a chain's edge
        target = component[ahead[color]]
        for c, s in states.items():
            if c != color and component[s] == target:
                break
        else:
            return eid
    return found


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
    sorted. Every vertex must be even and balanced (``check_pc_euler``,
    the caller's, or this count check's alone for the solver's duplicated
    graph); one that is not raises InvariantError. The greedy
    (``oracle.greedy_transition_system``) pairs the smallest edge id of
    the most frequent remaining color with the smallest of the second
    most frequent, ties to the smaller color, and so keeps the vertex
    balanced. Only three or more colors need its heap: at degree 2 its
    one pair is the two ends, at two colors it pairs their i-th smallest.
    """
    pairs_at: list[list[tuple[int, int]]] = []
    for u, ends in enumerate(g.incidence):
        if len(ends) == 2 and ends[0][2] != ends[1][2]:
            pairs_at.append([(ends[0][0], ends[1][0])])  # ascending, as incidence is
            continue
        # incidence lists ascend by edge id, so walking one backwards
        # leaves every bucket descending and pop() yields its smallest id
        buckets: dict[int, list[int]] = {}
        for eid, _, color, _ in reversed(ends):
            bucket = buckets.get(color)
            if bucket is None:
                buckets[color] = [eid]
            else:
                bucket.append(eid)
        if len(buckets) == 2:
            pairs = [(a, b) if a < b else (b, a) for a, b in zip(*buckets.values())]
            pairs.reverse()  # the i-th largest ids paired up: the pairs descended
        else:
            heap = [(-len(ids), color) for color, ids in buckets.items()]
            heapify(heap)
            pairs = []
            while len(heap) > 1:
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
        if 2 * len(pairs) != len(ends):  # zip and the heap both stop at a shortfall
            raise InvariantError(f"vertex {u} is not even and balanced")
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
    edges = g.edges
    m = len(edges)
    pairs_at = build_transition_system(g)

    # union-find over edge ids, path halving inlined: each set is the edge
    # set of one closed trail of the current pairing
    parent = list(range(m))
    for pairs in pairs_at:
        for a, b in pairs:
            while parent[a] != a:
                parent[a] = a = parent[parent[a]]
            while parent[b] != b:
                parent[b] = b = parent[parent[b]]
            parent[b] = a

    # merge every trail through x into the one through x's first pair, root rb
    at_u, at_v = [0] * m, [0] * m  # the edge paired with e at e.u, at e.v
    for x, pairs in enumerate(pairs_at):
        if len(pairs) > 1:
            rb = pairs[0][0]
            while parent[rb] != rb:
                parent[rb] = rb = parent[parent[rb]]
            for idx in range(1, len(pairs)):
                rp = pairs[idx][0]
                while parent[rp] != rp:
                    parent[rp] = rp = parent[parent[rp]]
                if rb != rp:
                    pairs[0], pairs[idx] = _cross_repair(g, pairs[0], pairs[idx])
                    parent[rp] = rb
        for a, b in pairs:
            (at_u if edges[a].u == x else at_v)[a] = b
            (at_u if edges[b].u == x else at_v)[b] = a

    cur_v = min(edges[0].u, edges[0].v)
    verts, eids = [cur_v], []
    cur_e = 0
    weight = 0
    for _ in range(m):
        eids.append(cur_e)
        _, u, v, _, w = edges[cur_e]
        weight += w
        cur_v, cur_e = (v, at_v[cur_e]) if u == cur_v else (u, at_u[cur_e])
        verts.append(cur_v)
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


class WalkReport(NamedTuple):
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
