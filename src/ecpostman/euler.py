"""Properly colored Euler trails: feasibility, extraction, verification.

A connected edge-colored multigraph has a properly colored Euler trail
exactly when every vertex has even degree and no color occupies more
than half of any vertex's incident edge ends. Extraction works through
a transition system: a pairing of the edge ends at each vertex into
distinctly colored pairs, which decomposes the edge set into closed
properly colored trails that are then merged by cross re-pairing at
shared vertices. The edge screen (``uncoverable_edge``) decides the
weaker question the postman problem asks: whether some properly colored
closed walk covers every edge, with edges traversed any number of times.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import (
    ColoredMultigraph,
    GraphError,
    InvariantError,
    PCWalk,
    color_degrees,
    is_connected,
)


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
    for u in range(g.n):
        d = g.degree(u)
        if d % 2 != 0:
            return EulerCheck(False, "odd-degree", u)
        if any(2 * cnt > d for cnt in g.color_counts(u)):
            return EulerCheck(False, "unbalanced", u)
    return EulerCheck(True)


def uncoverable_edge(g: ColoredMultigraph) -> int | None:
    """Return the lowest edge id on no properly colored closed walk, or None.

    A connected multigraph has a covering properly colored closed walk
    iff every edge lies on some properly colored closed walk: one such
    walk per edge, added up, is even and balanced everywhere, so Kotzig's
    theorem gives an Euler trail of the sum.

    The test runs on a digraph of arcs and hubs. Node 2e is edge e
    traversed u -> v and 2e + 1 is v -> u. Each (vertex x, color c)
    present at x gets a hub; an arc entering x with color c points to
    every hub of x with another color, and hub (x, c) points to every
    arc leaving x with color c. Cycles of this digraph are exactly the
    properly colored closed walks, wraparound included, so edge e lies
    on one iff node 2e sits in a strongly connected component of more
    than one node.
    """
    m = len(g.edges)
    succ: list[list[int]] = [[] for _ in range(2 * m)]
    hubs_at: list[dict[int, int]] = []
    for x in range(g.n):
        hubs: dict[int, int] = {}
        for eid, _, color, _ in g.incidence[x]:
            hub = hubs.get(color)
            if hub is None:
                hub = hubs[color] = len(succ)
                succ.append([])
            # the arc of eid that leaves x
            succ[hub].append(2 * eid if g.edges[eid].u == x else 2 * eid + 1)
        hubs_at.append(hubs)
    for e in g.edges:
        for arc, head in ((2 * e.eid, e.v), (2 * e.eid + 1, e.u)):
            succ[arc] = [hub for color, hub in hubs_at[head].items() if color != e.color]

    cyclic = _on_cycle(succ)
    return next((eid for eid in range(m) if not cyclic[2 * eid]), None)


def _on_cycle(succ: list[list[int]]) -> list[bool]:
    """Mark the nodes whose strongly connected component has several nodes.

    Tarjan's algorithm with an explicit stack of (node, successor
    iterator) frames, so deep digraphs cannot hit the recursion limit.
    """
    n = len(succ)
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    component: list[int] = []
    cyclic = [False] * n
    counter = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        component.append(root)
        on_stack[root] = True
        frames = [(root, iter(succ[root]))]
        while frames:
            v, successors = frames[-1]
            for w in successors:
                if index[w] < 0:
                    index[w] = low[w] = counter
                    counter += 1
                    component.append(w)
                    on_stack[w] = True
                    frames.append((w, iter(succ[w])))
                    break
                if on_stack[w] and index[w] < low[v]:
                    low[v] = index[w]
            else:
                frames.pop()
                if frames:
                    parent = frames[-1][0]
                    if low[v] < low[parent]:
                        low[parent] = low[v]
                if low[v] == index[v]:
                    w = component.pop()
                    on_stack[w] = False
                    if w != v:
                        cyclic[v] = cyclic[w] = True
                        while w != v:
                            w = component.pop()
                            on_stack[w] = False
                            cyclic[w] = True
    return cyclic


@dataclass(frozen=True)
class TransitionSystem:
    """A perfect pairing of each vertex's edge ends into bicolored pairs."""

    pairs: tuple[tuple[tuple[int, int], ...], ...]  # per vertex, pairs of edge ids

    def partner_maps(self) -> list[dict[int, int]]:
        maps: list[dict[int, int]] = []
        for vertex_pairs in self.pairs:
            m: dict[int, int] = {}
            for a, b in vertex_pairs:
                m[a] = b
                m[b] = a
            maps.append(m)
        return maps


def build_transition_system(g: ColoredMultigraph) -> TransitionSystem:
    """Pair the edge ends at every vertex so paired ends differ in color.

    Requires every vertex even and balanced. Greedy per vertex: always
    pair one end of the currently most frequent remaining color with one
    end of the second most frequent; balancedness is preserved at each
    step, so the greedy never gets stuck.
    """
    all_pairs: list[tuple[tuple[int, int], ...]] = []
    for u in range(g.n):
        d = g.degree(u)
        counts = g.color_counts(u)
        if d % 2 != 0 or any(2 * cnt > d for cnt in counts):
            raise GraphError(f"vertex {u} is not even and balanced")
        buckets: dict[int, list[int]] = {}
        for eid, _, color, _ in g.incidence[u]:
            buckets.setdefault(color, []).append(eid)
        for lst in buckets.values():
            lst.sort(reverse=True)  # pop() yields the smallest id
        pairs: list[tuple[int, int]] = []
        for _ in range(d // 2):
            first = max(buckets, key=lambda c: (len(buckets[c]), -c))
            rest = [c for c in buckets if c != first and buckets[c]]
            second = max(rest, key=lambda c: (len(buckets[c]), -c))
            a = buckets[first].pop()
            b = buckets[second].pop()
            if not buckets[first]:
                del buckets[first]
            if not buckets[second]:
                del buckets[second]
            pairs.append((a, b) if a < b else (b, a))
        all_pairs.append(tuple(sorted(pairs)))
    return TransitionSystem(tuple(all_pairs))


def _extract_trails(
    g: ColoredMultigraph, partner: list[dict[int, int]]
) -> list[tuple[list[int], list[int]]]:
    """Decompose the edge set into the closed trails induced by the pairing.

    Returns (vertex sequence, edge sequence) per trail; each trail is
    properly colored including the wraparound pair because every adjacent
    edge pair, wraparound included, is a transition of the pairing.
    """
    used = [False] * len(g.edges)
    trails: list[tuple[list[int], list[int]]] = []
    for start_eid in range(len(g.edges)):
        if used[start_eid]:
            continue
        e0 = g.edges[start_eid]
        sv = min(e0.u, e0.v)
        verts = [sv, e0.other(sv)]
        eids = [start_eid]
        used[start_eid] = True
        cur_v = verts[-1]
        cur_e = start_eid
        while True:
            nxt = partner[cur_v][cur_e]
            if nxt == start_eid:
                if cur_v != sv:
                    raise InvariantError("trail closed at the wrong vertex")
                break
            used[nxt] = True
            eids.append(nxt)
            cur_v = g.edges[nxt].other(cur_v)
            verts.append(cur_v)
            cur_e = nxt
        trails.append((verts, eids))
    return trails


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
    re-pairing until one remains. The result traverses each edge exactly
    once and is proper including the wraparound pair. The trail is
    rotated to start at its smallest vertex id with, among those
    positions, the smallest departing edge id.
    """
    if not g.edges:
        raise GraphError("trail extraction requires at least one edge")
    chk = check_pc_euler(g)
    if not chk.feasible:
        where = "" if chk.vertex is None else f" at vertex {chk.vertex}"
        raise GraphError(f"graph has no properly colored Euler trail: {chk.reason}{where}")

    ts = build_transition_system(g)
    partner = ts.partner_maps()

    # union-find over edge ids: each set is the edge set of one closed
    # trail of the current pairing, starting from the transition pairs
    parent = list(range(len(g.edges)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for vertex_pairs in ts.pairs:
        for a, b in vertex_pairs:
            parent[find(b)] = find(a)

    pairs_at: list[list[tuple[int, int]]] = [sorted(vp) for vp in ts.pairs]
    for v in range(g.n):
        local = pairs_at[v]
        if len(local) < 2:
            continue
        base = local[0]
        for idx in range(1, len(local)):
            p = local[idx]
            rb, rp = find(base[0]), find(p[0])
            if rb == rp:
                continue
            new_base, new_p = _cross_repair(g, base, p)
            for a, b in (new_base, new_p):
                partner[v][a] = b
                partner[v][b] = a
            local[0] = new_base
            local[idx] = new_p
            parent[rp] = rb
            base = new_base

    merged = _extract_trails(g, partner)
    if len(merged) != 1:
        raise InvariantError("pairing does not induce a single closed trail")
    verts, eids = merged[0]

    vmin = min(verts[:-1])
    best = min(i for i, v in enumerate(verts[:-1]) if v == vmin)
    for i, v in enumerate(verts[:-1]):
        if v == vmin and eids[i] < eids[best]:
            best = i
    verts = verts[best:-1] + verts[: best + 1]
    eids = eids[best:] + eids[:best]

    return PCWalk(
        vertices=tuple(verts),
        edges=tuple(eids),
        first_color=g.edges[eids[0]].color,
        last_color=g.edges[eids[-1]].color,
        weight=sum(g.edges[eid].weight for eid in eids),
    )


@dataclass(frozen=True)
class WalkReport:
    ok: bool
    failure: str | None
    weight: int
    traversals: tuple[int, ...]


def verify_pc_closed_walk(g: ColoredMultigraph, walk: PCWalk, require_cover: bool) -> WalkReport:
    """Check a closed walk for structure, properness, coverage and weight.

    Properness includes the wraparound pair (last edge vs first edge).
    With require_cover, every edge of g must be traversed at least once.
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
    total = 0
    prev_color = None
    cur = walk.vertices[0]
    for eid, nxt in zip(walk.edges, walk.vertices[1:]):
        if not (0 <= eid < len(g.edges)):
            return fail(f"unknown edge id {eid}")
        e = g.edges[eid]
        if {e.u, e.v} != {cur, nxt}:
            return fail(f"edge {eid} does not join {cur} and {nxt}")
        if prev_color is not None and e.color == prev_color:
            return fail(f"consecutive edges share color {e.color}")
        counts[eid] += 1
        total += e.weight
        prev_color = e.color
        cur = nxt
    first = g.edges[walk.edges[0]]
    last = g.edges[walk.edges[-1]]
    if first.color == last.color:
        return fail(f"wraparound edges share color {first.color}")
    if walk.first_color != first.color or walk.last_color != last.color:
        return fail("recorded end colors are wrong")
    if require_cover and any(c == 0 for c in counts):
        missing = counts.index(0)
        return fail(f"edge {missing} is never traversed")
    if walk.weight != total:
        return fail(f"recorded weight {walk.weight} != traversed weight {total}")
    return WalkReport(True, None, total, tuple(counts))
