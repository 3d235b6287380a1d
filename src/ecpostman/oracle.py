"""Independent brute-force oracles and instance generators.

Everything here exists to cross-check the main solver, the walk
finder and the matching backend at desk scale: a multiplicity-search
postman oracle, an exhaustive properly-colored-walk enumerator with a
witness checker, the walk finder's runs keyed by (end vertex, last
color) and the plain tuple-keyed Dijkstra they must reproduce, a builder
that turns a witness into a ``PCWalk``, the heap greedy that the Euler
trail's transition system must equal, the edge screen on every state
that the contracting screen must agree with, an exhaustive perfect-matching
search, networkx's maximum-cardinality matching on the blossom's own
stages, the edge-list normalizer of matching instances, the full
slot/filler auxiliary model that the solver's live-slot model reduces,
the structural-lemma checker of a matching on either model, the
normalization (simple graph, odd color count) that the full model needs
and the reference pipeline built on it, the classic digraph encoding
into two colors, a brute-force directed postman solver, the edge
helpers the tests walk with (``other_end``, ``end_pair``), and
deterministic random instance generators.
"""

from __future__ import annotations

import heapq
import itertools
import random
from collections.abc import Sequence
from dataclasses import dataclass

from .auxgraph import NOT_AN_EDGE, Block, MatchingGraph, SlotVertex, with_walk_edges
from .blossom import SINGLE, _run_stages
from .euler import _strong_components, verify_pc_closed_walk
from .graph import (
    ColoredMultigraph,
    DegreeProfile,
    Edge,
    GraphError,
    InvariantError,
    PCWalk,
    color_degrees,
    has_single_color_vertex,
    is_connected,
)
from .matching import MatchingInstance, PerfectMatching
from .pcwalks import ShortestWalkFinder, color_states, other_colors
from .solver import Solution, solve

DEFAULT_BOUND = 3
MAX_CANDIDATES = 5_000_000
MAX_EXPANSIONS = 5_000_000

# (end vertex, last color) -> (weight, edge ids of a minimum walk)
WalkTable = dict[tuple[int, int], tuple[int, tuple[int, ...]]]


def other_end(e: Edge, x: int) -> int:
    """The end of edge e that is not x; GraphError if x is not an end of e."""
    if x == e.u:
        return e.v
    if x == e.v:
        return e.u
    raise GraphError(f"vertex {x} is not an endpoint of edge {e.eid}")


def end_pair(e: Edge) -> tuple[int, int]:
    """The two ends of edge e, the smaller first."""
    return (e.u, e.v) if e.u < e.v else (e.v, e.u)


def oracle_solve(
    g: ColoredMultigraph, bound: int = DEFAULT_BOUND, max_candidates: int = MAX_CANDIDATES
) -> tuple[int, tuple[int, ...]] | None:
    """Exhaustive postman optimum over per-edge multiplicities 1..bound.

    A multiplicity vector is feasible when the multigraph with q_e
    copies of each edge has every vertex even and balanced (q_e >= 1
    keeps connectivity). Returns (weight, vector) for the minimum
    feasible vector, or None when none exists within the bound. The
    result is the true optimum only if some optimal solution keeps all
    multiplicities <= bound; callers compare against the main solver's
    multiplicities to discharge that assumption.
    """
    m = len(g.edges)
    if m == 0:
        raise GraphError("oracle needs at least one edge")
    if bound < 1:
        raise GraphError("multiplicity bound must be >= 1")
    if bound**m > max_candidates:
        raise GraphError(f"search space {bound}**{m} exceeds {max_candidates}")
    if not is_connected(g):
        return None

    ends = [(e.u, e.v, e.color - 1, e.weight) for e in g.edges]
    n, k = g.n, g.k
    best: tuple[int, tuple[int, ...]] | None = None
    deg = [0] * n
    col = [[0] * k for _ in range(n)]
    for q in itertools.product(range(1, bound + 1), repeat=m):
        for i in range(n):
            deg[i] = 0
            row = col[i]
            for c in range(k):
                row[c] = 0
        weight = 0
        for (u, v, c, w), mult in zip(ends, q):
            deg[u] += mult
            deg[v] += mult
            col[u][c] += mult
            col[v][c] += mult
            weight += mult * w
        if best is not None and weight >= best[0]:
            continue
        ok = True
        for i in range(n):
            d = deg[i]
            if d % 2 != 0 or 2 * max(col[i]) > d:
                ok = False
                break
        if ok:
            best = (weight, q)
    return best


def pc_walk_minima(
    g: ColoredMultigraph,
    u: int,
    c1: int,
    max_edges: int | None = None,
    max_expansions: int = MAX_EXPANSIONS,
) -> dict[tuple[int, int], int]:
    """Exhaustive minima of properly colored fixed-end walks from u.

    Depth-first search over actual walks in the multigraph (never the
    layered construction the production finder uses), keyed by
    (end vertex, last color). Walks longer than max_edges (default
    k * n, enough for completeness) are cut off; partial walks that are
    dominated in both weight and length by an already-explored walk to
    the same state are pruned, which discards no minima.
    """
    g._check_vertex(u)
    if max_edges is None:
        max_edges = g.k * g.n
    fronts: dict[tuple[int, int], list[tuple[int, int]]] = {}
    best: dict[tuple[int, int], int] = {}
    stack: list[tuple[int, int, int, int]] = []
    expansions = 0

    def offer(vertex: int, color: int, weight: int, length: int) -> None:
        state = (vertex, color)
        front = fronts.setdefault(state, [])
        for w0, l0 in front:
            if w0 <= weight and l0 <= length:
                return
        front[:] = [(w0, l0) for w0, l0 in front if not (weight <= w0 and length <= l0)]
        front.append((weight, length))
        if state not in best or weight < best[state]:
            best[state] = weight
        stack.append((vertex, color, weight, length))

    for eid, other, color, w in g.incidence[u]:
        if color == c1:
            offer(other, color, w, 1)
    while stack:
        vertex, color, weight, length = stack.pop()
        if length >= max_edges:
            continue
        expansions += 1
        if expansions > max_expansions:
            raise GraphError("walk enumeration exploded; shrink the instance")
        for eid, other, ecolor, w in g.incidence[vertex]:
            if ecolor == color:
                continue
            offer(other, ecolor, weight + w, length + 1)
    return best


def walk_table(finder: ShortestWalkFinder, u: int, c1: int) -> WalkTable:
    """The minima of ``finder.labels(u, c1)``, keyed by (end vertex, last color).

    Each value is (weight, edge-id sequence of a minimum walk);
    unreachable keys, and the states of contracted vertices, are absent.
    """
    labels = finder.labels(u, c1)
    return {
        (x, c): label[:2]
        for x, states in enumerate(finder.state_at)
        for c, s in states.items()
        if (label := labels[s]) is not None
    }


def reference_walk_table(g: ColoredMultigraph, u: int, c1: int) -> WalkTable:
    """The walk table of :func:`walk_table`, by the plain Dijkstra.

    States are (vertex, entering color) tuples, a run keeps its labels
    in dicts keyed by them, and every pop filters ``incidence[x]`` by
    color; the finder runs on dense state ids instead. Ties break on the
    (weight, edge-id sequence) label, so witnesses must agree too.
    """
    g._check_vertex(u)
    incidence = g.incidence
    # heap entries (dist, edge-id sequence, vertex, entering color);
    # the sequence makes ties break deterministically and doubles as
    # the witness.
    heap: list[tuple[int, tuple[int, ...], int, int]] = []
    tentative: WalkTable = {}
    for eid, other, color, w in incidence[u]:
        if color == c1:
            label = (w, (eid,))
            state = (other, color)
            if state not in tentative or label < tentative[state]:
                tentative[state] = label
                heapq.heappush(heap, (w, (eid,), other, color))
    settled: WalkTable = {}
    while heap:
        dist, seq, x, c = heapq.heappop(heap)
        state = (x, c)
        if state in settled:
            continue
        settled[state] = (dist, seq)
        for eid, y, cy, w in incidence[x]:
            if cy == c:
                continue
            nxt = (y, cy)
            if nxt in settled:
                continue
            label = (dist + w, seq + (eid,))
            if nxt not in tentative or label < tentative[nxt]:
                tentative[nxt] = label
                heapq.heappush(heap, (label[0], label[1], y, cy))
    return settled


def enumerate_pc_walks(
    g: ColoredMultigraph, u: int, c1: int, v: int, c2: int, max_edges: int | None = None
) -> int | None:
    """Minimum weight over properly colored fixed-end walks u -> v with
    end colors (c1, c2), by exhaustive search; None when no walk exists."""
    g._check_vertex(v)
    return pc_walk_minima(g, u, c1, max_edges).get((v, c2))


def check_walk_witness(
    g: ColoredMultigraph, u: int, c1: int, v: int, c2: int, weight: int, eids: tuple[int, ...]
) -> str | None:
    """Validate a witness edge-id sequence from the walk finder; None when consistent.

    Walked from u, consecutive edges must be adjacent with distinct
    colors and no (vertex, entering color) state may repeat; the end
    vertex and end colors must match the query, the recomputed weight
    the reported one, and the length the k * n state bound.
    """
    if not eids:
        return "witness has no edges"
    total = 0
    cur = u
    states = set()
    prev_color = None
    for eid in eids:
        if not (0 <= eid < len(g.edges)):
            return f"edge id {eid} out of range"
        e = g.edges[eid]
        if cur not in (e.u, e.v):
            return f"edge {eid} does not touch {cur}"
        if prev_color is not None and e.color == prev_color:
            return f"consecutive edges share color {e.color}"
        cur = other_end(e, cur)
        state = (cur, e.color)
        if state in states:
            return f"state {state} visited twice"
        states.add(state)
        total += e.weight
        prev_color = e.color
    if cur != v:
        return "witness endpoints do not match query"
    if g.edges[eids[0]].color != c1 or prev_color != c2:
        return "witness end colors do not match query"
    if total != weight:
        return "witness weight mismatch"
    if len(eids) > g.k * g.n:
        return "witness longer than the state-space bound"
    return None


def walk_from_edges(g: ColoredMultigraph, start: int, eids: Sequence[int]) -> PCWalk:
    """Assemble a PCWalk from a start vertex and a chained edge-id sequence."""
    if not eids:
        raise GraphError("a walk needs at least one edge")
    g._check_vertex(start)
    verts = [start]
    total = 0
    cur = start
    for eid in eids:
        e = g.edges[eid]
        cur = other_end(e, cur)
        verts.append(cur)
        total += e.weight
    return PCWalk(
        vertices=tuple(verts),
        edges=tuple(eids),
        first_color=g.edges[eids[0]].color,
        last_color=g.edges[eids[-1]].color,
        weight=total,
    )


def greedy_transition_system(g: ColoredMultigraph) -> list[list[tuple[int, int]]]:
    """The pairing rule of ``euler.build_transition_system``, run on a heap everywhere.

    Per vertex: pair the smallest edge id of the most frequent remaining
    color with the smallest edge id of the second most frequent, ties to
    the smaller color; each list of pairs sorted. The production pairing
    takes shortcuts at vertices of degree 2 and of two colors, and must
    equal this on every even, balanced vertex. A vertex that is not even
    and balanced runs out of partners and raises IndexError.
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
        heapq.heapify(heap)
        pairs: list[tuple[int, int]] = []
        while heap:
            first, c1 = heapq.heappop(heap)
            second, c2 = heapq.heappop(heap)
            a = buckets[c1].pop()
            b = buckets[c2].pop()
            pairs.append((a, b) if a < b else (b, a))
            if first < -1:
                heapq.heappush(heap, (first + 1, c1))
            if second < -1:
                heapq.heappush(heap, (second + 1, c2))
        pairs.sort()
        pairs_at.append(pairs)
    return pairs_at


def reference_edge_screen(g: ColoredMultigraph) -> int | None:
    """``euler.uncoverable_edge`` on every (vertex, entering color) state.

    No vertex is contracted: Tarjan runs on all states, and each edge
    xy of color c is checked on its own, passing iff (y, c) shares a
    strongly connected component with some (x, c'), c' != c.
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


def adjacency(n: int, edges: Sequence[tuple[int, int, int]]) -> list[list[tuple[int, int, int]]]:
    """The blossom's adjacency of an edge list: each edge (u, v, w) listed at
    u as ``(u, v, 2*w)`` and at v as ``(v, u, 2*w)``, in edge order."""
    adj: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
    for u, v, w in edges:
        adj[u].append((u, v, 2 * w))
        adj[v].append((v, u, 2 * w))
    return adj


def instance_from_edges(
    n: int, edges: Sequence[tuple[int, int, int]], scale: int = 1
) -> MatchingInstance:
    """Normalize any edge list into a ``MatchingInstance``.

    Rejects loops, endpoints out of range and negative weights, and
    keeps the minimum weight of each vertex pair (u, v), u < v. The
    records are written in the order of the sorted pairs, under the
    ceiling 1 + the largest weight. The auxiliary-graph builders write
    their instances directly; this is the reference whose ``edges`` view
    theirs must equal.
    """
    best: dict[tuple[int, int], int] = {}
    for u, v, w in edges:
        if u == v:
            raise GraphError("matching instances may not contain loops")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError("matching edge endpoint out of range")
        if w < 0:
            raise GraphError("matching weights must be non-negative")
        key = (u, v) if u < v else (v, u)
        if key not in best or w < best[key]:
            best[key] = w
    ceiling = 1 + max(best.values(), default=0)
    reflected = [(u, v, 2 * (ceiling - w)) for (u, v), w in sorted(best.items())]
    return MatchingInstance(n, adjacency(n, reflected), ceiling, scale)


def brute_force_matching(inst: MatchingInstance, limit: int = 12) -> PerfectMatching | None:
    """Exhaustive minimum over all perfect matchings; the test oracle.

    Restricted to small instances (n <= limit). Ties resolve to the
    lexicographically first matching in ascending-partner order.
    """
    if inst.n > limit:
        raise GraphError(f"brute force matching limited to n <= {limit}")
    if inst.n == 0:
        return PerfectMatching((), 0)
    if inst.n % 2 != 0:
        return None
    adj: dict[int, list[tuple[int, int]]] = {u: [] for u in range(inst.n)}
    for u, v, w in inst.edges:
        adj[u].append((v, w))
        adj[v].append((u, w))
    for u in adj:
        adj[u].sort()

    best_weight: list[int | None] = [None]
    best_pairs: list[tuple[tuple[int, int], ...]] = [()]
    chosen: list[tuple[int, int]] = []
    matched = [False] * inst.n

    def search(acc: int) -> None:
        u = next((x for x in range(inst.n) if not matched[x]), None)
        if u is None:
            if best_weight[0] is None or acc < best_weight[0]:
                best_weight[0] = acc
                best_pairs[0] = tuple(sorted(chosen))
            return
        if best_weight[0] is not None and acc >= best_weight[0]:
            return
        matched[u] = True
        for v, w in adj[u]:
            if matched[v]:
                continue
            matched[v] = True
            chosen.append((u, v) if u < v else (v, u))
            search(acc + w)
            chosen.pop()
            matched[v] = False
        matched[u] = False

    search(0)
    if best_weight[0] is None:
        return None
    return PerfectMatching(best_pairs[0], best_weight[0] // inst.scale)


def max_cardinality_matching(n: int, edges: Sequence[tuple[int, int, int]]) -> list[int]:
    """networkx's maximum-weight maximum-cardinality matching, on the blossom's stages.

    The reference for graphs without a perfect matching, where
    ``blossom.max_weight_perfect_matching`` returns None. It runs the
    same ``blossom._run_stages`` from networkx's uniform start: every
    vertex dual at maxweight, the largest weight (at least 0), plus a
    greedy matching of the edges of weight maxweight, whose slack is zero
    there. Returns ``mate`` with ``SINGLE`` for an unmatched vertex; no
    certificate is checked.
    """
    adj = adjacency(n, edges)
    maxweight = max([0, *(wt for _, _, wt in edges)])
    mate = [SINGLE] * n
    for i, j, wt in edges:
        if wt == maxweight and mate[i] == SINGLE and mate[j] == SINGLE:
            mate[i] = j
            mate[j] = i
    _run_stages(n, adj, mate, [maxweight] * n)
    return mate


def color_deficiency(profile: DegreeProfile, color: int) -> int:
    """How far color falls short of half the degree: max(0, d - 2*d_color)."""
    if not (1 <= color <= len(profile.per_color)):
        raise GraphError(f"color {color} out of range")
    return max(0, profile.degree - 2 * profile.per_color[color - 1])


def is_simple(g: ColoredMultigraph) -> bool:
    """True iff no two edges of g join the same pair of vertices."""
    pairs = {end_pair(e) for e in g.edges}
    return len(pairs) == len(g.edges)


def build_full_matching_graph(g: ColoredMultigraph) -> MatchingGraph:
    """The paper's full auxiliary model: the exact reference of the live one.

    For each vertex u and color c the graph carries color_deficiency(u, c)
    slot vertices, absent colors included; a vertex with a dominant color
    additionally gets (k-2)*d(u) filler vertices. Zero-weight artificial
    edges connect fillers among themselves and to all slots of the same
    owner, and, at balanced owners, all slot pairs of the same owner.
    Walk edges and the canonical instance come from the live builder's
    own ``auxgraph.with_walk_edges``, and the preconditions are the same.
    """
    if g.k % 2 == 0 or g.k < 3:
        raise GraphError("auxiliary graph needs an odd color count >= 3")
    if not is_simple(g):
        raise GraphError("auxiliary graph needs a simple (normalized) graph")

    vertices: list[SlotVertex] = []
    slot_indices: dict[tuple[int, int], list[int]] = {}
    filler_indices: dict[int, list[int]] = {}
    profiles: list[DegreeProfile] = []
    for u in range(g.n):
        prof = color_degrees(g, u)
        profiles.append(prof)
        if prof.degree >= 1 and max(prof.per_color) == prof.degree:
            raise GraphError(f"vertex {u} is incident to a single color only")
        for c in range(1, g.k + 1):
            need = color_deficiency(prof, c)
            if need:
                idxs = []
                for copy in range(need):
                    idxs.append(len(vertices))
                    vertices.append(SlotVertex(u, c, copy))
                slot_indices[(u, c)] = idxs
        if prof.dominant is not None:
            idxs = []
            for copy in range((g.k - 2) * prof.degree):
                idxs.append(len(vertices))
                vertices.append(SlotVertex(u, None, copy))
            filler_indices[u] = idxs

    blocks: list[Block] = []
    for u in range(g.n):
        slots = []
        for c in range(1, g.k + 1):
            slots.extend(slot_indices.get((u, c), ()))
        if profiles[u].dominant is None:
            blocks.append((slots, slots, 0))
        else:
            fill = filler_indices[u]
            blocks.append((fill, fill, 0))
            blocks.append((slots, fill, 0))
    dominant = {u: prof.dominant for u, prof in enumerate(profiles) if prof.dominant is not None}
    numbering = color_states(g, {u for u, _ in slot_indices})
    return with_walk_edges(g, vertices, blocks, slot_indices, filler_indices, dominant, numbering)


@dataclass(frozen=True)
class StructureReport:
    ok: bool
    failures: tuple[str, ...]


def validate_matching_structure(
    mg: MatchingGraph, pairs: tuple[tuple[int, int], ...]
) -> StructureReport:
    """Check the structural properties every perfect matching must obey.

    With affected(u) = number of u's slot vertices matched through
    non-artificial edges: a vertex with dominant color i must have at
    least 2*d_i(u) - d(u) affected slots and no (u, i) slots at all, and
    affected(u) must match the parity of d(u). Every pair must be an
    auxiliary edge (``MatchingGraph.signature``).
    """
    failures: list[str] = []
    covered: set[int] = set()
    affected = [0] * mg.g.n
    for a, b in pairs:
        sig = mg.signature(a, b)
        if sig == NOT_AN_EDGE:
            failures.append(f"matched pair ({a}, {b}) is not an edge")
            continue
        if a in covered or b in covered:
            failures.append(f"vertex repeated in matching at pair ({a}, {b})")
        covered.update((a, b))
        if sig is not None:
            affected[sig[0]] += 1
            affected[sig[2]] += 1
    if len(covered) != len(mg.vertices):
        failures.append("matching is not perfect")

    for u in range(mg.g.n):
        prof = color_degrees(mg.g, u)
        if prof.dominant is not None:
            needed = 2 * prof.count(prof.dominant) - prof.degree
            if affected[u] < needed:
                failures.append(f"vertex {u}: {affected[u]} affected slots, needs >= {needed}")
            if mg.slot_indices.get((u, prof.dominant)):
                failures.append(f"vertex {u}: dominant color has slot vertices")
        if affected[u] % 2 != prof.degree % 2:
            failures.append(
                f"vertex {u}: affected count {affected[u]} has wrong parity "
                f"for degree {prof.degree}"
            )
    return StructureReport(not failures, tuple(failures))


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
        p = end_pair(e)
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
    if not is_simple(normalized) or normalized.k % 2 == 0 or normalized.k < 3:
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


def reference_solve(g: ColoredMultigraph) -> Solution:
    """The solver as the paper's reduction states it: on a normalized graph.

    ``normalize`` g, run the production ``solve`` on the simple,
    odd-colored result, ``contract_walk`` its tour back and verify it on
    g. Every answer must equal ``solve(g)``'s; the tour is the one the
    solver chose before it learned to solve on the input graph itself.
    """
    if g.k < 2:
        return solve(g)  # one color is infeasible, and normalize cannot always reach three
    gn, nmap = normalize(g)
    sol = solve(gn)
    if not sol.optimal:
        return sol
    walk = contract_walk(nmap, sol.walk)
    report = verify_pc_closed_walk(g, walk)
    if not report.ok or report.weight != sol.total_weight:
        raise InvariantError(f"contracted walk failed verification: {report.failure}")
    return sol._replace(multiplicities=report.traversals, walk=walk)


def encode_digraph(
    n: int, arcs: list[tuple[int, int, int]] | tuple
) -> ColoredMultigraph:
    """Encode a weighted digraph as a 2-colored multigraph.

    Every arc (u, v, w) becomes a fresh middle vertex joined to u by a
    color-1 edge of weight w and to v by a color-2 edge of weight 0, so
    directed walks correspond to properly colored walks and totals are
    preserved. Edge ids come in arc order: arc i produces edges 2i and
    2i + 1.
    """
    if not arcs:
        raise GraphError("encoding needs at least one arc")
    edges: list[tuple[int, int, int, int]] = []
    for idx, (u, v, w) in enumerate(arcs):
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"arc {idx}: endpoint out of range")
        mid = n + idx
        edges.append((u, mid, 1, w))
        edges.append((mid, v, 2, 0))
    return ColoredMultigraph(n + len(arcs), 2, edges)


def directed_cpp_brute_force(
    n: int,
    arcs: list[tuple[int, int, int]] | tuple,
    bound: int = DEFAULT_BOUND,
    max_candidates: int = MAX_CANDIDATES,
) -> int | None:
    """Brute-force directed postman optimum with multiplicities 1..bound.

    A multiplicity vector is feasible when every vertex ends up with
    equal in- and out-degree; the covering closed walk then exists iff
    the arc-carrying vertices are weakly connected, which duplication
    does not change. Isolated vertices are ignored.
    """
    m = len(arcs)
    if m == 0:
        raise GraphError("directed oracle needs at least one arc")
    if bound**m > max_candidates:
        raise GraphError(f"search space {bound}**{m} exceeds {max_candidates}")

    touched = sorted({u for u, _, _ in arcs} | {v for _, v, _ in arcs})
    adj: dict[int, set[int]] = {u: set() for u in touched}
    for u, v, _ in arcs:
        adj[u].add(v)
        adj[v].add(u)
    seen = {touched[0]}
    frontier = [touched[0]]
    while frontier:
        x = frontier.pop()
        for y in adj[x]:
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    if len(seen) != len(touched):
        return None

    best: int | None = None
    balance = [0] * n
    for q in itertools.product(range(1, bound + 1), repeat=m):
        for i in touched:
            balance[i] = 0
        weight = 0
        for (u, v, w), mult in zip(arcs, q):
            balance[u] += mult
            balance[v] -= mult
            weight += mult * w
        if best is not None and weight >= best:
            continue
        if all(balance[i] == 0 for i in touched):
            best = weight
    return best


def gen_random_instance(
    n: int,
    k: int,
    m: int,
    max_w: int,
    seed: int,
    max_tries: int = 1000,
    two_colors: bool = False,
) -> ColoredMultigraph:
    """Deterministic connected random multigraph; retries until connected.

    Endpoint pairs are uniform over distinct vertex pairs, colors
    uniform over 1..k, integer weights uniform over 1..max_w. With
    ``two_colors`` a draw is also retried until every vertex sees at
    least two colors, so no draw fails the solver's single-color screen;
    a seed whose first draw already passes gives the same graph either
    way.
    """
    if n < 2 or k < 1 or max_w < 1 or m < max(1, n - 1):
        raise GraphError("impossible generator parameters")
    rng = random.Random(seed)
    for _ in range(max_tries):
        edges = []
        for _ in range(m):
            u = rng.randrange(n)
            v = rng.randrange(n - 1)
            if v >= u:
                v += 1
            edges.append((u, v, rng.randint(1, k), rng.randint(1, max_w)))
        g = ColoredMultigraph(n, k, edges)
        if is_connected(g) and not (two_colors and has_single_color_vertex(g) is not None):
            return g
    wanted = "connected graph with two colors at every vertex" if two_colors else "connected graph"
    raise GraphError(f"no {wanted} with n={n}, m={m} after {max_tries} tries")


def gen_random_trail_instance(
    n: int, k: int, num_edges: int, max_w: int, seed: int, max_tries: int = 1000
) -> ColoredMultigraph:
    """Random multigraph that is the support of a properly colored closed trail.

    The generator draws a random closed vertex sequence and colors each
    step differently from its predecessor (wraparound included), so the
    resulting multigraph is connected with every vertex even and
    balanced by construction: the trail itself certifies it. With two
    colors the trail must alternate, which forces an even edge count.
    """
    if n < 2 or k < 2 or num_edges < 2 or max_w < 1:
        raise GraphError("impossible generator parameters")
    if k == 2 and num_edges % 2 != 0:
        raise GraphError("two colors force an even number of edges")
    rng = random.Random(seed)
    for _ in range(max_tries):
        verts = [rng.randrange(n)]
        for _ in range(num_edges - 1):
            nxt = rng.randrange(n - 1)
            if nxt >= verts[-1]:
                nxt += 1
            verts.append(nxt)
        if verts[-1] == verts[0]:
            continue
        verts.append(verts[0])
        colors = [rng.randint(1, k)]
        ok = True
        for i in range(1, num_edges):
            banned = {colors[-1]}
            if i == num_edges - 1:
                banned.add(colors[0])
            options = [c for c in range(1, k + 1) if c not in banned]
            if not options:
                ok = False
                break
            colors.append(rng.choice(options))
        if not ok:
            continue
        used = sorted(set(verts))
        remap = {v: i for i, v in enumerate(used)}
        edges = [
            (remap[verts[i]], remap[verts[i + 1]], colors[i], rng.randint(1, max_w))
            for i in range(num_edges)
        ]
        return ColoredMultigraph(len(used), k, edges)
    raise GraphError(f"no trail instance with n={n}, m={num_edges} after {max_tries} tries")


def gen_random_digraph(
    n: int, m: int, max_w: int, seed: int, max_tries: int = 1000
) -> tuple[int, tuple[tuple[int, int, int], ...]]:
    """Deterministic random digraph with no isolated vertices.

    Arcs are uniform ordered pairs of distinct vertices with integer
    weights 1..max_w; retries until every vertex carries an arc.
    """
    if n < 2 or max_w < 1 or m < 1:
        raise GraphError("impossible generator parameters")
    rng = random.Random(seed)
    for _ in range(max_tries):
        arcs = []
        for _ in range(m):
            u = rng.randrange(n)
            v = rng.randrange(n - 1)
            if v >= u:
                v += 1
            arcs.append((u, v, rng.randint(1, max_w)))
        touched = {u for u, _, _ in arcs} | {v for _, v, _ in arcs}
        if len(touched) == n:
            return n, tuple(arcs)
    raise GraphError(f"no isolated-free digraph with n={n}, m={m} after {max_tries} tries")
