"""Independent brute-force oracles and instance generators.

Everything here exists to cross-check the main solver, the walk
finder and the matching backend at desk scale: a multiplicity-search
postman oracle, an exhaustive properly-colored-walk enumerator with a
witness checker, an exhaustive perfect-matching search, the classic
digraph encoding into two colors, a brute-force directed postman
solver, and deterministic random instance generators.
"""

from __future__ import annotations

import itertools
import random

from .graph import ColoredMultigraph, GraphError, is_connected
from .matching import MatchingInstance, PerfectMatching

DEFAULT_BOUND = 3
MAX_CANDIDATES = 5_000_000
MAX_EXPANSIONS = 5_000_000


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
        cur = e.other(cur)
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
    return PerfectMatching(best_pairs[0], best_weight[0])


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
    n: int, k: int, m: int, max_w: int, seed: int, max_tries: int = 1000
) -> ColoredMultigraph:
    """Deterministic connected random multigraph; retries until connected.

    Endpoint pairs are uniform over distinct vertex pairs, colors
    uniform over 1..k, integer weights uniform over 1..max_w.
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
        if is_connected(g):
            return g
    raise GraphError(f"no connected graph with n={n}, m={m} after {max_tries} tries")


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
