"""Trail feasibility, transition pairings, extraction and verification."""

import hashlib
import itertools
import random

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from conftest import chained_multigraphs, hamiltonian_digraph, mg, multigraphs

from ecpostman import (
    ColoredMultigraph,
    GraphError,
    InvariantError,
    PCWalk,
    check_pc_euler,
    pc_euler_trail,
    verify_pc_closed_walk,
)
from ecpostman.auxgraph import build_matching_graph
from ecpostman.euler import _extract_trail, build_transition_system, uncoverable_edge
from ecpostman.matching import min_weight_perfect_matching
from ecpostman.oracle import (
    encode_digraph,
    end_pair,
    gen_random_instance,
    gen_random_trail_instance,
    greedy_transition_system,
    has_single_color_vertex,
    normalize,
    other_end,
    pc_walk_minima,
    reference_edge_screen,
    walk_from_edges,
)


def brute_force_has_pc_euler_trail(g) -> bool:
    """Tiny independent oracle: try all edge orders as closed trails."""
    m = len(g.edges)
    if m == 0:
        return False
    for perm in itertools.permutations(range(m)):
        for start in set(end_pair(g.edges[perm[0]])):
            cur = start
            ok = True
            prev_color = None
            for eid in perm:
                e = g.edges[eid]
                if cur not in (e.u, e.v):
                    ok = False
                    break
                if prev_color is not None and e.color == prev_color:
                    ok = False
                    break
                cur = other_end(e, cur)
                prev_color = e.color
            if ok and cur == start and g.edges[perm[0]].color != g.edges[perm[-1]].color:
                return True
    return False


def test_feasibility_examples(triangle, single_color_path):
    assert check_pc_euler(triangle).feasible
    chk = check_pc_euler(single_color_path)
    assert not chk.feasible
    g = mg(4, 2, [(0, 1, 1, 1), (0, 2, 1, 1), (0, 3, 2, 1)])
    chk = check_pc_euler(g)
    assert not chk.feasible and chk.vertex == 0


def test_feasibility_on_a_vertex_without_edges_or_colors():
    assert check_pc_euler(ColoredMultigraph(1, 0, [])).feasible


def test_feasibility_reports_the_first_vertex_and_its_first_fault():
    # vertex 0 is even but unbalanced (colors {1, 1}), vertices 1 and 2 are odd
    g = mg(3, 2, [(0, 1, 1, 1), (0, 2, 1, 1), (1, 2, 2, 1), (1, 2, 2, 1)])
    chk = check_pc_euler(g)
    assert (chk.reason, chk.vertex) == ("unbalanced", 0)
    # vertex 0 is odd and unbalanced (colors {1, 1, 2}): odd-degree wins
    g = mg(4, 2, [(0, 1, 1, 1), (0, 2, 1, 1), (0, 3, 2, 1), (1, 2, 2, 1), (2, 3, 1, 1)])
    chk = check_pc_euler(g)
    assert (chk.reason, chk.vertex) == ("odd-degree", 0)


def test_balanced_even_vertex_contributes_no_violation():
    # colors {1, 1, 2, 3} at the hub: even and balanced
    g = mg(5, 3, [(0, 1, 1, 1), (0, 2, 1, 1), (0, 3, 2, 1), (0, 4, 3, 1)])
    chk = check_pc_euler(g)
    assert chk.vertex != 0  # hub passes; leaves are the problem


def test_transition_system_degree_two():
    g = mg(3, 3, [(0, 1, 1, 1), (1, 2, 2, 1), (2, 0, 3, 1)])
    pairs_at = build_transition_system(g)
    assert pairs_at[1] == [(0, 1)]


def test_transition_system_1123():
    # hub ends {1, 1, 2, 3} must pair as {(1,2), (1,3)} up to end identity
    g = mg(
        5,
        3,
        [(0, 1, 1, 1), (0, 2, 1, 1), (0, 3, 2, 1), (0, 4, 3, 1), (1, 2, 2, 1), (3, 4, 1, 1)],
    )
    pairs_at = build_transition_system(g)
    colors = sorted(
        tuple(sorted((g.edges[a].color, g.edges[b].color))) for a, b in pairs_at[0]
    )
    assert colors == [(1, 2), (1, 3)]


def test_transition_system_1212_never_pairs_same_color():
    g = mg(
        5,
        3,
        [(0, 1, 1, 1), (0, 2, 2, 1), (0, 3, 1, 1), (0, 4, 2, 1), (1, 2, 3, 1), (3, 4, 3, 1)],
    )
    pairs_at = build_transition_system(g)
    for a, b in pairs_at[0]:
        assert g.edges[a].color != g.edges[b].color


def test_transition_system_requires_balanced_even():
    # even everywhere, connected; vertex 2 carries colors {1, 1, 1, 3}.
    # build_transition_system leaves this precondition to its caller, so
    # the trail's own input check must name the vertex.
    g = mg(
        5,
        3,
        [(2, 0, 1, 1), (0, 1, 2, 1), (1, 2, 1, 1), (2, 3, 1, 1), (3, 4, 2, 1), (4, 2, 3, 1)],
    )
    assert all(len(g.incidence[u]) % 2 == 0 for u in range(g.n))
    with pytest.raises(GraphError, match="unbalanced at vertex 2$"):
        pc_euler_trail(g)


def greedy_pairs(g, u):
    """The pairing rule at u written out: one end of the most frequent
    remaining color (ties to the smaller color) with one end of the
    second most frequent, the smallest remaining edge id of each."""
    left = {}
    for eid, _, color, _ in g.incidence[u]:
        left.setdefault(color, []).append(eid)
    pairs = []
    while left:
        first, second = sorted(left, key=lambda c: (-len(left[c]), c))[:2]
        a, b = min(left[first]), min(left[second])
        left[first].remove(a)
        left[second].remove(b)
        pairs.append((min(a, b), max(a, b)))
        left = {c: ids for c, ids in left.items() if ids}
    return sorted(pairs)


def test_transition_pairs_follow_the_greedy_tie_rule():
    tied = 0  # vertices where the second pick ties between two colors
    for seed in range(150):
        k = 2 + seed % 3
        m = 6 + seed % 11
        if k == 2 and m % 2:
            m += 1
        g = gen_random_trail_instance(3 + seed % 3, k, m, 3, seed)
        pairs_at = build_transition_system(g)
        reference = greedy_transition_system(g)
        assert len(pairs_at) == g.n
        for u in range(g.n):
            assert pairs_at[u] == reference[u] == greedy_pairs(g, u), (seed, u)
            counts = sorted(g.color_counts(u), reverse=True) + [0]
            tied += counts[1] > 0 and counts[1] == counts[2]
    assert tied >= 100


def cyclic_sequence(rng, first, pool, length):
    """first, then length - 1 draws from pool, each unlike the one before it
    and the last unlike first as well; None when no draw is left."""
    seq = [first]
    for i in range(1, length):
        choices = [x for x in pool if x != seq[-1] and (i < length - 1 or x != first)]
        if not choices:
            return None
        seq.append(rng.choice(choices))
    return seq


def closed_walks_graph(rng: random.Random) -> ColoredMultigraph:
    """The edges of 1-4 properly colored closed walks from vertex 0.

    Every pass of a closed walk through a vertex adds two ends of distinct
    colors, so the union is even and balanced everywhere, and connected
    once the vertices no walk reaches are dropped. A walk of length 2 is
    a pair of parallel edges, and longer walks may repeat an edge too.
    With k = 2..4 the vertices mix degree 2, two colors at a higher
    degree, and three or more colors.
    """
    n, k = rng.randint(2, 7), rng.randint(2, 4)
    rows = []
    for _ in range(rng.randint(1, 4)):
        length = rng.randint(2, 7)
        verts = cyclic_sequence(rng, 0, range(n), length)
        colors = cyclic_sequence(rng, rng.randint(1, k), range(1, k + 1), length)
        if verts is None or colors is None:
            continue
        for i in range(length):
            rows.append((verts[i], verts[(i + 1) % length], colors[i], rng.randint(0, 3)))
    used = sorted({x for u, v, _, _ in rows for x in (u, v)} | {0})
    index = {x: i for i, x in enumerate(used)}
    return ColoredMultigraph(len(used), k, [(index[u], index[v], c, w) for u, v, c, w in rows])


def vertex_kind(g, u):
    colors = len(set(color for _, _, color, _ in g.incidence[u]))
    return "degree 2" if len(g.incidence[u]) == 2 else f"{min(colors, 3)} colors"


def test_closed_walks_graphs_mix_every_kind_of_vertex():
    kinds = {}
    parallel = 0
    for seed in range(300):
        g = closed_walks_graph(random.Random(seed))
        assert check_pc_euler(g).feasible, seed
        for u in range(g.n):
            kind = vertex_kind(g, u)
            kinds[kind] = kinds.get(kind, 0) + 1
        parallel += len({end_pair(e) for e in g.edges}) < len(g.edges)
    counts = [kinds.get(kind, 0) for kind in ("degree 2", "2 colors", "3 colors")]
    assert min(counts) >= 100 and parallel >= 100, (kinds, parallel)


@given(st.randoms(use_true_random=False))
@settings(max_examples=300, deadline=None)
def test_transition_system_equals_the_heap_greedy(rng):
    g = closed_walks_graph(rng)
    assert build_transition_system(g) == greedy_transition_system(g)


def test_transition_system_raises_at_an_unbalanced_vertex():
    # vertex 0 of each graph is odd or unbalanced: two ends of one color
    # (degree 2), unequal counts of two colors (odd or even degree), one
    # color only, and three colors at an odd or an unbalanced even degree.
    # No vertex may be left with unpaired ends.
    hubs = [(1, 1), (1, 1, 2), (1, 1, 1, 2), (1, 1, 1, 1), (1,), (1, 2, 3), (1, 1, 1, 1, 2, 3)]
    for colors in hubs:
        rows = [(0, i + 1, c, 1) for i, c in enumerate(colors)]
        g = mg(len(colors) + 1, 3, rows)
        with pytest.raises(InvariantError, match="^vertex 0 is not even and balanced$"):
            build_transition_system(g)
        with pytest.raises(IndexError):
            greedy_transition_system(g)


def cycle_through_a_hub():
    """A 2,000-edge cycle alternating colors 1 and 2, a triangle of colors
    3, 1, 3 through its vertex 0, and every 50th cycle edge from 10 on
    joined by two parallel edges of colors 1 and 2: vertex 0 has three
    colors, 80 vertices have two colors at degree 4, the rest degree 2."""
    rows = [(i, (i + 1) % 2000, 1 + i % 2, 1 + i % 7) for i in range(2000)]
    rows += [(0, 2000, 3, 2), (2000, 2001, 1, 2), (2001, 0, 3, 2)]
    for i in range(10, 2000, 50):
        rows += [(i, i + 1, 1, 3), (i, i + 1, 2, 4)]
    return mg(2002, 3, rows)


def test_trail_of_a_long_cycle_through_a_hub():
    g = cycle_through_a_hub()
    kinds = [vertex_kind(g, u) for u in range(g.n)]
    assert (kinds.count("3 colors"), kinds.count("2 colors"), len(g.edges)) == (1, 80, 2083)
    t = _extract_trail(g)
    assert verify_pc_closed_walk(g, t).ok and t.weight == 8281
    # the tour the heap pairing and the per-vertex partner dicts walked
    digest = hashlib.sha256(repr((t.vertices, t.edges, t.weight)).encode()).hexdigest()
    assert digest == "059916ba996571b16b77c069d62646ee3e651ae60b72f488b0499de90ea33359"


def test_trail_triangle(triangle):
    t = pc_euler_trail(triangle)
    assert t.vertices == (0, 1, 2, 0)
    assert t.edges == (0, 1, 2)
    assert verify_pc_closed_walk(triangle, t).ok


def test_trail_bowtie(bowtie):
    t = pc_euler_trail(bowtie)
    assert t.vertices == (0, 1, 2, 0, 3, 4, 0)
    assert [bowtie.edges[e].color for e in t.edges] == [1, 2, 3, 1, 2, 3]
    rep = verify_pc_closed_walk(bowtie, t)
    assert rep.ok and all(c == 1 for c in rep.traversals)


def test_trail_alternating_four_cycle():
    g = mg(4, 2, [(0, 1, 1, 1), (1, 2, 2, 1), (2, 3, 1, 1), (3, 0, 2, 1)])
    t = pc_euler_trail(g)
    assert sorted(t.edges) == [0, 1, 2, 3]
    assert verify_pc_closed_walk(g, t).ok


def test_trail_requires_feasibility(single_color_path):
    with pytest.raises(GraphError, match="odd-degree at vertex 0"):
        pc_euler_trail(single_color_path)


def test_trail_rejects_a_pairing_of_several_trails(bowtie, monkeypatch):
    # with the cross re-pairing disabled, the bowtie's pairing at its hub
    # leaves two closed trails; the walk from edge 0 must not pass
    monkeypatch.setattr("ecpostman.euler._cross_repair", lambda g, p, q: (p, q))
    with pytest.raises(InvariantError, match="single closed trail"):
        pc_euler_trail(bowtie)


def test_trail_starts_at_smallest_vertex_smallest_edge(bowtie):
    t = pc_euler_trail(bowtie)
    assert t.vertices[0] == min(t.vertices)
    departures = [t.edges[i] for i, v in enumerate(t.vertices[:-1]) if v == t.vertices[0]]
    assert t.edges[0] == min(departures)


def test_verify_rejects_color_repeat():
    g = mg(2, 1, [(0, 1, 1, 1)])
    walk = PCWalk((0, 1, 0), (0, 0), 1, 1, 2)
    rep = verify_pc_closed_walk(g, walk)
    assert not rep.ok and "color" in rep.failure


def test_verify_checks_that_each_edge_joins_its_vertices(triangle):
    # edges 0: 0-1, 1: 1-2, 2: 2-0; either direction of an edge is fine
    backwards = PCWalk((0, 2, 1, 0), (2, 1, 0), 3, 1, 3)
    assert verify_pc_closed_walk(triangle, backwards).ok
    wrong = PCWalk((0, 2, 1, 0), (0, 1, 2), 1, 3, 3)
    assert verify_pc_closed_walk(triangle, wrong).failure == "edge 0 does not join 0 and 2"
    unknown = PCWalk((0, 1, 2, 0), (0, 1, 5), 1, 3, 3)
    assert verify_pc_closed_walk(triangle, unknown).failure == "unknown edge id 5"


def test_verify_rejects_missing_coverage(triangle):
    walk = walk_from_edges(triangle, 0, [0, 1, 2])
    partial = PCWalk(walk.vertices[:3], walk.edges[:2], 1, 2, 2)
    rep = verify_pc_closed_walk(triangle, partial)
    assert not rep.ok  # not even closed
    two_cycle = mg(2, 2, [(0, 1, 1, 1), (0, 1, 2, 1), (0, 1, 1, 1)])
    # impossible to cover three parallel edges with that walk
    w = walk_from_edges(two_cycle, 0, [0, 1])
    rep = verify_pc_closed_walk(two_cycle, w)
    assert not rep.ok and "traversed" in rep.failure


def test_verify_weight_mismatch(triangle):
    walk = walk_from_edges(triangle, 0, [0, 1, 2])
    lying = PCWalk(walk.vertices, walk.edges, walk.first_color, walk.last_color, 99)
    assert not verify_pc_closed_walk(triangle, lying).ok


def test_feasibility_necessity_against_tiny_brute_force():
    # exhaustive agreement on every 4-vertex graph shape we can afford
    import random

    rng = random.Random(7)
    compared = 0
    while compared < 120:
        n = rng.randint(2, 4)
        m = rng.randint(1, 5)
        edges = []
        for _ in range(m):
            u = rng.randrange(n)
            v = rng.randrange(n - 1)
            v += v >= u
            edges.append((u, v, rng.randint(1, 2), 1))
        g = mg(n, 2, edges)
        if any(not g.incidence[u] for u in range(n)):
            continue  # isolated vertices are a connectivity question, not a trail one
        compared += 1
        assert check_pc_euler(g).feasible == brute_force_has_pc_euler_trail(g)


@given(multigraphs(connected=True, max_m=8))
@settings(max_examples=150, deadline=None)
def test_extraction_iff_feasible(g):
    chk = check_pc_euler(g)
    if chk.feasible:
        t = pc_euler_trail(g)
        rep = verify_pc_closed_walk(g, t)
        assert rep.ok
        assert sorted(t.edges) == list(range(len(g.edges)))
    else:
        with pytest.raises(GraphError):
            pc_euler_trail(g)


def test_constructed_instances_are_feasible():
    for seed in range(200):
        k = 2 + seed % 2
        m = 2 + seed % 8
        if k == 2 and m % 2:
            m += 1
        g = gen_random_trail_instance(2 + seed % 4, k, m, 3, seed)
        assert check_pc_euler(g).feasible
        t = pc_euler_trail(g)
        rep = verify_pc_closed_walk(g, t)
        assert rep.ok and all(c == 1 for c in rep.traversals)


def test_uncoverable_edge_names_the_trap(triangle, trapped_triangle):
    assert uncoverable_edge(trapped_triangle) == 3
    assert uncoverable_edge(triangle) is None


def test_uncoverable_edge_of_a_one_way_join():
    # strong halves {0, 1, 2} and {3, 4, 5}; arcs 3 and 7 run left to right
    arcs = [(0, 1, 1), (1, 2, 1), (2, 0, 1), (2, 4, 1), (3, 4, 1), (4, 5, 1), (5, 3, 1), (0, 3, 1)]
    g = encode_digraph(6, arcs)
    assert uncoverable_edge(g) == 6 and g.edges[6].color == 1
    back = encode_digraph(6, arcs + [(5, 2, 1)])
    assert uncoverable_edge(back) is None


def reference_uncoverable_edge(g):
    """The lowest edge id on no properly colored closed walk, by walk search.

    Edge e = uv of color c closes such a walk iff some walk from v with
    first color != c reaches u entered by a color != c.
    """
    for eid, u, v, color, _ in g.edges:
        if not any(
            end == u and last != color
            for first in range(1, g.k + 1)
            if first != color
            for end, last in pc_walk_minima(g, v, first)
        ):
            return eid
    return None


# unfiltered: parallel edges, disconnected inputs and single-color
# vertices all stay in
@given(multigraphs(min_n=2, max_n=5, max_k=4, max_m=8))
@settings(max_examples=300, deadline=None)
def test_edge_screen_agrees_with_the_walk_search(g):
    assert uncoverable_edge(g) == reference_uncoverable_edge(g)


@given(chained_multigraphs())
@settings(max_examples=150, deadline=None)
def test_contracted_screen_agrees_with_the_walk_search(drawn):
    g, _ = drawn
    assert uncoverable_edge(g) == reference_uncoverable_edge(g)


def reaches_the_screen(g):
    chk = check_pc_euler(g)
    return (
        chk.reason != "disconnected"
        and not chk.feasible
        and has_single_color_vertex(g) is None
    )


def test_edge_screen_equals_the_reference_on_the_corpus(benchmark_corpus):
    """Every corpus input that the solver screens: 449 colored, 450
    directed and 90 eulerian, 353 of them with an uncovered edge."""
    screened = [g for g in benchmark_corpus if reaches_the_screen(g)]
    found = [uncoverable_edge(g) for g in screened]
    assert found == [reference_edge_screen(g) for g in screened]
    assert (len(screened), sum(eid is not None for eid in found)) == (989, 353)


def test_edge_screen_equals_the_reference_beyond_brute_force():
    graphs = [gen_random_instance(20, 7, 60, 9, s) for s in (0, 1)]
    graphs.append(encode_digraph(100, hamiltonian_digraph(100, 300)))
    for g in graphs:
        assert uncoverable_edge(g) == reference_edge_screen(g)


def test_edge_screen_on_a_deep_state_digraph():
    # an alternating two-color cycle of 20,000 edges, with the trapped
    # triangle's pendant hung off vertex 0: every cycle vertex but 0 is
    # pass-through, so the cycle is one chain from vertex 0 back to it,
    # followed edge by edge in a loop; alone, the cycle has no kept
    # vertex at all
    n = 20_000
    cycle = [(i, (i + 1) % n, 1 + i % 2, 1) for i in range(n)]
    pendant = [(0, n, 1, 1), (n, n + 1, 1, 1), (n + 1, n + 2, 2, 1), (n + 2, n, 3, 1)]
    g = mg(n + 3, 3, cycle + pendant)
    assert uncoverable_edge(g) == n
    assert uncoverable_edge(mg(n, 2, cycle)) is None


def test_edge_screen_on_a_deep_uncontracted_ring():
    # a ring of 20,000 vertices joined by parallel edges of colors 1 and 2
    # (degree 4 everywhere, nothing contracted) with the same pendant;
    # Tarjan walks the ring's states in one chain of 20,000 frames
    n = 20_000
    ring = [(i, (i + 1) % n, color, 1) for i in range(n) for color in (1, 2)]
    pendant = [(0, n, 1, 1), (n, n + 1, 1, 1), (n + 1, n + 2, 2, 1), (n + 2, n, 3, 1)]
    g = mg(n + 3, 3, ring + pendant)
    assert uncoverable_edge(g) == 2 * n
    assert uncoverable_edge(mg(n, 2, ring)) is None


# most small draws have a single-color vertex; this shape keeps both
# verdicts common among the rest
@given(multigraphs(min_n=3, max_n=4, max_m=9, connected=True))
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
def test_edge_screen_agrees_with_the_blossom(g):
    assume(has_single_color_vertex(g) is None)
    assume(not check_pc_euler(g).feasible)
    for h in (g, normalize(g)[0]):  # the solver's model, and the reference's
        aux = build_matching_graph(h)
        matching = min_weight_perfect_matching(aux.instance)
        assert (uncoverable_edge(g) is None) == (matching is not None)
