"""Trail feasibility, transition systems, extraction and verification."""

import itertools

import pytest
from hypothesis import HealthCheck, assume, given, settings

from conftest import mg, multigraphs

from ecpostman import GraphError, PCWalk, check_pc_euler, pc_euler_trail, verify_pc_closed_walk
from ecpostman.auxgraph import build_matching_graph
from ecpostman.euler import build_transition_system, uncoverable_edge
from ecpostman.graph import has_single_color_vertex, normalize, walk_from_edges
from ecpostman.matching import min_weight_perfect_matching
from ecpostman.oracle import encode_digraph, gen_random_trail_instance


def brute_force_has_pc_euler_trail(g) -> bool:
    """Tiny independent oracle: try all edge orders as closed trails."""
    m = len(g.edges)
    if m == 0:
        return False
    for perm in itertools.permutations(range(m)):
        for start in set(g.edges[perm[0]].pair()):
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
                cur = e.other(cur)
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


def test_balanced_even_vertex_contributes_no_violation():
    # colors {1, 1, 2, 3} at the hub: even and balanced
    g = mg(5, 3, [(0, 1, 1, 1), (0, 2, 1, 1), (0, 3, 2, 1), (0, 4, 3, 1)])
    chk = check_pc_euler(g)
    assert chk.vertex != 0  # hub passes; leaves are the problem


def test_transition_system_degree_two():
    g = mg(3, 3, [(0, 1, 1, 1), (1, 2, 2, 1), (2, 0, 3, 1)])
    ts = build_transition_system(g)
    assert ts.pairs[1] == ((0, 1),)


def test_transition_system_1123():
    # hub ends {1, 1, 2, 3} must pair as {(1,2), (1,3)} up to end identity
    g = mg(
        5,
        3,
        [(0, 1, 1, 1), (0, 2, 1, 1), (0, 3, 2, 1), (0, 4, 3, 1), (1, 2, 2, 1), (3, 4, 1, 1)],
    )
    ts = build_transition_system(g)
    colors = sorted(
        tuple(sorted((g.edges[a].color, g.edges[b].color))) for a, b in ts.pairs[0]
    )
    assert colors == [(1, 2), (1, 3)]


def test_transition_system_1212_never_pairs_same_color():
    g = mg(
        5,
        3,
        [(0, 1, 1, 1), (0, 2, 2, 1), (0, 3, 1, 1), (0, 4, 2, 1), (1, 2, 3, 1), (3, 4, 3, 1)],
    )
    ts = build_transition_system(g)
    for a, b in ts.pairs[0]:
        assert g.edges[a].color != g.edges[b].color


def test_transition_system_requires_balanced_even(single_color_path):
    with pytest.raises(GraphError):
        build_transition_system(single_color_path)


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
        if any(g.degree(u) == 0 for u in range(n)):
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


# most small draws have a single-color vertex; this shape keeps both
# verdicts common among the rest
@given(multigraphs(min_n=3, max_n=4, max_m=9, connected=True))
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
def test_edge_screen_agrees_with_the_blossom(g):
    assume(has_single_color_vertex(g) is None)
    assume(not check_pc_euler(g).feasible)
    aux = build_matching_graph(normalize(g)[0])
    matching = min_weight_perfect_matching(aux.as_matching_instance())
    assert (uncoverable_edge(g) is None) == (matching is not None)
