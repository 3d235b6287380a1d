"""Minimum-weight perfect matching against the brute-force oracle and networkx.

The blossom port starts each vertex at its own dual with a greedy
matching of the edges tight there, and so need not return networkx's
matching where optima tie: it must return one of the same weight, and
networkx's own matching wherever the optimum is unique. It returns None
exactly when networkx's maximum-cardinality matching leaves a vertex
single: one run of the stages decides that. On such graphs the
comparisons take ``oracle.max_cardinality_matching``, the same stages
from networkx's uniform start, as the port's counterpart. The tests
cover both starts, the mid-stage T-blossom expansions of each, a Tutte
barrier whose run ends with live S-blossoms, and the parity that the
per-vertex start keeps. Documents depend only on the multiset of matched
signatures, so on the models that ``solve`` builds that multiset must
equal the one of networkx's matching.
"""

import gc
import random
from collections import Counter

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecpostman import GraphError, InvariantError
from ecpostman import blossom, solver
from ecpostman.auxgraph import build_matching_graph
from ecpostman.blossom import SINGLE, max_weight_perfect_matching
from ecpostman.matching import min_weight_perfect_matching
from ecpostman.oracle import (
    adjacency,
    brute_force_matching,
    encode_digraph,
    gen_random_digraph,
    gen_random_instance,
    instance_from_edges,
    max_cardinality_matching,
)


def inst(n, edges):
    return instance_from_edges(n, edges)


def test_four_cycle():
    i = inst(4, [(0, 1, 1), (1, 2, 2), (2, 3, 1), (3, 0, 2)])
    m = min_weight_perfect_matching(i)
    assert m.pairs == ((0, 1), (2, 3))
    assert m.weight == 2
    b = brute_force_matching(i)
    assert b.weight == 2 and b.pairs == m.pairs


def test_odd_vertex_count_has_no_perfect_matching():
    i = inst(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])
    assert min_weight_perfect_matching(i) is None
    assert brute_force_matching(i) is None


def test_k4_with_two_cheap_edges():
    edges = [(0, 1, 1), (2, 3, 1), (0, 2, 10), (0, 3, 10), (1, 2, 10), (1, 3, 10)]
    i = inst(4, edges)
    m = min_weight_perfect_matching(i)
    assert m.pairs == ((0, 1), (2, 3)) and m.weight == 2


def test_empty_and_edgeless():
    assert brute_force_matching(inst(0, [])).weight == 0
    assert min_weight_perfect_matching(inst(0, [])).weight == 0
    assert brute_force_matching(inst(2, [])) is None
    assert min_weight_perfect_matching(inst(2, [])) is None


def test_parallel_edges_collapse_to_minimum():
    i = inst(2, [(0, 1, 5), (1, 0, 2), (0, 1, 9)])
    assert i.edges == ((0, 1, 2),)
    assert min_weight_perfect_matching(i).weight == 2


def test_loops_rejected():
    with pytest.raises(GraphError):
        inst(2, [(1, 1, 1)])


def test_brute_force_size_guard():
    with pytest.raises(GraphError):
        brute_force_matching(inst(14, []))


def test_randomized_agreement_with_brute_force():
    rng = random.Random(123)
    for _ in range(300):
        n = rng.randint(0, 12)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        rng.shuffle(pairs)
        edges = [(u, v, rng.randint(0, 8)) for u, v in pairs[: rng.randint(0, len(pairs))]]
        i = inst(n, edges)
        fast = min_weight_perfect_matching(i)
        slow = brute_force_matching(i)
        assert (fast is None) == (slow is None)
        if fast is not None:
            assert fast.weight == slow.weight
            covered = {v for p in fast.pairs for v in p}
            assert len(covered) == n == 2 * len(fast.pairs)


@given(st.integers(2, 10), st.data())
@settings(max_examples=60, deadline=None)
def test_matching_validity(n, data):
    if n % 2:
        n += 1
    all_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = data.draw(st.lists(st.sampled_from(all_pairs), max_size=len(all_pairs)))
    edges = [(u, v, data.draw(st.integers(0, 6))) for u, v in chosen]
    i = inst(n, edges)
    m = min_weight_perfect_matching(i)
    if m is None:
        return
    weights = {(u, v): w for u, v, w in i.edges}
    assert m.weight == sum(weights[p] for p in m.pairs)
    covered = [v for p in m.pairs for v in p]
    assert sorted(covered) == list(range(n))


def test_non_perfect_backend_mate_is_an_invariant_error(monkeypatch):
    """A backend fault is an internal error, not a user-input GraphError."""
    rotated = lambda n, adj: [(v + 1) % n for v in range(n)]
    monkeypatch.setattr("ecpostman.matching.max_weight_perfect_matching", rotated)
    with pytest.raises(InvariantError, match="non-perfect matching"):
        min_weight_perfect_matching(inst(4, [(0, 1, 1), (1, 2, 2), (2, 3, 1), (3, 0, 2)]))


def test_backend_pairing_non_adjacent_vertices_is_an_invariant_error(monkeypatch):
    """A symmetric, perfect mate that pairs non-adjacent vertices is still caught.

    The mate pairs (0, 3) and (1, 2). In each instance at least one of
    the two is no edge, so the adjacency list of its smaller end holds no
    record of it: the first pair, the second after the first is found,
    or both.
    """
    crossed = lambda n, adj: [3, 2, 1, 0]
    monkeypatch.setattr("ecpostman.matching.max_weight_perfect_matching", crossed)
    for edges in (
        [(0, 1, 1), (0, 2, 5), (1, 2, 2), (2, 3, 1)],  # (0, 3) missing, (1, 2) present
        [(0, 1, 1), (0, 2, 5), (0, 3, 2)],  # (0, 3) present, (1, 2) missing
        [(0, 1, 1), (2, 3, 1)],  # neither present
    ):
        with pytest.raises(InvariantError, match="non-perfect matching"):
            min_weight_perfect_matching(inst(4, edges))


def networkx_mate(n, edges):
    """networkx's matching of the graph built from vertices 0..n-1 and edges, in order."""
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    for u, v, w in edges:
        graph.add_edge(u, v, weight=w)
    return {frozenset(p) for p in nx.max_weight_matching(graph, maxcardinality=True)}


def ported_mate(n, edges):
    """The port's perfect matching, or the oracle's matching when there is none."""
    mate = max_weight_perfect_matching(n, adjacency(n, edges))
    if mate is None:
        mate = max_cardinality_matching(n, edges)
    assert all(m == SINGLE or mate[m] == v for v, m in enumerate(mate))
    return {frozenset((v, m)) for v, m in enumerate(mate) if v < m}


def random_graph(rng, n, density, max_w, shuffled):
    edges = [
        (u, v, rng.randint(0, max_w))
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < density
    ]
    if shuffled:
        rng.shuffle(edges)
        edges = [(v, u, w) if rng.random() < 0.5 else (u, v, w) for u, v, w in edges]
    return edges


def mate_weight(pairs, edges):
    weights = {frozenset((u, v)): w for u, v, w in edges}
    return sum(weights[frozenset(p)] for p in pairs)


def assert_same_optimum(n, edges, context=None):
    """The port's matching has networkx's cardinality and total weight.

    The port finds no perfect matching exactly when networkx's leaves a
    vertex single.
    """
    ours, theirs = ported_mate(n, edges), networkx_mate(n, edges)
    perfect = max_weight_perfect_matching(n, adjacency(n, edges)) is not None
    assert perfect == (2 * len(theirs) == n), context
    assert len(ours) == len(theirs), context
    assert mate_weight(ours, edges) == mate_weight(theirs, edges), context


def fixed_corpus():
    """Sparse to complete graphs, n <= 40, mostly tie-heavy weights.

    Half the graphs list their edges sorted, as ``instance_from_edges``
    writes them; the other half shuffle them and flip endpoints, so the
    greedy start and the scan meet edges in every order.
    """
    rng = random.Random(20260)
    for case in range(240):
        n = rng.randint(1, 40)
        density = rng.choice((0.05, 0.15, 0.4, 1.0))
        max_w = rng.choice((1, 2, 2, 2, 9, 1000))
        yield case, n, random_graph(rng, n, density, max_w, shuffled=case % 2 == 1)


def test_mate_equals_networkx_on_a_fixed_corpus():
    for case, n, edges in fixed_corpus():
        assert_same_optimum(n, edges, (case, n, len(edges)))


def test_unique_optimum_mate_equals_networkx_on_a_fixed_corpus():
    """With the i-th edge weighted 2**i no two matchings weigh the same.

    The maximum-weight maximum-cardinality matching is then unique, so the
    port must return networkx's matching pair for pair.
    """
    for case, n, edges in fixed_corpus():
        edges = [(u, v, 1 << i) for i, (u, v, _) in enumerate(edges)]
        assert ported_mate(n, edges) == networkx_mate(n, edges), (case, n, len(edges))


@given(st.integers(1, 40), st.data())
@settings(max_examples=100, deadline=None)
def test_mate_equals_networkx(n, data):
    all_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = data.draw(st.lists(st.sampled_from(all_pairs), unique=True)) if all_pairs else []
    edges = [(u, v, data.draw(st.integers(0, 2))) for u, v in chosen]
    assert_same_optimum(n, edges)


# Graphs on which the matcher expands a T-blossom in the middle of a stage
# (a delta4 step) and relabels its sub-blossoms along the edges between
# them, each picked by counting such expansions in an instrumented copy
# of the matcher. The first eleven have no perfect matching, so the
# comparison takes the oracle's run from the uniform start, which expands
# 1, 1, 1, 2, 2, 2, 3, 3, 3, 4 and 2 T-blossoms mid-stage, of which 0, 0,
# 1, 1, 1, 1, 2, 2, 2, 3 and 2 hold a nested blossom; the matcher's own
# per-vertex run, which returns None, expands 3 (2 nested) on the seventh
# graph and none on the others. The last six have a perfect matching, so
# the per-vertex run alone gives their answer; it expands 1, 1, 1, 2, 2
# and 3, of which 1, 1, 1, 1, 1 and 2 hold a nested blossom.
MID_STAGE_EXPANSIONS = [
    (7, [
        (0, 3, 0), (1, 5, 6), (2, 4, 11), (2, 5, 15), (3, 5, 18), (3, 6, 8), (4, 6, 6),
    ]),
    (7, [
        (0, 1, 0), (0, 5, 1), (1, 2, 1), (1, 3, 5), (2, 5, 4), (2, 6, 0), (3, 4, 5),
        (4, 5, 4),
    ]),
    (7, [
        (0, 2, 1), (1, 4, 0), (2, 4, 9), (2, 5, 6), (3, 5, 9), (3, 6, 5), (4, 5, 5),
        (5, 6, 1),
    ]),
    (7, [
        (0, 6, 3), (1, 4, 5), (1, 5, 4), (1, 6, 9), (2, 4, 5), (2, 5, 7), (2, 6, 1),
        (3, 5, 1), (4, 6, 9),
    ]),
    (8, [
        (0, 2, 7), (0, 3, 15), (0, 5, 14), (0, 6, 20), (1, 3, 5), (2, 3, 9), (3, 5, 13),
        (3, 6, 9), (5, 6, 18), (6, 7, 9),
    ]),
    (9, [
        (0, 2, 2), (0, 6, 2), (0, 8, 2), (1, 5, 0), (1, 6, 0), (2, 4, 2), (2, 5, 2),
        (2, 8, 1), (3, 4, 0), (4, 5, 1), (5, 6, 2), (5, 7, 2), (6, 7, 2), (7, 8, 2),
    ]),
    (13, [
        (0, 2, 5), (0, 6, 6), (0, 8, 8), (0, 12, 5), (1, 6, 9), (1, 7, 7), (1, 9, 3),
        (2, 4, 4), (2, 8, 2), (2, 9, 9), (2, 10, 9), (3, 5, 8), (3, 6, 5), (3, 11, 8),
        (3, 12, 0), (4, 11, 0), (5, 6, 9), (5, 8, 4), (6, 11, 5), (7, 12, 0), (8, 11, 9),
        (8, 12, 6),
    ]),
    (13, [
        (0, 2, 2), (0, 3, 16), (0, 7, 14), (1, 7, 15), (1, 8, 0), (1, 9, 2), (1, 11, 18),
        (2, 3, 15), (2, 5, 10), (2, 8, 4), (2, 10, 4), (2, 11, 11), (3, 6, 1), (4, 5, 8),
        (4, 11, 2), (5, 10, 15), (6, 8, 1), (6, 12, 1), (7, 11, 6), (8, 11, 20),
        (9, 11, 20), (9, 12, 20), (10, 12, 10),
    ]),
    (14, [
        (0, 6, 2), (0, 8, 2), (0, 9, 0), (0, 10, 4), (1, 12, 3), (2, 4, 4), (2, 5, 4),
        (2, 9, 2), (2, 11, 3), (3, 5, 2), (3, 12, 3), (4, 8, 0), (5, 6, 5), (5, 7, 1),
        (5, 9, 1), (5, 10, 0), (5, 11, 4), (6, 10, 5), (8, 9, 1), (9, 10, 2), (9, 13, 0),
        (10, 11, 4), (11, 12, 5), (12, 13, 5),
    ]),
    (13, [
        (0, 7, 16), (0, 10, 18), (0, 12, 12), (1, 2, 4), (1, 3, 17), (1, 7, 17),
        (1, 8, 18), (2, 6, 9), (3, 4, 2), (3, 5, 5), (3, 6, 16), (3, 7, 11), (3, 9, 2),
        (4, 6, 16), (4, 8, 15), (4, 10, 10), (4, 11, 7), (4, 12, 9), (6, 12, 6),
        (7, 9, 19), (7, 11, 9), (8, 9, 17), (8, 10, 11), (8, 11, 11), (9, 10, 12),
        (9, 12, 11), (10, 11, 16),
    ]),
    (11, [
        (0, 2, 1), (0, 3, 3), (0, 4, 1), (0, 5, 0), (0, 7, 3), (1, 4, 2), (1, 5, 0),
        (1, 6, 2), (1, 7, 1), (1, 9, 0), (2, 4, 0), (2, 5, 1), (2, 7, 2), (2, 9, 0),
        (2, 10, 2), (3, 6, 3), (3, 7, 0), (3, 10, 3), (4, 5, 1), (4, 9, 2), (5, 7, 3),
        (5, 9, 2), (5, 10, 3), (6, 7, 3), (6, 10, 3), (7, 8, 0), (7, 9, 3), (8, 10, 2),
    ]),
    (10, [
        (0, 1, 0), (0, 2, 5), (0, 5, 5), (0, 7, 0), (0, 8, 5), (0, 9, 5), (1, 4, 4),
        (1, 9, 3), (2, 7, 2), (2, 9, 5), (3, 4, 4), (3, 8, 1), (3, 9, 0), (4, 5, 2),
        (4, 6, 1), (4, 7, 4), (5, 8, 5), (8, 9, 1),
    ]),
    (14, [
        (0, 5, 19), (0, 9, 0), (0, 10, 9), (0, 11, 3), (1, 2, 1), (1, 4, 7), (1, 7, 15),
        (1, 12, 10), (2, 4, 5), (2, 8, 13), (2, 9, 17), (2, 11, 12), (3, 7, 13),
        (3, 9, 2), (3, 13, 12), (4, 5, 20), (4, 9, 12), (5, 6, 14), (5, 9, 16),
        (5, 10, 18), (7, 8, 7), (8, 9, 4), (8, 10, 16), (9, 10, 15), (9, 11, 16),
    ]),
    (16, [
        (0, 3, 6), (0, 10, 9), (0, 14, 8), (1, 3, 1), (1, 5, 6), (1, 9, 2), (1, 15, 9),
        (2, 5, 9), (2, 6, 4), (2, 7, 0), (2, 9, 1), (2, 10, 1), (2, 15, 9), (4, 11, 3),
        (5, 8, 4), (5, 14, 9), (6, 8, 1), (7, 12, 5), (8, 14, 4), (9, 11, 9),
        (9, 12, 1), (10, 12, 6), (10, 14, 0), (11, 14, 0), (12, 13, 6), (12, 14, 0),
        (13, 15, 3), (14, 15, 0),
    ]),
    (14, [
        (0, 7, 18), (0, 8, 4), (1, 2, 0), (1, 4, 4), (1, 5, 0), (1, 6, 11), (1, 11, 9),
        (1, 12, 10), (2, 3, 2), (2, 12, 16), (3, 12, 18), (4, 5, 10), (4, 7, 0),
        (4, 8, 9), (5, 10, 12), (5, 12, 12), (6, 10, 20), (6, 12, 20), (7, 11, 11),
        (8, 11, 15), (8, 13, 1), (9, 12, 12), (10, 13, 8), (12, 13, 16),
    ]),
    (14, [
        (0, 2, 1), (0, 5, 3), (0, 7, 2), (1, 3, 3), (1, 4, 1), (1, 5, 1), (1, 6, 1),
        (1, 11, 0), (2, 8, 0), (2, 9, 0), (2, 10, 2), (2, 12, 3), (2, 13, 1), (3, 4, 1),
        (3, 8, 5), (3, 10, 4), (3, 11, 3), (4, 5, 5), (5, 9, 3), (5, 10, 4), (5, 13, 2),
        (6, 7, 4), (6, 8, 1), (7, 9, 1), (7, 13, 3), (8, 10, 3), (8, 11, 2),
        (10, 13, 1),
    ]),
    (16, [
        (0, 5, 4), (0, 7, 6), (0, 10, 6), (0, 12, 2), (0, 14, 3), (0, 15, 1), (1, 3, 2),
        (1, 5, 9), (2, 4, 3), (2, 6, 4), (2, 8, 3), (2, 11, 5), (2, 14, 2), (3, 5, 9),
        (3, 10, 4), (3, 14, 1), (4, 6, 4), (4, 8, 5), (4, 9, 3), (4, 10, 6), (5, 6, 5),
        (5, 10, 3), (5, 12, 7), (6, 15, 6), (7, 9, 3), (7, 10, 7), (7, 11, 2),
        (7, 15, 7), (8, 10, 8), (8, 11, 6), (8, 15, 7), (9, 11, 3), (9, 13, 1),
        (9, 14, 9), (10, 14, 5), (11, 14, 9), (13, 14, 8),
    ]),
]


def test_per_vertex_starts_of_mixed_parity_match_networkx():
    """Direct calls whose vertices' largest weights differ in parity.

    Each vertex starts at its largest weight rounded up to even. Without
    the rounding the single vertices' duals would lose their common
    parity and the stage would meet an odd slack between S-blossoms.
    """
    rng = random.Random(2209)
    mixed = perfect = 0
    for case in range(200):
        n = 2 * rng.randint(2, 10)
        edges = random_graph(rng, n, rng.choice((0.3, 0.6, 1.0)), 9, shuffled=case % 2 == 1)
        tops = [0] * n
        for u, v, w in edges:
            tops[u], tops[v] = max(tops[u], w), max(tops[v], w)
        if len({t % 2 for t in tops}) < 2:
            continue
        mixed += 1
        assert_same_optimum(n, edges, case)
        perfect += max_weight_perfect_matching(n, adjacency(n, edges)) is not None
    assert mixed >= 150 and perfect >= 50, (mixed, perfect)


def test_odd_slack_between_s_blossoms_is_an_invariant_error():
    """Single duals of unequal parity give an odd S-S slack: an error also under python -O."""
    adj = [[(0, 1, 2)], [(1, 0, 2)]]
    with pytest.raises(InvariantError, match="odd slack 1 between S-blossoms"):
        blossom._run_stages(2, adj, [SINGLE, SINGLE], [2, 1])


def counted_runs(monkeypatch):
    """A list that gets one entry per run of the blossom stages."""
    runs = []
    run_stages = blossom._run_stages

    def counted(*args):
        runs.append(args[0])
        return run_stages(*args)

    monkeypatch.setattr(blossom, "_run_stages", counted)
    return runs


def test_non_perfect_instance_takes_one_run_of_the_stages(monkeypatch):
    """The star K1,3 has an even vertex count and no perfect matching.

    The per-vertex run ends with single vertices, which proves that no
    perfect matching exists whatever the duals, so the matcher returns
    None after that one run; a perfect instance takes one run too.
    """
    runs = counted_runs(monkeypatch)
    star = [(0, 1, 1), (0, 2, 5), (0, 3, 2)]
    assert min_weight_perfect_matching(inst(4, star)) is None
    assert len(runs) == 1
    runs.clear()
    assert min_weight_perfect_matching(inst(4, [(0, 1, 1), (1, 2, 2), (2, 3, 1), (3, 0, 2)]))
    assert len(runs) == 1


def test_tutte_barrier_run_ends_with_live_s_blossoms(monkeypatch):
    """A centre vertex joined to three disjoint triangles, n = 10.

    Removing the centre leaves three odd components, so no perfect
    matching exists. The run stops with each triangle a live top-level
    blossom: the triangles are the S-blossoms and the centre is the
    T-vertex, the Edmonds-Gallai structure that proves it.
    """
    triangles = [(1, 2, 3), (4, 5, 6), (7, 8, 9)]
    edges = [(0, 1, 4), (0, 5, 2), (0, 9, 7)]
    for (a, b, c), w in zip(triangles, (3, 5, 1)):
        edges += [(a, b, w), (b, c, w + 1), (a, c, w + 2)]
    ends = []
    run_stages = blossom._run_stages

    def recorded(*args):
        ends.append(run_stages(*args))
        return ends[-1]

    monkeypatch.setattr(blossom, "_run_stages", recorded)
    assert max_weight_perfect_matching(10, adjacency(10, edges)) is None
    monkeypatch.undo()
    blossomdual, blossomparent, bedges = ends[0]
    assert all(blossomparent[b] is None for b in blossomdual)
    assert {frozenset(v for e in bedges[b] for v in e) for b in blossomdual} == {
        frozenset(t) for t in triangles
    }
    assert_same_optimum(10, edges)


def test_mid_stage_t_blossom_expansions_match_networkx():
    for case, (n, edges) in enumerate(MID_STAGE_EXPANSIONS):
        assert_same_optimum(n, edges, case)
        # the per-vertex run finds a perfect matching on the last six only
        perfect = max_weight_perfect_matching(n, adjacency(n, edges)) is not None
        assert perfect == (case >= 11), case


def networkx_perfect_pairs(inst):
    """The minimum-weight perfect matching networkx gives on reflected weights."""
    ceiling = 1 + max(w for _, _, w in inst.edges)
    mate = networkx_mate(inst.n, [(u, v, ceiling - w) for u, v, w in inst.edges])
    if 2 * len(mate) < inst.n:
        return None
    return tuple(sorted(tuple(sorted(p)) for p in mate))


def models(graphs, count):
    """The auxiliary models that solve builds for the first graphs reaching the model."""
    seen = []
    for g in graphs:
        if len(seen) == count:
            break
        mg = solver.solve_with_model(g)[1]
        if mg is not None:
            seen.append(mg)
    assert len(seen) == count
    return seen


def test_model_instances_match_networkx():
    """Twenty colored draws and four digraph encodings, as solve builds them.

    The matching weighs what networkx's weighs, and it matches the same
    multiset of signatures, which is all that a document depends on.
    """
    colored = models((gen_random_instance(8, 3, 14, 9, seed) for seed in range(2000)), 20)
    directed = models(
        (encode_digraph(*gen_random_digraph(8, 18, 9, seed)) for seed in range(200)), 4
    )
    for mg in colored + directed:
        inst = mg.instance
        ours, theirs = min_weight_perfect_matching(inst).pairs, networkx_perfect_pairs(inst)
        assert theirs is not None
        assert mate_weight(ours, inst.edges) == mate_weight(theirs, inst.edges)
        assert Counter(mg.signature(a, b) for a, b in ours) == Counter(
            mg.signature(a, b) for a, b in theirs
        )


def certificate(monkeypatch, n, edges):
    """The arguments max_weight_perfect_matching hands to verify_optimum."""
    seen = []
    check = blossom.verify_optimum

    def record(*args):
        seen.append(args)
        check(*args)

    monkeypatch.setattr(blossom, "verify_optimum", record)
    max_weight_perfect_matching(n, adjacency(n, edges))
    monkeypatch.undo()
    return seen[0]


def test_tampered_certificate_is_an_invariant_error(monkeypatch):
    edges = random_graph(random.Random(5), 16, 0.4, 9, shuffled=False)
    adj, mate, dualvar, blossomdual, blossomparent, bedges = certificate(monkeypatch, 16, edges)
    blossom.verify_optimum(adj, mate, dualvar, blossomdual, blossomparent, bedges)
    u = next(v for v, m in enumerate(mate) if m != SINGLE)
    lowered = list(dualvar)
    lowered[u] -= 2
    with pytest.raises(InvariantError, match="certificate"):
        blossom.verify_optimum(adj, mate, lowered, blossomdual, blossomparent, bedges)
    i, j, _ = next(rec for recs in adj for rec in recs if mate[rec[0]] != rec[1])
    one_sided = list(mate)
    one_sided[i] = j
    with pytest.raises(InvariantError, match="certificate"):
        blossom.verify_optimum(adj, one_sided, dualvar, blossomdual, blossomparent, bedges)


def test_one_corrupted_vertex_dual_is_an_invariant_error(monkeypatch):
    """With and without a live blossom at the end, one vertex dual moved by
    one doubled unit breaks the certificate.

    The end states are those of the first solver models of
    gen_random_instance(8, 3, 14, 9, seed), the first ending with no live
    blossom and the first ending with one; in the second the corrupted
    vertex lies inside a live blossom, so its slacks carry blossom terms.
    """
    states = []
    check = blossom.verify_optimum

    def record(*args):
        states.append(args)
        check(*args)

    monkeypatch.setattr(blossom, "verify_optimum", record)
    for mg in models((gen_random_instance(8, 3, 14, 9, seed) for seed in range(2000)), 20):
        min_weight_perfect_matching(mg.instance)
    monkeypatch.undo()
    free = next(args for args in states if not args[3])
    live = next(args for args in states if args[3])
    for adj, mate, dualvar, blossomdual, blossomparent, bedges in (free, live):
        blossom.verify_optimum(adj, mate, dualvar, blossomdual, blossomparent, bedges)
        inside = [v for v in range(len(mate)) if blossomparent[v] is not None]
        assert bool(inside) == bool(blossomdual)
        v = inside[0] if inside else 0
        for step, fault in ((-2, "has negative slack"), (2, "has slack")):
            moved = list(dualvar)
            moved[v] += step
            with pytest.raises(InvariantError, match=fault):
                blossom.verify_optimum(adj, mate, moved, blossomdual, blossomparent, bedges)


def test_asymmetric_mate_is_an_invariant_error():
    # vertex 2 claims 0, which is matched to 1; the pair (0, 2) is no edge,
    # so only the symmetry condition can notice
    adj, nothing = adjacency(3, [(0, 1, 2)]), [None] * 3
    blossom.verify_optimum(adj, [1, 0, SINGLE], [2, 2, 0], {}, nothing, nothing)
    with pytest.raises(InvariantError, match="vertex 2 is matched to 0"):
        blossom.verify_optimum(adj, [1, 0, 0], [2, 2, 0], {}, nothing, nothing)


def test_matcher_leaves_no_garbage_cycles():
    """Each call frees its state on return; none waits for the cyclic collector."""
    for seed in (48, 323, 430):
        aux = build_matching_graph(gen_random_instance(10, 3, 16, 9, seed))
        inst = aux.instance
        gc.collect()
        assert min_weight_perfect_matching(inst) is not None
        assert gc.collect() == 0
