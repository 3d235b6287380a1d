"""Minimum-weight perfect matching against the brute-force oracle and networkx.

The blossom port must return networkx's matching itself, not merely one
of the same weight: documents depend on which optimum is chosen.
"""

import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecpostman import GraphError, InvariantError
from ecpostman import blossom, solver
from ecpostman.blossom import SINGLE, max_weight_matching
from ecpostman.graph import has_single_color_vertex
from ecpostman.matching import MatchingInstance, min_weight_perfect_matching
from ecpostman.oracle import (
    brute_force_matching,
    encode_digraph,
    gen_random_digraph,
    gen_random_instance,
)


def inst(n, edges):
    return MatchingInstance.from_edges(n, edges)


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


def networkx_mate(n, edges):
    """networkx's matching of the graph built from vertices 0..n-1 and edges, in order."""
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    for u, v, w in edges:
        graph.add_edge(u, v, weight=w)
    return {frozenset(p) for p in nx.max_weight_matching(graph, maxcardinality=True)}


def ported_mate(n, edges):
    mate = max_weight_matching(n, edges)
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


def test_mate_equals_networkx_on_a_fixed_corpus():
    """Sparse to complete graphs, n <= 40, mostly tie-heavy weights.

    Half the graphs list their edges sorted, as MatchingInstance does; the
    other half shuffle them and flip endpoints, since the port must follow
    networkx's neighbour order, which is edge insertion order.
    """
    rng = random.Random(20260)
    for case in range(240):
        n = rng.randint(1, 40)
        density = rng.choice((0.05, 0.15, 0.4, 1.0))
        max_w = rng.choice((1, 2, 2, 2, 9, 1000))
        edges = random_graph(rng, n, density, max_w, shuffled=case % 2 == 1)
        assert ported_mate(n, edges) == networkx_mate(n, edges), (case, n, len(edges))


@given(st.integers(1, 40), st.data())
@settings(max_examples=100, deadline=None)
def test_mate_equals_networkx(n, data):
    all_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = data.draw(st.lists(st.sampled_from(all_pairs), unique=True)) if all_pairs else []
    edges = [(u, v, data.draw(st.integers(0, 2))) for u, v in chosen]
    assert ported_mate(n, edges) == networkx_mate(n, edges)


def networkx_perfect_pairs(inst):
    """The minimum-weight perfect matching networkx gives on reflected weights."""
    ceiling = 1 + max(w for _, _, w in inst.edges)
    mate = networkx_mate(inst.n, [(u, v, ceiling - w) for u, v, w in inst.edges])
    if 2 * len(mate) < inst.n:
        return None
    return tuple(sorted(tuple(sorted(p)) for p in mate))


def model_instances(graphs, count, monkeypatch):
    """The matching instances that solve builds for the first graphs reaching the model."""
    seen = []

    def record(inst):
        seen.append(inst)
        return min_weight_perfect_matching(inst)

    monkeypatch.setattr(solver, "min_weight_perfect_matching", record)
    for g in graphs:
        if len(seen) == count:
            break
        if has_single_color_vertex(g) is None:
            solver.solve(g)
    assert len(seen) == count
    return seen


def test_model_instances_match_networkx(monkeypatch):
    """Twenty colored draws and four digraph encodings, as solve builds them."""
    colored = model_instances(
        (gen_random_instance(8, 3, 14, 9, seed) for seed in range(2000)), 20, monkeypatch
    )
    directed = model_instances(
        (encode_digraph(*gen_random_digraph(8, 18, 9, seed)) for seed in range(200)),
        4,
        monkeypatch,
    )
    for inst in colored + directed:
        ours = min_weight_perfect_matching(inst)
        assert ours is not None and ours.pairs == networkx_perfect_pairs(inst)


def certificate(monkeypatch, n, edges):
    """The arguments max_weight_matching hands to verify_optimum."""
    seen = []
    check = blossom.verify_optimum

    def record(*args):
        seen.append(args)
        check(*args)

    monkeypatch.setattr(blossom, "verify_optimum", record)
    max_weight_matching(n, edges)
    monkeypatch.undo()
    return seen[0]


def test_tampered_certificate_is_an_invariant_error(monkeypatch):
    edges = random_graph(random.Random(5), 16, 0.4, 9, shuffled=False)
    edges_, mate, dualvar, blossomdual, blossomparent, bedges = certificate(
        monkeypatch, 16, edges
    )
    blossom.verify_optimum(edges_, mate, dualvar, blossomdual, blossomparent, bedges)
    u = next(v for v, m in enumerate(mate) if m != SINGLE)
    lowered = list(dualvar)
    lowered[u] -= 2
    with pytest.raises(InvariantError, match="certificate"):
        blossom.verify_optimum(edges_, mate, lowered, blossomdual, blossomparent, bedges)
    i, j, _ = next(e for e in edges_ if mate[e[0]] != e[1])
    one_sided = list(mate)
    one_sided[i] = j
    with pytest.raises(InvariantError, match="certificate"):
        blossom.verify_optimum(edges_, one_sided, dualvar, blossomdual, blossomparent, bedges)
