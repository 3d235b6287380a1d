"""End-to-end solver: worked instances, accounting, duplication effects."""

import random

import networkx as nx
import pytest
from hypothesis import given, settings

from conftest import mg, multigraphs, walk_addition_violation

from ecpostman import (
    ColoredMultigraph,
    GraphError,
    InvariantError,
    check_pc_euler,
    solve,
    verify_pc_closed_walk,
)
from ecpostman.auxgraph import build_matching_graph
from ecpostman.euler import pc_euler_trail, uncoverable_edge
from ecpostman.graph import contract_walk, has_single_color_vertex, normalize, walk_from_edges
from ecpostman.matching import min_weight_perfect_matching
from ecpostman.oracle import (
    encode_digraph,
    gen_random_digraph,
    gen_random_instance,
    gen_random_trail_instance,
    oracle_solve,
)
from ecpostman.solver import apply_matching


def test_triangle_is_already_optimal(triangle):
    sol = solve(triangle)
    assert sol.optimal
    assert sol.total_weight == 3 and sol.matching_weight == 0
    assert sol.multiplicities == (1, 1, 1)
    assert verify_pc_closed_walk(triangle, sol.walk).ok


def test_single_color_path_is_infeasible(single_color_path):
    sol = solve(single_color_path)
    assert sol.status == "infeasible"
    assert sol.reason == "single-color-vertex"


def test_disconnected_is_infeasible():
    g = mg(4, 3, [(0, 1, 1, 1), (0, 1, 2, 1), (2, 3, 1, 1), (2, 3, 2, 1)])
    assert solve(g).reason == "disconnected"


def test_house_graph_costs_eleven(house):
    sol = solve(house)
    assert sol.optimal and sol.total_weight == 11
    assert sol.matching_weight == 2
    assert sorted(sol.multiplicities) == [1, 1, 1, 2, 2]
    # never pays for the weight-5 edge twice
    assert sol.multiplicities[1] == 1
    rep = verify_pc_closed_walk(house, sol.walk)
    assert rep.ok and rep.weight == 11
    assert oracle_solve(house, 3)[0] == 11


def test_house_multiplicity_totals(house):
    sol = solve(house)
    q = verify_pc_closed_walk(house, sol.walk).traversals
    assert q == sol.multiplicities
    assert sum(c * e.weight for c, e in zip(q, house.edges)) == 11


def test_solver_rejects_empty_graphs():
    with pytest.raises(GraphError):
        solve(ColoredMultigraph(3, 2, []))


def test_feasible_instance_total_equals_graph_weight(bowtie):
    sol = solve(bowtie)
    assert sol.optimal
    assert sol.total_weight == bowtie.total_weight()
    assert sol.matching_weight == 0
    assert all(q == 1 for q in sol.multiplicities)


def test_eulerian_input_needs_no_model(triangle, bowtie, house, monkeypatch):
    parallel = gen_random_trail_instance(5, 3, 12, 9, 0)
    assert not parallel.is_simple()
    assert not normalize(parallel)[1].identity

    def unreachable(*args, **kwargs):
        raise AssertionError("the model path ran on an already-Eulerian input")

    monkeypatch.setattr("ecpostman.solver.build_matching_graph", unreachable)
    monkeypatch.setattr("ecpostman.solver.min_weight_perfect_matching", unreachable)
    for g in (triangle, bowtie, parallel):
        sol = solve(g)
        assert sol.optimal and sol.matching_weight == 0
        assert sol.total_weight == g.total_weight()
        assert sol.multiplicities == (1,) * len(g.edges)
        assert verify_pc_closed_walk(g, sol.walk).ok
    with pytest.raises(AssertionError, match="model path ran"):
        solve(house)


def test_screened_infeasibility_builds_no_model(trapped_triangle, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("the model path ran on a screened-out input")

    for name in ("normalize", "build_matching_graph", "min_weight_perfect_matching"):
        monkeypatch.setattr(f"ecpostman.solver.{name}", unreachable)
    sol = solve(trapped_triangle)
    assert (sol.status, sol.reason) == ("infeasible", "no-perfect-matching")


def test_no_matching_after_the_screen_is_an_invariant_error(house, monkeypatch):
    monkeypatch.setattr("ecpostman.solver.min_weight_perfect_matching", lambda inst: None)
    with pytest.raises(InvariantError, match="no perfect matching although"):
        solve(house)


def test_blossom_verdict_equals_the_screen_verdict(monkeypatch):
    """With the screen bypassed, the blossom alone decides every verdict.

    The corpus is the gen_random_instance(9, 3, 14, 9, seed) draws of
    seeds 0-299 that reach the model (no single-color vertex, not
    already Eulerian; 13 draws, 3 infeasible) and the first 16
    gen_random_digraph(12, 30, 9, seed) encodings without a
    single-color vertex (seeds 0-113, 2 infeasible).
    """
    drawn = [gen_random_instance(9, 3, 14, 9, seed) for seed in range(300)]
    drawn = [
        g for g in drawn if has_single_color_vertex(g) is None and not check_pc_euler(g).feasible
    ]
    encoded = []
    seed = 0
    while len(encoded) < 16:
        g = encode_digraph(*gen_random_digraph(12, 30, 9, seed))
        seed += 1
        if has_single_color_vertex(g) is None:
            encoded.append(g)
    corpus = drawn + encoded
    screened = [uncoverable_edge(g) is None for g in corpus]
    assert not all(screened[: len(drawn)]) and not all(screened[len(drawn) :])
    monkeypatch.setattr("ecpostman.solver.uncoverable_edge", lambda g: None)
    for g, feasible in zip(corpus, screened):
        if feasible:
            assert solve(g).optimal
        else:
            with pytest.raises(InvariantError, match="no perfect matching"):
                solve(g)


def test_eulerian_route_matches_the_model_route():
    for seed in range(20):
        g = gen_random_trail_instance(12, 3, 24, 9, seed)
        gn, nmap = normalize(g)
        aux = build_matching_graph(gn)
        matching = min_weight_perfect_matching(aux.as_matching_instance())
        assert matching.weight == 0
        assert all(aux.edge_by_pair[p].artificial for p in matching.pairs)
        assert solve(g).walk == contract_walk(nmap, pc_euler_trail(gn))


def test_eulerian_input_with_free_edges_is_traversed_once():
    # A minimum matching may pick a free repair walk here (multiplicity 3 on
    # the last edge); the input's own trail is as cheap and uses each edge once.
    base = gen_random_trail_instance(8, 3, 14, 3, 6)
    rng = random.Random(6)
    g = ColoredMultigraph(
        base.n, base.k, [(e.u, e.v, e.color, rng.choice([0, 0, 1])) for e in base.edges]
    )
    assert check_pc_euler(g).feasible and g.edges[-1].weight == 0
    sol = solve(g)
    assert sol.optimal and sol.total_weight == g.total_weight() == 4
    assert sol.multiplicities == (1,) * len(g.edges)


def test_all_artificial_matching_keeps_graph(triangle):
    gn, _ = normalize(triangle)
    aux = build_matching_graph(gn)
    matching = min_weight_perfect_matching(aux.as_matching_instance())
    g2, origin = apply_matching(gn, aux, matching.pairs)
    assert len(g2.edges) == len(gn.edges)
    assert origin == tuple(range(len(gn.edges)))


def test_apply_matching_duplicates_witness_edges(house):
    gn, _ = normalize(house)
    aux = build_matching_graph(gn)
    matching = min_weight_perfect_matching(aux.as_matching_instance())
    g2, origin = apply_matching(gn, aux, matching.pairs)
    added = len(g2.edges) - len(gn.edges)
    expected = sum(
        len(aux.witnesses[aux.edge_by_pair[p].signature])
        for p in matching.pairs
        if not aux.edge_by_pair[p].artificial
    )
    assert added == expected
    added_weight = sum(g2.edges[i].weight for i in range(len(gn.edges), len(g2.edges)))
    assert added_weight == matching.weight
    assert check_pc_euler(g2).feasible


def test_duplication_degree_effects(house):
    gn, _ = normalize(house)
    aux = build_matching_graph(gn)
    matching = min_weight_perfect_matching(aux.as_matching_instance())
    current = gn
    for pair in sorted(matching.pairs):
        edge = aux.edge_by_pair[pair]
        if edge.artificial:
            continue
        after, _ = apply_matching(current, aux, (pair,))
        witness = walk_from_edges(gn, edge.signature[0], aux.witnesses[edge.signature])
        assert walk_addition_violation(current, after, witness) is None
        current = after


def test_lost_trail_feasibility_is_an_invariant_error(house, monkeypatch):
    def no_duplication(g_norm, mg, pairs):
        return g_norm, tuple(range(len(g_norm.edges)))

    monkeypatch.setattr("ecpostman.solver.apply_matching", no_duplication)
    with pytest.raises(InvariantError, match="odd-degree at vertex 1"):
        solve(house)


def test_multiplicities_demand_coverage(triangle):
    sol = solve(triangle)
    partial = sol.walk
    smaller = mg(3, 3, [(0, 1, 1, 1), (1, 2, 2, 1), (2, 0, 3, 1), (0, 1, 2, 1)])
    assert not verify_pc_closed_walk(smaller, partial).ok


@given(multigraphs(connected=True, max_m=6))
@settings(max_examples=60, deadline=None)
def test_weight_accounting_and_oracle_agreement(g):
    sol = solve(g)
    if sol.optimal:
        assert sol.total_weight == g.total_weight() + sol.matching_weight
        assert sol.total_weight == sum(
            q * e.weight for q, e in zip(sol.multiplicities, g.edges)
        )
        assert all(q >= 1 for q in sol.multiplicities)
        bound = max(3, max(sol.multiplicities))
        hit = oracle_solve(g, bound)
        assert hit is not None and hit[0] == sol.total_weight
    else:
        assert oracle_solve(g, 3) is None


def test_parallel_heavy_instances_agree_with_oracle():
    for seed in range(40):
        g = gen_random_instance(2 + seed % 3, 2 + seed % 2, 5 + seed % 3, 3, seed=900 + seed)
        sol = solve(g)
        if sol.optimal:
            bound = max(3, max(sol.multiplicities))
            hit = oracle_solve(g, bound)
            assert hit is not None and hit[0] == sol.total_weight
            assert verify_pc_closed_walk(g, sol.walk).ok
        else:
            assert oracle_solve(g, 3) is None


@pytest.fixture(scope="module")
def beyond_oracle():
    """Fifteen solved 10-vertex, 16-edge, 3-color instances.

    With m=16 the oracle's 3**m candidates exceed its limit, so these
    tests check properties of the optimum instead of its value. Most
    draws of this shape have a single-color vertex; they are skipped so
    that every case reaches the matching stage.
    """
    cases = []
    seed = 0
    while len(cases) < 15:
        g = gen_random_instance(10, 3, 16, 9, seed)
        if has_single_color_vertex(g) is None:
            cases.append((g, solve(g)))
        seed += 1
    return cases


def test_scaling_weights_scales_the_optimum(beyond_oracle):
    assert any(sol.optimal for _, sol in beyond_oracle)
    for i, (g, sol) in enumerate(beyond_oracle):
        c = 2 + i % 3
        scaled = solve(
            ColoredMultigraph(g.n, g.k, [(e.u, e.v, e.color, c * e.weight) for e in g.edges])
        )
        assert (scaled.status, scaled.reason) == (sol.status, sol.reason)
        assert scaled.total_weight == c * sol.total_weight
        assert scaled.matching_weight == c * sol.matching_weight


def test_relabeling_keeps_the_optimum(beyond_oracle):
    rng = random.Random(16)
    for g, sol in beyond_oracle:
        color = [0] + rng.sample(range(1, g.k + 1), g.k)
        rows = [(e.u, e.v, color[e.color], e.weight) for e in g.edges]
        rng.shuffle(rows)
        relabeled = solve(ColoredMultigraph(g.n, g.k, rows))
        assert (relabeled.status, relabeled.reason) == (sol.status, sol.reason)
        assert relabeled.total_weight == sol.total_weight


def test_parallel_copy_never_helps(beyond_oracle):
    for i, (g, sol) in enumerate(beyond_oracle):
        e = g.edges[(5 * i) % len(g.edges)]
        rows = [(f.u, f.v, f.color, f.weight) for f in g.edges] + [(e.u, e.v, e.color, e.weight)]
        copied = solve(ColoredMultigraph(g.n, g.k, rows))
        if copied.optimal:
            # a walk covering the copy covers g at the same weight
            assert sol.optimal and copied.total_weight >= sol.total_weight


def _directed_postman_flow(n, arcs):
    """Directed postman optimum by min-cost flow on extra arc uses, or None."""
    d = nx.MultiDiGraph()
    for v in range(n):
        d.add_node(v, demand=0)
    for u, v, w in arcs:
        d.add_edge(u, v, weight=w)
        d.nodes[u]["demand"] += 1
        d.nodes[v]["demand"] -= 1
    if not nx.is_weakly_connected(d):
        return None
    try:
        extra, _ = nx.network_simplex(d)
    except nx.NetworkXUnfeasible:
        return None
    return sum(w for _, _, w in arcs) + extra


def test_digraph_encoding_gives_the_directed_optimum():
    """Eight 12-vertex, 30-arc digraphs, far past the brute-force oracle.

    Only digraphs whose every vertex has in- and out-arcs are kept (the
    first eight of seeds 0-73), so that every solve reaches the matching
    stage instead of stopping at a single-color vertex.
    """
    verdicts = []
    seed = 0
    while len(verdicts) < 8:
        n, arcs = gen_random_digraph(12, 30, 9, seed)
        seed += 1
        g = encode_digraph(n, arcs)
        if has_single_color_vertex(g) is not None:
            continue
        sol = solve(g)
        expected = _directed_postman_flow(n, arcs)
        assert sol.optimal == (expected is not None)
        if sol.optimal:
            assert sol.total_weight == expected
        verdicts.append(sol.optimal)
    assert any(verdicts) and not all(verdicts)
