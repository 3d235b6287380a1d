"""End-to-end solver: worked instances, accounting, duplication effects."""

import random

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
from ecpostman.graph import has_single_color_vertex, normalize
from ecpostman.matching import min_weight_perfect_matching
from ecpostman.oracle import gen_random_instance, oracle_solve
from ecpostman.pcwalks import ShortestWalkFinder
from ecpostman.solver import apply_matching


def test_triangle_is_already_optimal(triangle):
    sol = solve(triangle)
    assert sol.optimal
    assert sol.total_weight == 3 and sol.matching_weight == 0
    assert sol.multiplicities == (1, 1, 1)
    assert verify_pc_closed_walk(triangle, sol.walk, True).ok


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
    rep = verify_pc_closed_walk(house, sol.walk, True)
    assert rep.ok and rep.weight == 11
    assert oracle_solve(house, 3)[0] == 11


def test_house_multiplicity_totals(house):
    sol = solve(house)
    q = verify_pc_closed_walk(house, sol.walk, True).traversals
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


def test_all_artificial_matching_keeps_graph(triangle):
    gn, _ = normalize(triangle)
    aux = build_matching_graph(gn)
    matching = min_weight_perfect_matching(aux.as_matching_instance())
    g2, origin = apply_matching(gn, aux, matching.pairs)
    assert len(g2.edges) == len(gn.edges)
    assert origin == tuple(range(len(gn.edges)))


def test_apply_matching_duplicates_witness_edges(house):
    gn, _ = normalize(house)
    finder = ShortestWalkFinder(gn)
    aux = build_matching_graph(gn, finder)
    matching = min_weight_perfect_matching(aux.as_matching_instance())
    g2, origin = apply_matching(gn, aux, matching.pairs)
    added = len(g2.edges) - len(gn.edges)
    expected = sum(
        aux.witnesses[aux.edge_by_pair[p].signature].num_edges
        for p in matching.pairs
        if not aux.edge_by_pair[p].artificial
    )
    assert added == expected
    added_weight = sum(g2.edges[i].weight for i in range(len(gn.edges), len(g2.edges)))
    assert added_weight == matching.weight
    assert check_pc_euler(g2).feasible


def test_duplication_degree_effects(house):
    gn, _ = normalize(house)
    finder = ShortestWalkFinder(gn)
    aux = build_matching_graph(gn, finder)
    matching = min_weight_perfect_matching(aux.as_matching_instance())
    current = gn
    for pair in sorted(matching.pairs):
        edge = aux.edge_by_pair[pair]
        if edge.artificial:
            continue
        after, _ = apply_matching(current, aux, (pair,))
        witness = aux.witnesses[edge.signature]
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
    assert not verify_pc_closed_walk(smaller, partial, True).ok


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
            assert verify_pc_closed_walk(g, sol.walk, True).ok
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
