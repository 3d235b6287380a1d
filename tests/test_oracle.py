"""Brute-force oracles, digraph encoding, instance generators."""

import pytest

from conftest import mg

from ecpostman import GraphError, check_pc_euler, solve
from ecpostman.graph import is_connected
from ecpostman.oracle import (
    directed_cpp_brute_force,
    encode_digraph,
    enumerate_pc_walks,
    gen_random_digraph,
    gen_random_instance,
    gen_random_trail_instance,
    has_single_color_vertex,
    oracle_solve,
)


def test_oracle_triangle(triangle):
    hit = oracle_solve(triangle, 3)
    assert hit == (3, (1, 1, 1))


def test_oracle_house(house):
    weight, q = oracle_solve(house, 3)
    assert weight == 11
    assert sorted(q) == [1, 1, 1, 2, 2] and q[1] == 1


def test_oracle_single_color_infeasible(single_color_path):
    for bound in (1, 2, 3):
        assert oracle_solve(single_color_path, bound) is None


def test_oracle_guards():
    g = mg(2, 2, [(0, 1, 1, 1), (0, 1, 2, 1)])
    with pytest.raises(GraphError):
        oracle_solve(g, 0)
    with pytest.raises(GraphError):
        oracle_solve(g, 10, max_candidates=5)


def test_enumerate_triangle_values(triangle):
    assert enumerate_pc_walks(triangle, 0, 1, 2, 2) == 2
    assert enumerate_pc_walks(triangle, 0, 1, 0, 3) == 3
    assert enumerate_pc_walks(triangle, 0, 5, 1, 1) is None


def test_enumerate_disconnected_absent():
    g = mg(6, 3, [(0, 1, 1, 1), (1, 2, 2, 1), (2, 0, 3, 1), (3, 4, 1, 1), (4, 5, 2, 1), (5, 3, 3, 1)])
    assert enumerate_pc_walks(g, 0, 1, 4, 2) is None


def test_enumerate_explosion_guard(triangle):
    from ecpostman.oracle import pc_walk_minima

    with pytest.raises(GraphError):
        pc_walk_minima(triangle, 0, 1, max_expansions=1)


def test_encode_directed_triangle():
    n, arcs = 3, ((0, 1, 1), (1, 2, 1), (2, 0, 1))
    enc = encode_digraph(n, arcs)
    assert enc.n == 6 and enc.k == 2 and len(enc.edges) == 6
    sol = solve(enc)
    assert sol.optimal and sol.total_weight == 3
    assert directed_cpp_brute_force(n, arcs, 3) == 3


def test_encode_two_cycle():
    n, arcs = 2, ((0, 1, 1), (1, 0, 1))
    sol = solve(encode_digraph(n, arcs))
    assert sol.optimal and sol.total_weight == 2
    assert directed_cpp_brute_force(n, arcs, 3) == 2


def test_encode_single_arc_infeasible():
    n, arcs = 2, ((0, 1, 1),)
    sol = solve(encode_digraph(n, arcs))
    assert sol.status == "infeasible"
    assert directed_cpp_brute_force(n, arcs, 3) is None


def test_encoded_weight_lives_on_color_one():
    enc = encode_digraph(2, ((0, 1, 7),))
    assert enc.edges[0].color == 1 and enc.edges[0].weight == 7
    assert enc.edges[1].color == 2 and enc.edges[1].weight == 0


def test_gen_random_instance_deterministic_and_connected():
    a = gen_random_instance(4, 3, 6, 3, seed=1)
    b = gen_random_instance(4, 3, 6, 3, seed=1)
    assert [(e.u, e.v, e.color, e.weight) for e in a.edges] == [
        (e.u, e.v, e.color, e.weight) for e in b.edges
    ]
    assert is_connected(a)
    c = gen_random_instance(4, 3, 6, 3, seed=2)
    assert [(e.u, e.v) for e in a.edges] != [(e.u, e.v) for e in c.edges]


def test_gen_two_colors_redraws_until_every_vertex_sees_two():
    rows = lambda g: [(e.u, e.v, e.color, e.weight) for e in g.edges]
    redrawn = 0
    for seed in range(60):
        plain = gen_random_instance(10, 3, 16, 9, seed)
        two = gen_random_instance(10, 3, 16, 9, seed, two_colors=True)
        assert rows(gen_random_instance(10, 3, 16, 9, seed, two_colors=False)) == rows(plain)
        assert is_connected(two) and has_single_color_vertex(two) is None
        if has_single_color_vertex(plain) is None:
            assert rows(two) == rows(plain)  # its first draw already passed
        else:
            redrawn += 1
    assert redrawn == 58
    with pytest.raises(GraphError, match="two colors at every vertex"):
        gen_random_instance(3, 1, 3, 3, seed=0, two_colors=True)


def test_gen_rejects_impossible_parameters():
    with pytest.raises(GraphError):
        gen_random_instance(1, 3, 1, 3, seed=0)
    with pytest.raises(GraphError):
        gen_random_instance(5, 3, 2, 3, seed=0)  # m < n - 1
    with pytest.raises(GraphError):
        gen_random_instance(3, 0, 3, 3, seed=0)


def test_gen_trail_instances_feasible_by_construction():
    for seed in range(50):
        g = gen_random_trail_instance(4, 3, 7, 3, seed=seed)
        assert check_pc_euler(g).feasible


def test_gen_digraph_no_isolated_vertices():
    n, arcs = gen_random_digraph(4, 5, 3, seed=9)
    touched = {u for u, _, _ in arcs} | {v for _, v, _ in arcs}
    assert touched == set(range(n))
    again = gen_random_digraph(4, 5, 3, seed=9)
    assert again == (n, arcs)


def test_directed_oracle_requires_arcs():
    with pytest.raises(GraphError):
        directed_cpp_brute_force(3, (), 3)
