"""Dense assignment on bipartite models, against brute force and the blossom.

``assignment.min_cost_assignment`` is checked on small matrices against
every permutation, forbidden pairs included, and its certificate check
against tampered end states. On the models, a bipartite one (no
artificial edge or color-less vertex, no class paired with itself, a
2-colorable class graph, equal sides) is matched by the assignment and
every other model by the blossom; wherever the assignment runs, the
blossom on the same model's ``instance`` finds the same weight and the
same multiset of matched signatures, which is all that a document
depends on.
"""

import itertools
import random
from collections import Counter

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import BENCHMARK_DIR, hamiltonian_digraph

from ecpostman import ColoredMultigraph, GraphError, InvariantError, assignment, solve
from ecpostman.assignment import min_cost_assignment, verify_assignment
from ecpostman.auxgraph import build_matching_graph
from ecpostman.euler import uncoverable_edge
from ecpostman.matching import DenseAssignment, min_weight_perfect_matching
from ecpostman.oracle import encode_digraph, gen_random_instance
from ecpostman.solver import solve_with_model


def brute_force(rows, forbidden):
    """The least cost of a perfect assignment of finite entries, or None."""
    costs = [
        sum(row[j] for row, j in zip(rows, perm))
        for perm in itertools.permutations(range(len(rows)))
        if all(row[j] != forbidden for row, j in zip(rows, perm))
    ]
    return min(costs, default=None)


def random_matrix(rng, n, max_cost, holes):
    """n x n costs in 1..max_cost, each entry forbidden with chance ``holes``;
    a few rows repeat an earlier row's list, as a model's class rows do."""
    forbidden = n * max_cost + 1
    rows = []
    for _ in range(n):
        if rows and rng.random() < 0.3:
            rows.append(rng.choice(rows))
        else:
            rows.append([forbidden if rng.random() < holes else rng.randint(1, max_cost)
                         for _ in range(n)])
    return rows, forbidden


def test_assignment_equals_brute_force_on_small_matrices():
    rng = random.Random(33)
    verdicts = Counter()
    for _ in range(600):
        n = rng.randint(1, 6)
        rows, forbidden = random_matrix(rng, n, rng.choice((1, 3, 50)), rng.choice((0, 0.3, 0.6)))
        before = [list(row) for row in rows]
        found = min_cost_assignment(rows, forbidden)
        best = brute_force(rows, forbidden)
        assert rows == before  # read, not changed
        verdicts[found is None] += 1
        if best is None:
            assert found is None
        else:
            assert sorted(found) == list(range(n))
            assert sum(row[j] for row, j in zip(rows, found)) == best
    assert verdicts[True] > 50 and verdicts[False] > 300


def test_empty_matrix_is_an_empty_assignment():
    assert min_cost_assignment([], 1) == []
    assert min_weight_perfect_matching(DenseAssignment([], [], [], 1, 1)) == ((), 0)


def test_only_a_forbidden_completion_is_none():
    """Every row has finite entries, but column 2 has none, so every
    perfect assignment takes a forbidden pair. With finite entries added,
    the augmenting path must move a greedily matched row off its tight
    column."""
    f = 7
    rows = [[1, 2, f], [1, 1, f], [f, 1, f]]
    assert min_cost_assignment(rows, f) is None
    assert min_weight_perfect_matching(DenseAssignment([0, 1, 2], [3, 4, 5], rows, f, 1)) is None
    rows[2][2] = 2
    assert min_cost_assignment(rows, f) == [0, 1, 2]
    rows[1] = [1, 1, 2]
    rows[2] = [f, 1, f]
    assert min_cost_assignment(rows, f) == [0, 2, 1]


def test_pairs_and_weight_of_a_dense_instance():
    """Rows are the left vertices and columns the right ones, in any index
    order; the pairs come sorted with the smaller vertex first."""
    f = 100
    inst = DenseAssignment([5, 0, 3], [4, 1, 2], [[9, 3, f], [3, 9, 3], [f, 2, 9]], f, 3)
    matched = min_weight_perfect_matching(inst)
    assert matched.pairs == ((0, 2), (1, 3), (4, 5))
    assert matched.weight == (9 + 3 + 2) // 3
    assert inst.n == 6
    assert inst.edges == (
        (0, 1, 9), (0, 2, 3), (0, 4, 3), (1, 3, 2), (1, 5, 3), (2, 3, 9), (4, 5, 9)
    )


def end_state(monkeypatch, rows, forbidden):
    """The arguments min_cost_assignment hands to verify_assignment."""
    seen = []
    check = assignment.verify_assignment

    def record(*args):
        seen.append(args)
        check(*args)

    monkeypatch.setattr(assignment, "verify_assignment", record)
    min_cost_assignment(rows, forbidden)
    monkeypatch.undo()
    [state] = seen
    return state


def test_tampered_certificate_is_an_invariant_error(monkeypatch):
    rng = random.Random(7)
    rows, forbidden = random_matrix(rng, 8, 20, 0.2)
    rows, forbidden, col4row, u, v = end_state(monkeypatch, rows, forbidden)
    verify_assignment(rows, forbidden, col4row, u, v)
    i = 0
    j = col4row[i]
    slack = min(c - u[i] - vj for k, (c, vj) in enumerate(zip(rows[i], v))
                if c != forbidden and k != j)
    # raising u[i] and lowering v[j] alike keeps (i, j) tight and drives
    # another finite entry of row i below zero
    raised, lowered = list(u), list(v)
    raised[i] += slack + 1
    lowered[j] -= slack + 1
    with pytest.raises(InvariantError, match="row 0 has a negative reduced cost"):
        verify_assignment(rows, forbidden, col4row, raised, lowered)
    # lowering u[i] keeps every reduced cost non-negative but (i, j) slack
    loose = list(u)
    loose[i] -= 1
    with pytest.raises(InvariantError, match=r"matched entry \(0, .*\) has a non-zero"):
        verify_assignment(rows, forbidden, col4row, loose, v)
    twice = list(col4row)
    twice[1] = twice[0]
    with pytest.raises(InvariantError, match="distinct columns"):
        verify_assignment(rows, forbidden, twice, u, v)


def test_a_matched_forbidden_pair_is_an_invariant_error():
    f = 5
    rows = [[f, 1], [1, 1]]
    # duals that make every entry tight, the forbidden ones included
    with pytest.raises(InvariantError, match="row 0 is matched along a forbidden pair"):
        verify_assignment(rows, f, [0, 1], [f, 1], [0, 0])


def takes_the_assignment(mg) -> bool:
    """The builder's rule, read off the edge view with networkx: every
    vertex is a slot and every edge a walk edge between two classes, the
    graph 2-colors, and putting each component's lowest vertex on the
    rows' side gives as many rows as columns."""
    if any(sv.color is None for sv in mg.vertices):
        return False
    if any(e.artificial or e.signature[:2] == e.signature[2:] for e in mg.edges):
        return False
    graph = nx.Graph()
    graph.add_nodes_from(range(len(mg.vertices)))
    graph.add_edges_from((e.a, e.b) for e in mg.edges)
    if not nx.is_bipartite(graph):
        return False
    columns = 0
    for part in nx.connected_components(graph):
        color = nx.bipartite.color(graph.subgraph(part))
        columns += sum(c != color[min(part)] for c in color.values())
    return 2 * columns == len(mg.vertices)


def assert_same_optimum(mg) -> None:
    """The assignment and the blossom on one bipartite model: same verdict,
    weight and multiset of matched signatures, and every pair an edge."""
    assert mg.assignment is not None
    ours = min_weight_perfect_matching(mg.assignment)
    theirs = min_weight_perfect_matching(mg.instance)
    assert (ours is None) == (theirs is None)
    if ours is None:
        return
    assert ours.weight == theirs.weight
    assert Counter(mg.signature(*p) for p in ours.pairs) == Counter(
        mg.signature(*p) for p in theirs.pairs
    )
    assert all(a < b and (a, b) in mg.edge_by_pair for a, b in ours.pairs)
    assert sorted(v for p in ours.pairs for v in p) == list(range(len(mg.vertices)))


def test_corpus_paths_and_optima(benchmark_corpus):
    """All 339 ``directed`` corpus models take the assignment and none of
    the 297 ``colored`` ones; the assignment's optimum is the blossom's.
    The solve leaves the blossom's adjacency unwritten on a bipartite
    model, and the edge views of both problems agree."""
    taken = Counter()
    for index, g in enumerate(benchmark_corpus):
        workload = ("colored", "directed", "eulerian")[index % 360 // 150]
        mg = solve_with_model(g)[1]
        if mg is None:
            continue
        dense = mg.assignment is not None
        assert dense == takes_the_assignment(mg)
        taken[workload, dense] += 1
        if dense:
            assert "instance" not in vars(mg)
            assert_same_optimum(mg)
            assert mg.assignment.edges == mg.instance.edges
    assert taken == {("directed", True): 339, ("colored", False): 297}


@pytest.mark.parametrize("n, m, vertices", [(100, 300, 142), (200, 600, 288)])
def test_large_digraphs_match_the_blossom(n, m, vertices):
    mg = build_matching_graph(encode_digraph(n, hamiltonian_digraph(n, m)))
    assert len(mg.vertices) == vertices
    assert_same_optimum(mg)


@given(
    n=st.integers(3, 9),
    extra=st.integers(1, 7),
    seed=st.integers(0, 10**6),
)
@settings(max_examples=150, deadline=None)
def test_two_color_draws_take_their_path(n, extra, seed):
    """A two-colored draw is bipartite only when its class graph is: an
    odd alternating walk, or a class whose walk edges return to itself,
    sends it to the blossom."""
    try:
        g = gen_random_instance(n, 2, n + extra, 9, seed, two_colors=True)
    except GraphError:
        return  # no draw gave every vertex two colors
    mg = build_matching_graph(g)
    assert (mg.assignment is not None) == takes_the_assignment(mg)
    if mg.assignment is not None:
        assert_same_optimum(mg)


def test_two_color_draws_take_both_paths():
    """gen_random_instance(8, 2, 12, 9, seed, two_colors=True), seeds
    0-199: 9 models take the assignment (8 solvable), 27 pair a class
    with itself, 36 more have an odd cycle of classes, and 128 have
    unequal sides (all unsolvable, most with no walk edge at all)."""
    paths = Counter()
    for seed in range(200):
        mg = build_matching_graph(gen_random_instance(8, 2, 12, 9, seed, two_colors=True))
        assert (mg.assignment is not None) == takes_the_assignment(mg)
        if mg.assignment is not None:
            assert_same_optimum(mg)
            paths["assignment", min_weight_perfect_matching(mg.assignment) is not None] += 1
        elif any(e.signature[:2] == e.signature[2:] for e in mg.edges):
            paths["self"] += 1
        elif not nx.is_bipartite(nx.Graph([(e.a, e.b) for e in mg.edges])):
            paths["odd"] += 1
        else:
            assert min_weight_perfect_matching(mg.instance) is None
            paths["sides"] += 1
    assert paths == {("assignment", True): 8, ("assignment", False): 1, "self": 27, "odd": 36,
                     "sides": 128}


def test_assignment_verdict_equals_the_screen_verdict(monkeypatch):
    """The first 150 seed-1 ``directed`` inputs: the screen rejects exactly
    the one-in-four glued ones (37), and with it bypassed, the assignment
    alone decides each verdict alike. Each glued model has forbidden
    pairs, between the halves."""
    monkeypatch.syspath_prepend(str(BENCHMARK_DIR))
    import workloads

    inputs = [
        (index % 4 == 3, ColoredMultigraph(inst.n, inst.k, inst.edges))
        for index, inst in enumerate(workloads.corpus("directed", 1, 150))
    ]
    assert [uncoverable_edge(g) is None for _, g in inputs] == [not glued for glued, _ in inputs]
    verdicts = []
    check = min_cost_assignment

    def record(rows, forbidden):
        found = check(rows, forbidden)
        verdicts.append((found, any(forbidden in row for row in rows)))
        return found

    monkeypatch.setattr("ecpostman.matching.min_cost_assignment", record)
    monkeypatch.setattr("ecpostman.solver.uncoverable_edge", lambda g, numbering: None)
    for glued, g in inputs:
        if glued:
            with pytest.raises(InvariantError, match="no perfect matching although"):
                solve(g)
            assert verdicts[-1][0] is None and verdicts[-1][1]
        else:
            assert solve(g).optimal
            assert verdicts[-1][0] is not None
    assert len(verdicts) == 150
