"""Core model: degree profiles and predicates; the reference normalization
and contraction (``oracle``)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_same_graph, mg, multigraphs, rows_of

from ecpostman import ColoredMultigraph, Edge, GraphError, InvariantError, PCWalk
from ecpostman.graph import is_connected
from ecpostman.oracle import (
    color_degrees,
    contract_walk,
    end_pair,
    has_single_color_vertex,
    is_simple,
    normalize,
    other_end,
    walk_from_edges,
)


def test_rejects_loops_and_bad_colors():
    with pytest.raises(GraphError):
        mg(2, 1, [(0, 0, 1, 1)])
    with pytest.raises(GraphError):
        mg(2, 1, [(0, 1, 2, 1)])
    with pytest.raises(GraphError):
        mg(2, 1, [(0, 1, 1, -1)])
    with pytest.raises(GraphError):
        mg(2, 1, [(0, 2, 1, 1)])
    with pytest.raises(GraphError, match="edge 0"):
        mg(2, 1, [(0, 1, 1, 0.5)])
    with pytest.raises(GraphError, match="edge 0"):
        mg(2, 1, [(0, 1, 1, True)])


@pytest.mark.parametrize(
    "row,message",
    [
        ((0, 3, 1, 1), "edge 1: endpoint out of range"),
        ((-1, 1, 1, 1), "edge 1: endpoint out of range"),
        ((1, 1, 1, 1), "edge 1: loops are not allowed"),
        ((0, 1, 3, 1), "edge 1: color 3 not in 1..2"),
        ((0, 1, 0, 1), "edge 1: color 0 not in 1..2"),
        ((0, 1, 0.5, 1), "edge 1: color 0.5 not in 1..2"),
        ((0, 1, 1, 0.5), "edge 1: weight 0.5 is not an integer"),
        ((0, 1, 1, 2.0), "edge 1: weight 2.0 is not an integer"),
        ((0, 1, 1, True), "edge 1: weight True is not an integer"),
        ((0, 1, 1, -1), "edge 1: negative weight"),
        # several faults in one row: the first in the order above is named
        ((0, 3, 9, -1), "edge 1: endpoint out of range"),
        ((2, 2, 9, 0.5), "edge 1: loops are not allowed"),
        ((0, 1, 9, True), "edge 1: color 9 not in 1..2"),
        ((0, 1, 1, -1.5), "edge 1: weight -1.5 is not an integer"),
    ],
)
def test_constructor_names_the_first_fault_of_a_row(row, message):
    with pytest.raises(GraphError) as err:
        ColoredMultigraph(3, 2, [(0, 1, 1, 1), row])
    assert str(err.value) == message


def test_constructor_accepts_int_subclass_weights():
    class W(int):
        pass

    g = ColoredMultigraph(2, 1, [(0, 1, 1, W(4))])
    assert g.edges[0].weight == 4 and type(g.edges[0].weight) is W
    assert g.total_weight() == 4


def test_edge_is_an_immutable_record():
    g = mg(3, 2, [(0, 1, 1, 5), (2, 1, 2, 7)])
    e = g.edges[1]
    assert type(e) is Edge
    assert (e.eid, e.u, e.v, e.color, e.weight) == (1, 2, 1, 2, 7)
    assert other_end(e, 2) == 1 and other_end(e, 1) == 2
    with pytest.raises(GraphError, match="vertex 0 is not an endpoint of edge 1"):
        other_end(e, 0)
    assert end_pair(e) == (1, 2)
    # a named tuple: it unpacks and equals the plain tuple of its fields
    eid, u, v, color, weight = e
    assert (eid, u, v, color, weight) == e == (1, 2, 1, 2, 7)
    with pytest.raises(AttributeError):
        e.weight = 0
    with pytest.raises(TypeError):
        e[4] = 0


@given(st.data())
@settings(max_examples=200)
def test_with_copies_equals_the_constructor(data):
    g = data.draw(multigraphs())
    m = len(g.edges)
    eids = data.draw(st.lists(st.integers(0, m - 1), max_size=12))
    derived = g.with_copies(eids)
    assert_same_graph(derived, ColoredMultigraph(g.n, g.k, rows_of(g, [*range(m), *eids])))
    # g itself is unchanged
    assert_same_graph(g, ColoredMultigraph(g.n, g.k, rows_of(g, range(m))))
    # a vertex no copy touches shares its rows with g
    touched = {x for eid in eids for x in g.edges[eid][1:3]}
    for x in range(g.n):
        shared = derived.incidence[x] is g.incidence[x]
        assert shared == (derived.color_counts(x) is g.color_counts(x)) == (x not in touched)


def test_with_copies_rejects_unknown_edge_ids(triangle):
    for bad in (-1, 3, 10):
        with pytest.raises(GraphError, match=f"unknown edge id {bad}$"):
            triangle.with_copies([0, bad])
    assert len(triangle.with_copies([2, 0]).edges) == 5


def test_color_degrees_triangle(triangle):
    p = color_degrees(triangle, 0)
    assert p.degree == 2
    assert p.count(1) == 1 and p.count(3) == 1 and p.count(2) == 0
    assert p.dominant is None


def test_color_degrees_dominant():
    # incident colors {1, 1, 2}: 2*2 > 3, so color 1 dominates
    g = mg(4, 2, [(0, 1, 1, 1), (0, 2, 1, 1), (0, 3, 2, 1)])
    p = color_degrees(g, 0)
    assert p.degree == 3 and p.count(1) == 2
    assert p.dominant == 1
    assert p.dominant is not None and p.degree % 2 != 0


def test_color_degrees_no_dominant_at_half():
    # incident colors {1, 1, 2, 3}: 2*2 > 4 is false
    g = mg(5, 3, [(0, 1, 1, 1), (0, 2, 1, 1), (0, 3, 2, 1), (0, 4, 3, 1)])
    p = color_degrees(g, 0)
    assert p.degree == 4 and p.count(1) == 2 and p.dominant is None
    assert p.dominant is None and p.degree % 2 == 0


def test_color_degrees_unknown_vertex(triangle):
    with pytest.raises(GraphError):
        color_degrees(triangle, 7)


def test_connectivity(triangle):
    assert is_connected(triangle)
    two = mg(6, 3, [(0, 1, 1, 1), (1, 2, 2, 1), (2, 0, 3, 1), (3, 4, 1, 1), (4, 5, 2, 1), (5, 3, 3, 1)])
    assert not is_connected(two)
    with pytest.raises(GraphError):
        is_connected(ColoredMultigraph(0, 0, []))


def test_single_color_vertex(triangle, single_color_path):
    assert has_single_color_vertex(triangle) is None
    assert has_single_color_vertex(single_color_path) in (0, 1, 2)
    # any degree-1 vertex qualifies
    g = mg(3, 3, [(0, 1, 1, 1), (1, 2, 2, 1)])
    assert has_single_color_vertex(g) == 0


def test_normalize_identity(triangle):
    gn, nm = normalize(triangle)
    assert gn is triangle
    assert nm.identity
    assert nm.origin_of == (0, 1, 2)


def test_normalize_even_k_fix():
    g = mg(3, 2, [(0, 1, 1, 1), (1, 2, 2, 1), (0, 2, 1, 1)])
    gn, nm = normalize(g)
    assert gn.k == 3 and is_simple(gn)
    assert nm.fresh_colors == (3,)
    # first input edge was subdivided
    assert set(nm.paths) == {0}
    assert gn.total_weight() == g.total_weight()


def test_normalize_parallel_pair_traced_by_hand():
    # two parallel edges (colors 2, 3) with k=3: the second is subdivided
    # with fresh color 4, leaving k=4 even, so one more subdivision with
    # fresh color 5; final graph is simple with k=5.
    g = mg(2, 3, [(0, 1, 2, 4), (0, 1, 3, 7)])
    gn, nm = normalize(g)
    assert gn.k == 5
    assert is_simple(gn)
    assert gn.total_weight() == 11
    assert nm.fresh_colors == (4, 5)
    assert set(nm.paths) == {0, 1}
    assert nm.paths[1].middle_color == 4  # parallel elimination, shared fresh color
    assert nm.paths[0].middle_color == 5  # parity fix, its own fresh color
    for sub in nm.paths.values():
        eids = sub.path_eids
        assert sum(gn.edges[e].weight for e in eids) == g.edges[sub.original_eid].weight
        for interior in sub.interior:
            assert len(gn.incidence[interior]) == 2
            colors = {gn.edges[eid].color for eid, *_ in gn.incidence[interior]}
            assert len(colors) == 2


def test_normalize_requires_an_edge():
    with pytest.raises(GraphError):
        normalize(ColoredMultigraph(2, 1, []))


def test_normalize_degenerate_single_edge_single_color():
    with pytest.raises(GraphError):
        normalize(mg(2, 1, [(0, 1, 1, 1)]))


def test_contract_roundtrip_over_subdivision():
    g = mg(2, 3, [(0, 1, 2, 4), (0, 1, 3, 7)])
    gn, nm = normalize(g)
    # cross the two subdivision paths: 0 -> 1 via edge 0's path, back via edge 1's
    p0 = nm.paths[0].path_eids
    p1 = nm.paths[1].path_eids
    walk = walk_from_edges(gn, 0, list(p0) + list(reversed(p1)))
    back = contract_walk(nm, walk)
    assert back.vertices == (0, 1, 0)
    assert back.edges == (0, 1)
    assert back.weight == 11


def test_contract_double_traversal():
    # edge 0 is subdivided (k = 2 parity fix); the walk crosses its path
    # once per direction, separated by a detour
    g = mg(
        4,
        2,
        [(0, 1, 1, 2), (1, 2, 2, 1), (2, 0, 1, 1), (1, 3, 2, 1), (3, 0, 1, 1)],
    )
    gn, nm = normalize(g)
    assert set(nm.paths) == {0}
    p = nm.paths[0].path_eids
    # normalized ids: path edges 0..2, then originals 1..4 become 3..6
    seq = [p[0], p[1], p[2], 3, 4, 6, 5, p[2], p[1], p[0]]
    walk = walk_from_edges(gn, 0, seq)
    back = contract_walk(nm, walk)
    assert back.edges == (0, 1, 2, 4, 3, 0)
    assert back.weight == 2 + 1 + 1 + 1 + 1 + 2


def test_contract_identity_passthrough(triangle):
    gn, nm = normalize(triangle)
    walk = walk_from_edges(gn, 0, [0, 1, 2])
    assert contract_walk(nm, walk) is walk


def test_contract_partial_path_is_a_bug():
    g = mg(2, 3, [(0, 1, 2, 4), (0, 1, 3, 7)])
    gn, nm = normalize(g)
    first = nm.paths[1].path_eids[0]
    partial = walk_from_edges(gn, 0, [first])
    with pytest.raises(InvariantError):
        contract_walk(nm, partial)


@given(multigraphs())
@settings(max_examples=200)
def test_degree_sums_and_dominance(g):
    for u in range(g.n):
        p = color_degrees(g, u)
        assert sum(p.per_color) == p.degree == len(g.incidence[u])
        dominants = [c for c in range(1, g.k + 1) if 2 * p.count(c) > p.degree]
        assert len(dominants) <= 1
        assert (p.dominant is None) == (not dominants)
        assert (p.dominant is None) == all(2 * cnt <= p.degree for cnt in p.per_color)


@given(multigraphs())
@settings(max_examples=200)
def test_normalize_properties(g):
    if g.k == 1 and len(g.edges) == 1:
        return  # the one shape that cannot reach three colors; raises by design
    gn, nm = normalize(g)
    assert is_simple(gn)
    assert gn.k % 2 == 1 and gn.k >= 3
    assert gn.total_weight() == g.total_weight()
    assert len(nm.origin_of) == len(gn.edges)
    # normalizing again is the identity
    gn2, nm2 = normalize(gn)
    assert gn2 is gn and nm2.identity
    # single-color status is invariant: originals keep their color multisets
    # and interior vertices always carry two distinct colors
    assert (has_single_color_vertex(g) is None) == (has_single_color_vertex(gn) is None)
    for sub in nm.paths.values():
        assert len(sub.path_eids) == 3
        assert sum(gn.edges[e].weight for e in sub.path_eids) == g.edges[sub.original_eid].weight


@given(multigraphs(connected=True))
@settings(max_examples=150)
def test_normalize_preserves_connectivity(g):
    if g.k == 1 and len(g.edges) == 1:
        return
    gn, _ = normalize(g)
    assert is_connected(gn)
