"""Shortest properly colored fixed-end walks vs exhaustive enumeration."""

from hypothesis import given, settings

from conftest import mg, multigraphs

from ecpostman import ColoredMultigraph
from ecpostman.graph import normalize, walk_from_edges
from ecpostman.oracle import check_walk_witness, pc_walk_minima
from ecpostman.pcwalks import ShortestWalkFinder


def test_triangle_fixed_values(triangle):
    # frozen from exhaustive enumeration of walks up to 4 edges
    table = ShortestWalkFinder(triangle).table(0, 1)
    assert table[(2, 2)][0] == 2
    assert table[(2, 2)][1] == (0, 1)
    assert table[(0, 3)][0] == 3
    assert walk_from_edges(triangle, 0, table[(0, 3)][1]).vertices == (0, 1, 2, 0)


def test_triangle_matches_enumeration(triangle):
    for u in range(3):
        for c1 in range(1, 4):
            table = ShortestWalkFinder(triangle).table(u, c1)
            brute = pc_walk_minima(triangle, u, c1)
            assert {key: w for key, (w, _) in table.items()} == brute


def test_single_edge_walk(triangle):
    hit = ShortestWalkFinder(triangle).table(0, 1).get((1, 1))
    assert hit is not None
    weight, eids = hit
    assert weight == 1 and eids == (0,)


def test_no_incident_color_gives_empty_table(triangle):
    assert ShortestWalkFinder(triangle).table(0, 5) == {}


def test_disconnected_target_absent():
    g = mg(6, 3, [(0, 1, 1, 1), (1, 2, 2, 1), (2, 0, 3, 1), (3, 4, 1, 1), (4, 5, 2, 1), (5, 3, 3, 1)])
    assert ShortestWalkFinder(g).table(0, 1).get((3, 1)) is None


def test_closed_walk_to_source_needs_two_edges():
    g = mg(2, 2, [(0, 1, 1, 1), (0, 1, 2, 1)])
    hit = ShortestWalkFinder(g).table(0, 1).get((0, 2))
    assert hit is not None and len(hit[1]) == 2


def test_finder_caches_tables(triangle):
    finder = ShortestWalkFinder(triangle)
    t1 = finder.table(0, 1)
    t2 = finder.table(0, 1)
    assert t1 is t2


def test_witness_checker_rejects_each_fault(triangle):
    assert check_walk_witness(triangle, 0, 1, 2, 2, 2, (0, 1)) is None
    faults = {
        "no edges": (triangle, 0, 1, 2, 2, 0, ()),
        "out of range": (triangle, 0, 1, 2, 2, 2, (0, 7)),
        "does not touch": (triangle, 0, 2, 2, 2, 1, (1,)),
        "share color": (mg(2, 2, [(0, 1, 1, 1), (0, 1, 1, 1)]), 0, 1, 0, 1, 2, (0, 1)),
        "visited twice": (triangle, 0, 1, 1, 1, 4, (0, 1, 2, 0)),
        "endpoints": (triangle, 0, 1, 1, 2, 2, (0, 1)),
        "end colors": (triangle, 0, 1, 2, 3, 2, (0, 1)),
        "weight": (triangle, 0, 1, 2, 2, 3, (0, 1)),
    }
    for needle, (g, *query) in faults.items():
        failure = check_walk_witness(g, *query)
        assert failure is not None and needle in failure, (needle, failure)


@given(multigraphs(max_n=6, max_m=8))
@settings(max_examples=120, deadline=None)
def test_matches_enumeration_and_witnesses(g):
    finder = ShortestWalkFinder(g)
    for u in range(g.n):
        for c1 in range(1, g.k + 1):
            table = finder.table(u, c1)
            brute = pc_walk_minima(g, u, c1)
            assert set(table) == set(brute)
            for (v, c2), (w, eids) in table.items():
                assert w == brute[(v, c2)]
                assert check_walk_witness(g, u, c1, v, c2, w, eids) is None


@given(multigraphs(max_n=5, max_m=6))
@settings(max_examples=80, deadline=None)
def test_adding_an_edge_never_hurts(g):
    base = ShortestWalkFinder(g)
    extra = [(e.u, e.v, e.color, e.weight) for e in g.edges]
    extra.append((0, g.n - 1, 1, 0))
    bigger = ColoredMultigraph(g.n, g.k, extra)
    more = ShortestWalkFinder(bigger)
    for u in range(g.n):
        for c1 in range(1, g.k + 1):
            before = base.table(u, c1)
            after = more.table(u, c1)
            for key, (w, _) in before.items():
                assert key in after
                assert after[key][0] <= w


def test_works_on_normalized_multigraphs():
    g = mg(3, 2, [(0, 1, 1, 2), (0, 1, 2, 3), (1, 2, 1, 1)])
    gn, _ = normalize(g)
    finder = ShortestWalkFinder(gn)
    for u in range(gn.n):
        for c1 in range(1, gn.k + 1):
            table = finder.table(u, c1)
            brute = pc_walk_minima(gn, u, c1)
            assert {key: w for key, (w, _) in table.items()} == brute
