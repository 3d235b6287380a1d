"""Shortest properly colored fixed-end walks vs exhaustive enumeration."""

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from conftest import chained_multigraphs, mg, multigraphs

from ecpostman import ColoredMultigraph, solve
from ecpostman import euler, pcwalks
from ecpostman.oracle import (
    check_walk_witness,
    encode_digraph,
    gen_random_digraph,
    gen_random_instance,
    has_single_color_vertex,
    normalize,
    pc_walk_minima,
    reference_walk_table,
    walk_from_edges,
    walk_table,
)
from ecpostman.pcwalks import ShortestWalkFinder, color_states, has_single_state, other_colors


def test_triangle_fixed_values(triangle):
    # frozen from exhaustive enumeration of walks up to 4 edges
    table = walk_table(ShortestWalkFinder(triangle), 0, 1)
    assert table[(2, 2)][0] == 2
    assert table[(2, 2)][1] == (0, 1)
    assert table[(0, 3)][0] == 3
    assert walk_from_edges(triangle, 0, table[(0, 3)][1]).vertices == (0, 1, 2, 0)


def test_triangle_matches_enumeration(triangle):
    for u in range(3):
        for c1 in range(1, 4):
            table = walk_table(ShortestWalkFinder(triangle), u, c1)
            brute = pc_walk_minima(triangle, u, c1)
            assert {key: w for key, (w, _) in table.items()} == brute


def test_single_edge_walk(triangle):
    hit = walk_table(ShortestWalkFinder(triangle), 0, 1).get((1, 1))
    assert hit is not None
    weight, eids = hit
    assert weight == 1 and eids == (0,)


def test_no_incident_color_gives_empty_table(triangle):
    assert walk_table(ShortestWalkFinder(triangle), 0, 5) == {}


def test_disconnected_target_absent():
    g = mg(6, 3, [(0, 1, 1, 1), (1, 2, 2, 1), (2, 0, 3, 1), (3, 4, 1, 1), (4, 5, 2, 1), (5, 3, 3, 1)])
    assert walk_table(ShortestWalkFinder(g), 0, 1).get((3, 1)) is None


def test_closed_walk_to_source_needs_two_edges():
    g = mg(2, 2, [(0, 1, 1, 1), (0, 1, 2, 1)])
    hit = walk_table(ShortestWalkFinder(g), 0, 1).get((0, 2))
    assert hit is not None and len(hit[1]) == 2


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
            table = walk_table(finder, u, c1)
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
            before = walk_table(base, u, c1)
            after = walk_table(more, u, c1)
            for key, (w, _) in before.items():
                assert key in after
                assert after[key][0] <= w


def test_works_on_normalized_multigraphs():
    # the solver's own input (parallel edges, even k) and its normalization
    g = mg(3, 2, [(0, 1, 1, 2), (0, 1, 2, 3), (1, 2, 1, 1)])
    for h in (g, normalize(g)[0]):
        finder = ShortestWalkFinder(h)
        for u in range(h.n):
            for c1 in range(1, h.k + 1):
                table = walk_table(finder, u, c1)
                brute = pc_walk_minima(h, u, c1)
                assert {key: w for key, (w, _) in table.items()} == brute


def assert_reference_tables(g):
    finder = ShortestWalkFinder(g)
    for u in range(g.n):
        for c1 in range(1, g.k + 1):
            assert walk_table(finder, u, c1) == reference_walk_table(g, u, c1), (u, c1)


@given(multigraphs(max_n=8, max_k=4, max_m=14))
@settings(max_examples=200, deadline=None)
def test_tables_equal_the_reference_dijkstra(g):
    # weights, witnesses and reachability, with zero weights and parallel edges
    assert_reference_tables(g)


def test_tables_equal_the_reference_dijkstra_on_generated_inputs():
    for seed in range(12):
        assert_reference_tables(gen_random_instance(9, 3, 16, 5, seed=seed))
        assert_reference_tables(encode_digraph(*gen_random_digraph(8, 18, 5, seed=seed)))


def test_labels_index_the_table_by_state(triangle):
    finder = ShortestWalkFinder(triangle)
    labels = finder.labels(0, 1)
    for (v, c2), (w, eids) in walk_table(finder, 0, 1).items():
        assert labels[finder.state_at[v][c2]] == (w, eids, finder.state_at[v][c2])
    assert finder.labels(0, 5) == [None] * len(labels)


def assert_contracted_labels(g, keep):
    """A finder on the numbering that keeps ``keep`` drops exactly the
    other pass-through vertices, and its labels from every kept source
    equal the reference Dijkstra's on every state it keeps, witnesses
    included."""
    finder = ShortestWalkFinder(g, color_states(g, keep))
    full = color_states(g)[0]
    kept = 0
    for x, (states, ends) in enumerate(zip(finder.state_at, g.incidence)):
        passing = len(ends) == 2 and ends[0][2] != ends[1][2]
        expected = {} if passing and x not in keep else full[x]
        assert states.keys() == expected.keys()
        assert sorted(states.values()) == list(range(kept, kept + len(states)))
        kept += len(states)
    for u in range(g.n):
        for c1 in range(1, g.k + 1):
            if u not in keep and finder.state_at[u] == {} and g.incidence[u]:
                with pytest.raises(ValueError):
                    finder.labels(u, c1)
                continue
            labels = finder.labels(u, c1)
            assert len(labels) == kept
            reference = reference_walk_table(g, u, c1)
            for x, states in enumerate(finder.state_at):
                for c, s in states.items():
                    hit = reference.get((x, c))
                    assert labels[s] == (None if hit is None else (*hit, s)), (u, c1, x, c)


@given(chained_multigraphs())
@settings(max_examples=200, deadline=None)
def test_contracted_labels_equal_the_reference_dijkstra(drawn):
    assert_contracted_labels(*drawn)


def test_contracted_chains_on_a_fixed_graph():
    # 0-1-2 triangle; chain 0-3-4-1 (two middles), chain 2-5-2 (back to its
    # start: two parallel edges of distinct colors), zero weights, and the
    # pure alternating cycle 6-7-8-9
    g = mg(10, 3, [
        (0, 1, 1, 2), (1, 2, 2, 1), (2, 0, 3, 1),
        (0, 3, 2, 0), (3, 4, 1, 1), (4, 1, 3, 0),
        (2, 5, 1, 0), (5, 2, 2, 1),
        (6, 7, 1, 1), (7, 8, 2, 0), (8, 9, 1, 1), (9, 6, 2, 0),
    ])
    finder = ShortestWalkFinder(g, color_states(g, {0, 1, 2}))
    assert [x for x, states in enumerate(finder.state_at) if states] == [0, 1, 2]
    hit = finder.labels(0, 2)[finder.state_at[1][3]]
    assert hit[:2] == (1, (3, 4, 5))  # one move across both middle vertices
    assert finder.labels(2, 1)[finder.state_at[2][2]][:2] == (1, (6, 7))
    for keep in ({0, 1, 2}, {0}, set(), set(range(10))):
        assert_contracted_labels(g, keep)


def comprehension_other_colors(state_at, groups):
    """``other_colors`` built entry by entry at every vertex of two or more colors."""
    out = [[]] * len(groups)
    for states in state_at:
        ids = list(states.values())
        if len(ids) > 1:
            for s in ids:
                out[s] = [entry for t in ids if t != s for entry in groups[t]]
    return out


def test_other_colors_equals_the_comprehension_on_the_corpus(benchmark_corpus, monkeypatch):
    """Every call that the corpus solves make, from the edge screen and
    from the walk finder, gives each state the same entries in the same
    order as the comprehension; three-color vertices are among them."""
    calls = {"screen": 0, "finder": 0}
    sizes = set()

    def recorded(caller):
        def check(state_at, groups):
            calls[caller] += 1
            sizes.update(map(len, state_at))
            out = other_colors(state_at, groups)
            assert out == comprehension_other_colors(state_at, groups)
            return out
        return check

    monkeypatch.setattr(euler, "other_colors", recorded("screen"))
    monkeypatch.setattr(pcwalks, "other_colors", recorded("finder"))
    for g in benchmark_corpus:
        solve(g)
    assert calls["screen"] > calls["finder"] > 0
    assert {2, 3} <= sizes


@st.composite
def many_colored(draw):
    """A multigraph whose vertex 0 sees four to six colors, with keep sets."""
    base = draw(multigraphs(min_n=3, max_n=6, max_k=6, max_m=10))
    colors = draw(st.integers(4, 6))
    rows = [(e.u, e.v, e.color, e.weight) for e in base.edges]
    rows += [(0, 1 + c % (base.n - 1), c, draw(st.integers(0, 3))) for c in range(1, colors + 1)]
    keep = draw(st.sets(st.integers(0, base.n - 1)))
    return ColoredMultigraph(base.n, max(base.k, colors), rows), keep


@given(st.one_of(many_colored(), chained_multigraphs()))
@settings(max_examples=150, deadline=None)
def test_other_colors_equals_the_comprehension_on_drawn_graphs(drawn):
    g, keep = drawn
    for numbering in (color_states(g), color_states(g, ()), color_states(g, keep)):
        state_at, count = numbering
        # one distinct entry per edge end, grouped by the state of its color
        groups = [[] for _ in range(count)]
        for x, (states, ends) in enumerate(zip(state_at, g.incidence)):
            for eid, y, color, _ in ends:
                if states:
                    groups[states[color]].append((x, eid, y))
        assert other_colors(state_at, groups) == comprehension_other_colors(state_at, groups)


def test_single_state_verdict_equals_the_color_scan_on_the_corpus(benchmark_corpus):
    """The benchmark draws no input with a single-color vertex, so here
    every verdict is "none"; the drawn graphs below take both sides."""
    for g in benchmark_corpus:
        assert has_single_color_vertex(g) is None
        assert not has_single_state(color_states(g, ())[0])
        assert not has_single_state(color_states(g)[0])


@st.composite
def with_odd_vertices(draw):
    """A multigraph plus, each drawn in or out, a ring of two-colored
    parallel edges through its vertices (so none of them sees a single
    color), an isolated vertex, a degree-1 vertex, a degree-2 vertex of
    one color and a pass-through vertex (degree 2, two colors), each
    hung off the base's vertices; and a set of vertices to keep."""
    base = draw(multigraphs(min_n=2, max_n=5, max_k=3, max_m=8))
    k = max(base.k, 2)
    rows = [(e.u, e.v, e.color, e.weight) for e in base.edges]
    n = base.n
    if draw(st.booleans()):  # ring
        rows += [(x, (x + 1) % n, c, 1) for x in range(n) for c in (1, 2)]
    end = st.integers(0, base.n - 1)
    color = st.integers(1, k)
    if draw(st.booleans()):  # isolated
        n += 1
    if draw(st.booleans()):  # degree 1
        rows.append((draw(end), n, draw(color), 1))
        n += 1
    if draw(st.booleans()):  # degree 2, one color
        c = draw(color)
        rows += [(draw(end), n, c, 1), (draw(end), n, c, 1)]
        n += 1
    if draw(st.booleans()):  # pass-through
        rows += [(draw(end), n, 1, 1), (draw(end), n, 2, 1)]
        n += 1
    keep = draw(st.sets(st.integers(0, n - 1)))
    return ColoredMultigraph(n, k, rows), keep


@given(with_odd_vertices())
@settings(max_examples=200, deadline=None)
def test_single_state_verdict_equals_the_color_scan_on_drawn_graphs(drawn):
    g, keep = drawn
    scanned = has_single_color_vertex(g) is not None
    event(f"single-color vertex: {scanned}")
    for numbering in (color_states(g), color_states(g, ()), color_states(g, keep)):
        assert has_single_state(numbering[0]) == scanned
