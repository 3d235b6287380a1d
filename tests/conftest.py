"""Shared fixtures, generators and invariant checkers for the test suite."""

from __future__ import annotations

import random
from pathlib import Path

import pytest
from hypothesis import assume
from hypothesis import strategies as st

from ecpostman import ColoredMultigraph, Edge, PCWalk, check_pc_euler
from ecpostman.auxgraph import MatchingGraph
from ecpostman.cli import parse_instance_text
from ecpostman.graph import is_connected
from ecpostman.oracle import (
    color_degrees,
    encode_digraph,
    gen_random_digraph,
    gen_random_instance,
    has_single_color_vertex,
)


BENCHMARK_DIR = Path(__file__).resolve().parent.parent / "benchmark"


def mg(n: int, k: int, edges) -> ColoredMultigraph:
    return ColoredMultigraph(n, k, edges)


@pytest.fixture(scope="session")
def benchmark_corpus() -> list[ColoredMultigraph]:
    """The benchmark's corpus as the CLI parses it: seeds 1, 3, 5 (seed-major)
    x the first 150 colored, 150 directed and 60 eulerian inputs of
    ``benchmark/workloads.corpus``, 1080 graphs, generated once per run."""
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(BENCHMARK_DIR))
        import workloads
    return [
        parse_instance_text(inst.text())
        for seed in (1, 3, 5)
        for workload, count in (("colored", 150), ("directed", 150), ("eulerian", 60))
        for inst in workloads.corpus(workload, seed, count)
    ]


def hamiltonian_digraph(n, m):
    """The cycle 0 -> 1 -> ... -> n-1 -> 0 plus random arcs up to m, weights 1-9."""
    rng = random.Random(n)
    arcs = [(i, (i + 1) % n, rng.randint(1, 9)) for i in range(n)]
    while len(arcs) < m:
        u, v = rng.sample(range(n), 2)
        arcs.append((u, v, rng.randint(1, 9)))
    return arcs


@pytest.fixture
def triangle() -> ColoredMultigraph:
    # ab:1, bc:2, ca:3, unit weights; already a properly colored Euler trail
    return mg(3, 3, [(0, 1, 1, 1), (1, 2, 2, 1), (2, 0, 3, 1)])


@pytest.fixture
def house() -> ColoredMultigraph:
    # two odd vertices; optimum 11 doubles the two cheap edges, never bc (w=5)
    return mg(4, 3, [(0, 1, 1, 1), (1, 2, 2, 5), (2, 0, 3, 1), (1, 3, 3, 1), (3, 2, 1, 1)])


@pytest.fixture
def single_color_path() -> ColoredMultigraph:
    return mg(3, 1, [(0, 1, 1, 1), (1, 2, 1, 1)])


@pytest.fixture
def bowtie() -> ColoredMultigraph:
    # two triangles sharing vertex 0, spokes colored 1/3, rims colored 2
    return mg(
        5,
        3,
        [
            (0, 1, 1, 1),
            (1, 2, 2, 1),
            (2, 0, 3, 1),
            (0, 3, 1, 1),
            (3, 4, 2, 1),
            (4, 0, 3, 1),
        ],
    )


@pytest.fixture
def trapped_triangle() -> ColoredMultigraph:
    # the triangle plus the benchmark's eulerian trap hung off vertex 0:
    # 0-3 and 3-4 of color 1, 4-5 of color 2, 5-3 of color 3; edge 3 (0-3)
    # lies on no properly colored closed walk
    return mg(
        6,
        3,
        [
            (0, 1, 1, 1),
            (1, 2, 2, 1),
            (2, 0, 3, 1),
            (0, 3, 1, 1),
            (3, 4, 1, 1),
            (4, 5, 2, 1),
            (5, 3, 3, 1),
        ],
    )


def owner_slots(aux: MatchingGraph, u: int) -> list[int]:
    """Indices of u's slot vertices in the auxiliary graph, by ascending color."""
    out: list[int] = []
    for c in range(1, aux.g.k + 1):
        out.extend(aux.slot_indices.get((u, c), ()))
    return out


def beyond_brute_force():
    """m = 16 and 60: past the multiplicity oracle; the draws kept reach the
    model (no single-color vertex, not already Eulerian): 8 + 17 of them."""
    corpus = [gen_random_instance(10, 3, 16, 9, s) for s in (41, 48, 120, 131, 265, 323, 430, 466)]
    corpus += [encode_digraph(*gen_random_digraph(12, 30, 9, s)) for s in range(120)]
    corpus = [
        g for g in corpus
        if has_single_color_vertex(g) is None and not check_pc_euler(g).feasible
    ]
    assert len(corpus) == 25
    return corpus


@st.composite
def multigraphs(
    draw,
    min_n: int = 2,
    max_n: int = 5,
    max_k: int = 3,
    max_m: int = 7,
    max_w: int = 3,
    connected: bool = False,
) -> ColoredMultigraph:
    n = draw(st.integers(min_n, max_n))
    k = draw(st.integers(1, max_k))
    m = draw(st.integers(1, max_m))
    edges = []
    for _ in range(m):
        u = draw(st.integers(0, n - 1))
        v = draw(st.integers(0, n - 2))
        if v >= u:
            v += 1
        edges.append((u, v, draw(st.integers(1, k)), draw(st.integers(0, max_w))))
    g = ColoredMultigraph(n, k, edges)
    if connected:
        assume(is_connected(g))
    return g


@st.composite
def chained_multigraphs(draw, max_n: int = 5, max_k: int = 3, max_m: int = 6):
    """A multigraph with pass-through chains, and the vertices to keep.

    The base graph (``multigraphs``, at least two colors) gets one to
    three chains of 1-3 middle vertices, each of degree 2 with two
    colors; a chain may end where it starts, and one of a single middle
    vertex then is two parallel edges of distinct colors to its end.
    A separate pure alternating cycle of 2, 4 or 6 vertices follows.
    Weights start at 0. ``keep`` is a subset of the base vertices, so
    the cycle and every middle vertex are pass-through and not kept.
    """
    base = draw(multigraphs(max_n=max_n, max_k=max_k, max_m=max_m))
    k = max(base.k, 2)
    rows = [(e.u, e.v, e.color, e.weight) for e in base.edges]
    n = base.n
    weight = st.integers(0, 3)
    for _ in range(draw(st.integers(1, 3))):
        x = draw(st.integers(0, base.n - 1))
        y = draw(st.integers(0, base.n - 1))
        color = draw(st.integers(1, k))
        other = draw(st.integers(1, k - 1))
        other += other >= color
        prev = x
        for step in range(draw(st.integers(1, 3))):
            rows.append((prev, n, (color, other)[step % 2], draw(weight)))
            prev, n = n, n + 1
        rows.append((prev, y, (color, other)[(step + 1) % 2], draw(weight)))
    length = 2 * draw(st.integers(1, 3))
    for step in range(length):
        rows.append((n + step, n + (step + 1) % length, 1 + step % 2, draw(weight)))
    keep = draw(st.sets(st.integers(0, base.n - 1)))
    return ColoredMultigraph(n + length, k, rows), keep


def assert_same_graph(derived: ColoredMultigraph, built: ColoredMultigraph) -> None:
    """Field-by-field equality, plus the ascending incidence invariant."""
    assert (derived.n, derived.k) == (built.n, built.k)
    assert derived.edges == built.edges
    assert all(type(e) is Edge for e in derived.edges)
    assert derived.incidence == built.incidence
    for u in range(built.n):
        assert derived.color_counts(u) == built.color_counts(u)
    for g in (derived, built):
        for ends in g.incidence:
            ids = [eid for eid, _, _, _ in ends]
            assert ids == sorted(ids)


def rows_of(g: ColoredMultigraph, eids) -> list[tuple[int, int, int, int]]:
    return [(g.edges[e].u, g.edges[e].v, g.edges[e].color, g.edges[e].weight) for e in eids]


def walk_addition_violation(
    before: ColoredMultigraph, after: ColoredMultigraph, walk: PCWalk
) -> str | None:
    """Check the degree effects of duplicating one walk's edges.

    For d'(u) = d(u) - 2*d_c(u): transitions through a vertex never
    decrease it, so only walk end-vertices can lose ground, and only in
    their end colors: a closed walk with end colors (i, j) raises d'(u)
    by >= 2 for colors off {i, j}, keeps it >= 0 for i != j, and drops
    it by at most 2 when i == j == c; an open end with color i drops
    d'(u) by at most 1 for c == i and raises it by >= 1 otherwise.
    Returns a description of the first violated bound, else None.
    """
    open_walk = not walk.closed
    first_v, last_v = walk.vertices[0], walk.vertices[-1]
    for u in range(before.n):
        pb = color_degrees(before, u)
        pa = color_degrees(after, u)
        parity_flips = pa.degree % 2 != pb.degree % 2
        should_flip = open_walk and u in (first_v, last_v)
        if parity_flips != should_flip:
            return f"vertex {u}: parity flip {parity_flips}, expected {should_flip}"
        for c in range(1, before.k + 1):
            delta = (pa.degree - 2 * pa.count(c)) - (pb.degree - 2 * pb.count(c))
            if u not in (first_v, last_v):
                if delta < 0:
                    return f"vertex {u} color {c}: non-endpoint decreased by {-delta}"
            elif not open_walk:
                i, j = walk.first_color, walk.last_color
                if c not in (i, j) and delta < 2:
                    return f"vertex {u} color {c}: closed-end increase {delta} < 2"
                if c in (i, j) and i != j and delta < 0:
                    return f"vertex {u} color {c}: closed-end decreased by {-delta}"
                if i == j == c and delta < -2:
                    return f"vertex {u} color {c}: closed-end decreased by {-delta} > 2"
            else:
                end_color = walk.first_color if u == first_v else walk.last_color
                if c == end_color:
                    if delta < -1:
                        return f"vertex {u} color {c}: open-end decreased by {-delta}"
                elif delta < 1:
                    return f"vertex {u} color {c}: open-end increase {delta} too small"
    return None
