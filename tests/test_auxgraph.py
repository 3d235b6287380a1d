"""Auxiliary matching graph: sizes, edge kinds, structure validation."""

import pytest
from hypothesis import given, settings

from conftest import mg, multigraphs, owner_slots

from ecpostman import GraphError
from ecpostman.auxgraph import (
    build_matching_graph,
    color_deficiency,
    dump_matching_graph,
    validate_matching_structure,
)
from ecpostman.graph import DegreeProfile, color_degrees, has_single_color_vertex, normalize
from ecpostman.matching import min_weight_perfect_matching
from ecpostman.oracle import gen_random_instance
from ecpostman.pcwalks import ShortestWalkFinder


def profile(degree, per_color):
    dominant = None
    for c, cnt in enumerate(per_color, start=1):
        if 2 * cnt > degree:
            dominant = c
            break
    return DegreeProfile(0, degree, tuple(per_color), dominant)


def test_deficiency_formula():
    assert color_deficiency(profile(3, (2, 1, 0)), 1) == 0
    assert color_deficiency(profile(3, (2, 1, 0)), 3) == 3
    assert color_deficiency(profile(4, (2, 1, 1)), 2) == 2
    with pytest.raises(GraphError):
        color_deficiency(profile(3, (2, 1, 0)), 4)


def test_balanced_vertex_sizes():
    # hub with d = 4, colors {1, 1, 2, 3}, k = 3: 4 slots, no filler
    g = mg(5, 3, [(0, 1, 1, 1), (0, 2, 1, 1), (0, 3, 2, 1), (0, 4, 3, 1), (1, 2, 2, 1), (3, 4, 1, 1)])
    aux = build_matching_graph(g)
    assert len(owner_slots(aux, 0)) == 4
    assert 0 not in aux.filler_indices


def test_unbalanced_vertex_sizes():
    # hub with d = 3, colors {1, 1, 2}: dominant 1, 4 slots, 3 fillers
    g = mg(4, 3, [(0, 1, 1, 1), (0, 2, 1, 1), (0, 3, 2, 1), (1, 2, 2, 1), (1, 3, 3, 1), (2, 3, 3, 1)])
    aux = build_matching_graph(g)
    assert len(owner_slots(aux, 0)) == 4
    assert len(aux.filler_indices[0]) == 3
    assert not aux.slot_indices.get((0, 1))  # dominant color has no slots


def test_rejects_unnormalized_inputs():
    with pytest.raises(GraphError):
        build_matching_graph(mg(2, 2, [(0, 1, 1, 1), (0, 1, 2, 1)]))  # k even
    with pytest.raises(GraphError):
        build_matching_graph(mg(2, 3, [(0, 1, 1, 1), (0, 1, 2, 1)]))  # parallel
    with pytest.raises(GraphError):
        build_matching_graph(mg(3, 3, [(0, 1, 1, 1), (1, 2, 1, 1)]))  # single color


def test_no_walk_edges_inside_balanced_class(triangle):
    aux = build_matching_graph(triangle)
    for e in aux.edges:
        a, b = aux.vertices[e.a], aux.vertices[e.b]
        if a.owner == b.owner:
            prof = color_degrees(triangle, a.owner)
            if prof.dominant is None:
                assert e.artificial
        if e.artificial:
            assert e.weight == 0


def check_walk_edges(gn):
    """Every walk edge carries its walk minimum, and no walk edge is missing.

    Returns the number of walk edges.
    """
    finder = ShortestWalkFinder(gn)
    aux = build_matching_graph(gn, finder)
    walk_edges = {}
    for e in aux.edges:
        if e.artificial:
            continue
        u, c1, v, c2 = e.signature
        hit = finder.table(u, c1).get((v, c2))
        assert hit is not None and hit[0] == e.weight
        witness = aux.witnesses[e.signature]
        assert witness.weight == e.weight
        assert (e.a, e.b) not in walk_edges  # one walk edge per slot pair
        walk_edges[(e.a, e.b)] = e
    # reverse direction, slot pair by slot pair
    slots = [(idx, sv) for idx, sv in enumerate(aux.vertices) if sv.color is not None]
    expected = 0
    for i, (a, sa) in enumerate(slots):
        for b, sb in slots[i + 1:]:
            balanced = color_degrees(gn, sa.owner).dominant is None
            hit = finder.table(sa.owner, sa.color).get((sb.owner, sb.color))
            if (sa.owner == sb.owner and balanced) or hit is None:
                assert (a, b) not in walk_edges
                continue
            edge = walk_edges.get((a, b))
            assert edge is not None and edge.weight == hit[0]
            expected += 1
    assert len(walk_edges) == expected
    return expected


def test_walk_edge_weights_match_walk_finder(house):
    gn, _ = normalize(house)
    assert check_walk_edges(gn) > 0
    checked = 0
    for seed in range(40):
        g = gen_random_instance(5, 3, 8, 4, seed=seed)
        if has_single_color_vertex(g) is not None:
            continue
        check_walk_edges(normalize(g)[0])
        checked += 1
        if checked == 4:
            break
    assert checked == 4


@given(multigraphs(connected=True))
@settings(max_examples=100, deadline=None)
def test_class_size_parities(g):
    from ecpostman.graph import has_single_color_vertex

    if has_single_color_vertex(g) is not None:
        return
    gn, _ = normalize(g)
    aux = build_matching_graph(gn)
    total = 0
    for u in range(gn.n):
        z = len(owner_slots(aux, u)) + len(aux.filler_indices.get(u, ()))
        assert z % 2 == gn.degree(u) % 2
        total += z
    assert total % 2 == 0
    # derived size identities per vertex
    for u in range(gn.n):
        prof = color_degrees(gn, u)
        x = len(owner_slots(aux, u))
        if prof.dominant is None:
            assert x == (gn.k - 2) * prof.degree
        else:
            assert x == (gn.k - 2) * prof.degree + (2 * prof.count(prof.dominant) - prof.degree)


def test_all_artificial_matching_passes_validator(triangle):
    aux = build_matching_graph(triangle)
    matching = min_weight_perfect_matching(aux.as_matching_instance())
    assert matching is not None and matching.weight == 0
    for pair in matching.pairs:
        assert aux.edge_by_pair[pair].artificial
    assert validate_matching_structure(aux, matching.pairs).ok


def test_validator_flags_broken_matchings(house):
    gn, _ = normalize(house)
    aux = build_matching_graph(gn)
    matching = min_weight_perfect_matching(aux.as_matching_instance())
    assert matching is not None
    assert validate_matching_structure(aux, matching.pairs).ok
    # dropping one pair leaves slots uncovered and breaks parity bookkeeping
    walk_pairs = [p for p in matching.pairs if not aux.edge_by_pair[p].artificial]
    assert walk_pairs
    broken = tuple(p for p in matching.pairs if p != walk_pairs[0])
    assert not validate_matching_structure(aux, broken).ok
    # a single walk edge alone: one affected slot at some vertex, wrong parity
    assert not validate_matching_structure(aux, (walk_pairs[0],)).ok


def complete_with_artificial(aux, walk_pairs):
    """Extend a walk-edge-only matching to perfect using artificial edges."""
    matched = {v for p in walk_pairs for v in p}
    pairs = list(walk_pairs)
    for u in range(aux.g.n):
        prof = color_degrees(aux.g, u)
        slots = [i for i in owner_slots(aux, u) if i not in matched]
        if prof.dominant is None:
            assert len(slots) % 2 == 0
            extension = list(zip(slots[0::2], slots[1::2]))
        else:
            fill = [i for i in aux.filler_indices[u] if i not in matched]
            assert len(fill) == len(aux.filler_indices[u])  # fillers untouched by walks
            assert len(slots) <= len(fill)
            extension = list(zip(slots, fill))
            rest = fill[len(slots):]
            assert len(rest) % 2 == 0
            extension.extend(zip(rest[0::2], rest[1::2]))
        for a, b in extension:
            pair = (a, b) if a < b else (b, a)
            edge = aux.edge_by_pair[pair]  # must exist and be artificial
            assert edge.artificial
            pairs.append(pair)
            matched.update(pair)
    return tuple(sorted(pairs))


def test_completion_by_artificial_edges():
    for seed in (1, 5, 11, 23, 42, 77):
        g = gen_random_instance(4, 3, 6, 3, seed=seed)
        from ecpostman.graph import has_single_color_vertex, is_connected

        if has_single_color_vertex(g) is not None:
            continue
        gn, _ = normalize(g)
        aux = build_matching_graph(gn)
        matching = min_weight_perfect_matching(aux.as_matching_instance())
        if matching is None:
            continue
        walk_pairs = tuple(p for p in matching.pairs if not aux.edge_by_pair[p].artificial)
        completed = complete_with_artificial(aux, walk_pairs)
        covered = {v for p in completed for v in p}
        assert len(covered) == 2 * len(completed) == len(aux.vertices)
        assert validate_matching_structure(aux, completed).ok


def test_dump_format(triangle):
    aux = build_matching_graph(triangle)
    text = dump_matching_graph(aux)
    lines = text.splitlines()
    assert lines[0] == f"aux-graph vertices {len(aux.vertices)} edges {len(aux.edges)}"
    assert sum(1 for ln in lines if ln.startswith("vertex ")) == len(aux.vertices)
    assert sum(1 for ln in lines if ln.startswith("edge ")) == len(aux.edges)
