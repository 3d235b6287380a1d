"""Auxiliary matching graph: sizes, edge kinds, structure validation, and
the live-slot model against the full slot/filler reference."""

import hashlib
from collections import Counter
from unittest import mock

import pytest
from hypothesis import HealthCheck, assume, given, settings

from conftest import (
    beyond_brute_force,
    chained_multigraphs,
    hamiltonian_digraph,
    mg,
    multigraphs,
    owner_slots,
)

from ecpostman import GraphError
from ecpostman.auxgraph import (
    NOT_AN_EDGE,
    build_matching_graph,
    dump_matching_graph,
)
from ecpostman.cli import format_result
from ecpostman.matching import TIE_BITS, min_weight_perfect_matching, tie_break
from ecpostman.oracle import (
    DegreeProfile,
    build_full_matching_graph,
    check_walk_witness,
    color_deficiency,
    color_degrees,
    encode_digraph,
    gen_random_digraph,
    gen_random_instance,
    has_single_color_vertex,
    instance_from_edges,
    normalize,
    reference_solve,
    validate_matching_structure,
    walk_table,
)
from ecpostman.pcwalks import ShortestWalkFinder, color_states
from ecpostman.solver import solve


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
    # full model; hub with d = 3, colors {1, 1, 2}: dominant 1, 4 slots, 3 fillers
    g = mg(4, 3, [(0, 1, 1, 1), (0, 2, 1, 1), (0, 3, 2, 1), (1, 2, 2, 1), (1, 3, 3, 1), (2, 3, 3, 1)])
    aux = build_full_matching_graph(g)
    assert len(owner_slots(aux, 0)) == 4
    assert len(aux.filler_indices[0]) == 3
    assert not aux.slot_indices.get((0, 1))  # dominant color has no slots


def test_live_unbalanced_vertex_sizes():
    # the same hub in the live model: color 3 is absent, so its 3 slots and
    # the 3 fillers they would take are gone; (p - 2) * d = 0 fillers remain
    g = mg(4, 3, [(0, 1, 1, 1), (0, 2, 1, 1), (0, 3, 2, 1), (1, 2, 2, 1), (1, 3, 3, 1), (2, 3, 3, 1)])
    aux = build_matching_graph(g)
    assert owner_slots(aux, 0) == list(aux.slot_indices[(0, 2)]) and len(owner_slots(aux, 0)) == 1
    assert (0, 3) not in aux.slot_indices
    assert len(aux.filler_indices[0]) == 0
    assert sum(1 for sv in aux.vertices if sv.owner == 0) == 1


def parity_hub():
    # k = 5; hub 0 sees colors {1, 1, 2, 3, 4}: balanced, d = 5, p = 4, so
    # (p - 1) * d = 15 is odd and one parity vertex joins its slot clique
    return mg(6, 5, [(0, 1, 1, 1), (0, 2, 1, 1), (0, 3, 2, 1), (0, 4, 3, 1), (0, 5, 4, 1),
                     (1, 2, 5, 1), (3, 4, 5, 1), (4, 5, 1, 1), (5, 3, 2, 1), (1, 3, 4, 1),
                     (2, 4, 2, 1)])


def test_live_parity_vertex():
    aux = build_matching_graph(parity_hub())
    owned = [i for i, sv in enumerate(aux.vertices) if sv.owner == 0]
    parity = [i for i in owned if aux.vertices[i].color is None]
    assert len(parity) == 1 and 0 not in aux.filler_indices
    assert len(owned) == 1 + 1 + 3 + 3 + 3  # slots of colors 1..4, then parity
    assert (0, 5) not in aux.slot_indices
    for a in owned:
        for b in owned:
            if a < b:
                assert aux.edge_by_pair[(a, b)].artificial
    assert all(e.artificial for e in aux.edges if parity[0] in (e.a, e.b))
    assert "parity copy 0" in dump_matching_graph(aux)


def test_rejects_unnormalized_inputs():
    # the full model needs a normalized graph; the live one takes the input as is
    with pytest.raises(GraphError):
        build_full_matching_graph(mg(2, 2, [(0, 1, 1, 1), (0, 1, 2, 1)]))  # k even
    with pytest.raises(GraphError):
        build_full_matching_graph(mg(2, 3, [(0, 1, 1, 1), (0, 1, 2, 1)]))  # parallel
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
    aux = build_matching_graph(gn)
    walk_edges = {}
    for e in aux.edges:
        if e.artificial:
            continue
        u, c1, v, c2 = e.signature
        hit = walk_table(finder, u, c1).get((v, c2))
        assert hit is not None and hit[0] == e.weight
        assert check_walk_witness(gn, u, c1, v, c2, e.weight, aux.witnesses[e.signature]) is None
        assert (e.a, e.b) not in walk_edges  # one walk edge per slot pair
        walk_edges[(e.a, e.b)] = e
    # reverse direction, slot pair by slot pair
    slots = [(idx, sv) for idx, sv in enumerate(aux.vertices) if sv.color is not None]
    expected = 0
    for i, (a, sa) in enumerate(slots):
        for b, sb in slots[i + 1:]:
            balanced = color_degrees(gn, sa.owner).dominant is None
            hit = walk_table(finder, sa.owner, sa.color).get((sb.owner, sb.color))
            if (sa.owner == sb.owner and balanced) or hit is None:
                assert (a, b) not in walk_edges
                continue
            edge = walk_edges.get((a, b))
            assert edge is not None and edge.weight == hit[0]
            expected += 1
    assert len(walk_edges) == expected
    return expected


def test_walk_edge_weights_match_walk_finder(house):
    assert check_walk_edges(house) > 0
    checked = 0
    for seed in range(40):
        g = gen_random_instance(5, 3, 8, 4, seed=seed)
        if has_single_color_vertex(g) is not None:
            continue
        check_walk_edges(g)  # the solver's model
        check_walk_edges(normalize(g)[0])  # the reference's
        checked += 1
        if checked == 4:
            break
    assert checked == 4


@given(multigraphs(connected=True))
@settings(max_examples=100, deadline=None)
def test_class_size_parities(g):
    if has_single_color_vertex(g) is not None:
        return
    gn, _ = normalize(g)
    aux = build_full_matching_graph(gn)
    total = 0
    for u in range(gn.n):
        z = len(owner_slots(aux, u)) + len(aux.filler_indices.get(u, ()))
        assert z % 2 == len(gn.incidence[u]) % 2
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


@given(multigraphs(connected=True))
@settings(max_examples=100, deadline=None)
def test_live_class_sizes(g):
    if has_single_color_vertex(g) is not None:
        return
    gn, _ = normalize(g)
    aux = build_matching_graph(gn)
    total = 0
    for u in range(gn.n):
        prof = color_degrees(gn, u)
        d, p = prof.degree, sum(1 for cnt in prof.per_color if cnt)
        for c in range(1, gn.k + 1):
            slots = aux.slot_indices.get((u, c), ())
            if prof.count(c) == 0:
                assert not slots  # no class for a color absent at u
            else:
                assert len(slots) == color_deficiency(prof, c)
        colorless = [sv for sv in aux.vertices if sv.owner == u and sv.color is None]
        if prof.dominant is None:
            assert u not in aux.filler_indices
            assert len(colorless) == (gn.k - p) * d % 2  # the parity vertex
        else:
            assert len(aux.filler_indices[u]) == len(colorless) == (p - 2) * d
        z = len(owner_slots(aux, u)) + len(colorless)
        assert z % 2 == d % 2
        total += z
    assert total == len(aux.vertices) and total % 2 == 0


@given(multigraphs(connected=True, max_k=5, max_m=9))
@settings(max_examples=150, deadline=None)
def test_live_class_sizes_on_the_input_graph(g):
    """Even k and parallel edges: a parity vertex iff (p - 1)*d(u) is odd,
    (p - 2)*d(u) fillers, and every owner's count of the parity of d(u)."""
    if has_single_color_vertex(g) is not None:
        return
    aux = build_matching_graph(g)
    for u in range(g.n):
        prof = color_degrees(g, u)
        d, p = prof.degree, sum(1 for cnt in prof.per_color if cnt)
        for c in range(1, g.k + 1):
            assert len(aux.slot_indices.get((u, c), ())) == (
                color_deficiency(prof, c) if prof.count(c) else 0
            )
        colorless = [sv for sv in aux.vertices if sv.owner == u and sv.color is None]
        owned = sum(1 for sv in aux.vertices if sv.owner == u)
        if prof.dominant is None:
            assert u not in aux.filler_indices
            assert len(owner_slots(aux, u)) == (p - 2) * d
            assert len(colorless) == (p - 1) * d % 2  # the parity vertex
        else:
            assert len(aux.filler_indices[u]) == len(colorless) == (p - 2) * d
            needed = 2 * prof.count(prof.dominant) - d
            assert len(owner_slots(aux, u)) - len(colorless) == needed
        assert owned % 2 == d % 2


def even_k_hubs():
    # k = 4; hub 0 sees colors {1, 1, 2, 3} (the 0-1 pair is parallel) and
    # hub 3 sees {2, 2, 2, 3, 4} (so does the 3-4 pair)
    return mg(5, 4, [(0, 1, 1, 1), (0, 1, 2, 1), (0, 2, 1, 1), (0, 3, 3, 1), (1, 2, 3, 1),
                     (2, 3, 2, 1), (3, 4, 2, 1), (3, 1, 2, 1), (3, 4, 4, 1), (4, 2, 1, 1)])


def test_live_class_sizes_with_even_k_and_parallel_edges():
    g = even_k_hubs()
    aux = build_matching_graph(g)
    hub = [sv for sv in aux.vertices if sv.owner == 0]
    # balanced, d = 4, p = 3: (p - 2)*d = 4 slots, (p - 1)*d even: no parity vertex
    assert len(hub) == 4 and all(sv.color is not None for sv in hub)
    # dominant 2 (3 of 5), p = 3: (p - 2)*d = 5 fillers, 3 + 3 slots of colors
    # 3 and 4, and slots - fillers = 2*3 - 5 walk ends at least
    assert color_degrees(g, 3).dominant == 2
    assert len(aux.filler_indices[3]) == 5
    assert len(owner_slots(aux, 3)) == (3 - 1) * 5 - 2 * (5 - 3) == 6
    assert validate_matching_structure(
        aux, min_weight_perfect_matching(aux.instance).pairs
    ).ok


def test_all_artificial_matching_passes_validator(triangle):
    aux = build_matching_graph(triangle)
    matching = min_weight_perfect_matching(aux.instance)
    assert matching is not None and matching.weight == 0
    for pair in matching.pairs:
        assert aux.edge_by_pair[pair].artificial
    assert validate_matching_structure(aux, matching.pairs).ok


def test_validator_flags_broken_matchings(house):
    gn, _ = normalize(house)
    aux = build_matching_graph(gn)
    matching = min_weight_perfect_matching(aux.instance)
    assert matching is not None
    assert validate_matching_structure(aux, matching.pairs).ok
    # dropping one pair leaves slots uncovered and breaks parity bookkeeping
    walk_pairs = [p for p in matching.pairs if not aux.edge_by_pair[p].artificial]
    assert walk_pairs
    broken = tuple(p for p in matching.pairs if p != walk_pairs[0])
    assert not validate_matching_structure(aux, broken).ok
    # a single walk edge alone: one affected slot at some vertex, wrong parity
    assert not validate_matching_structure(aux, (walk_pairs[0],)).ok


def test_validator_flags_walk_edge_on_parity_vertex():
    # a pair joining the parity vertex to another owner's slot is no
    # auxiliary edge, so a matching that uses it must be reported
    aux = build_matching_graph(parity_hub())
    parity = next(i for i, sv in enumerate(aux.vertices) if sv.color is None)
    others = [i for i, sv in enumerate(aux.vertices) if sv.owner != 0 and sv.color is not None]
    assert others
    for other in others:
        a, b = sorted((parity, other))
        assert aux.signature(a, b) == NOT_AN_EDGE
        report = validate_matching_structure(aux, ((a, b),))
        assert f"matched pair ({a}, {b}) is not an edge" in report.failures


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
        if has_single_color_vertex(g) is not None:
            continue
        for h in (g, normalize(g)[0]):  # the solver's model, and the reference's
            aux = build_matching_graph(h)
            matching = min_weight_perfect_matching(aux.instance)
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


HOUSE_DUMP = """\
aux-graph vertices 6 edges 15
vertex 0 owner 1 slot color 1 copy 0
vertex 1 owner 1 slot color 2 copy 0
vertex 2 owner 1 slot color 3 copy 0
vertex 3 owner 2 slot color 1 copy 0
vertex 4 owner 2 slot color 2 copy 0
vertex 5 owner 2 slot color 3 copy 0
edge 0 1 artificial weight 0
edge 0 2 artificial weight 0
edge 1 2 artificial weight 0
edge 3 4 artificial weight 0
edge 3 5 artificial weight 0
edge 4 5 artificial weight 0
edge 0 3 walk weight 9 from 1 color 1 to 2 color 1
edge 0 4 walk weight 9 from 1 color 1 to 2 color 2
edge 0 5 walk weight 2 from 1 color 1 to 2 color 3
edge 1 3 walk weight 9 from 1 color 2 to 2 color 1
edge 1 4 walk weight 5 from 1 color 2 to 2 color 2
edge 1 5 walk weight 9 from 1 color 2 to 2 color 3
edge 2 3 walk weight 2 from 1 color 3 to 2 color 1
edge 2 4 walk weight 9 from 1 color 3 to 2 color 2
edge 2 5 walk weight 9 from 1 color 3 to 2 color 3
"""

# the whole dump text, as the builder that kept one DegreeProfile per vertex
# wrote it: (lines, sha256, its color-less vertex lines, artificial and walk
# edge lines)
PINNED_DUMPS = {
    "parity_hub": (508, "9182ad215bd6fdeec53f6ac230ea3c27af2565afb712eb4ddb2149add3d3e7f2",
                   ["vertex 10 owner 0 parity copy 0"], 98, 377),
    "even_k_hubs": (277, "7afdc4e7b80413ab4894251ca41c47e90f7af0114bf9c0485a3382e0acc739e8",
                    [f"vertex {18 + i} owner 3 filler copy {i}" for i in range(5)], 61, 189),
}


def test_dump_text_is_pinned(house):
    """The labels (slot, parity, filler) and the edge classes (artificial,
    walk) that the dump reads from ``MatchingGraph.dominant`` and
    ``signature`` are those of the pinned text."""
    assert dump_matching_graph(build_matching_graph(house)) == HOUSE_DUMP
    for name, g in (("parity_hub", parity_hub()), ("even_k_hubs", even_k_hubs())):
        text = dump_matching_graph(build_matching_graph(g))
        lines = text.splitlines()
        colorless = [ln for ln in lines if ln.startswith("vertex ") and " slot " not in ln]
        shape = (len(lines), hashlib.sha256(text.encode()).hexdigest(), colorless,
                 sum(" artificial " in ln for ln in lines), sum(" walk " in ln for ln in lines))
        assert shape == PINNED_DUMPS[name], name


def assert_live_and_full_agree(g):
    """The live and the full model give the same verdict, weights and document.

    The full model needs a normalized graph, so both run inside the
    reference pipeline (``oracle.reference_solve``).
    """
    gn, _ = normalize(g)
    models = (build_matching_graph(gn), build_full_matching_graph(gn))
    found = [min_weight_perfect_matching(aux.instance) for aux in models]
    assert (found[0] is None) == (found[1] is None)
    if found[0] is not None:
        assert found[0].weight == found[1].weight
        assert all(validate_matching_structure(a, m.pairs).ok for a, m in zip(models, found))
    live = reference_solve(g)
    with mock.patch(
        "ecpostman.solver.build_matching_graph", lambda g, numbering: build_full_matching_graph(g)
    ):
        full = reference_solve(g)
    assert (live.status, live.reason) == (full.status, full.reason)
    assert (live.total_weight, live.matching_weight) == (full.total_weight, full.matching_weight)
    assert format_result(g, live) == format_result(g, full)
    return found[0] is not None


@given(multigraphs(connected=True, max_m=9))
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
def test_live_and_full_models_agree(g):
    assume(has_single_color_vertex(g) is None)
    assert_live_and_full_agree(g)


def test_live_and_full_models_agree_beyond_brute_force():
    assert sum(assert_live_and_full_agree(g) for g in beyond_brute_force()) >= 20


def edges_view_instance(aux):
    """What ``from_edges`` makes of the edge view, weighted as w*B + tie_break(signature)."""
    n = len(aux.vertices)
    scale = (n // 2 << TIE_BITS) + 1
    weighted = [
        (e.a, e.b, e.weight * scale + tie_break(e.signature) if e.signature else 0)
        for e in aux.edges
    ]
    return instance_from_edges(n, weighted, scale)


def assert_instance_matches_edges_view(aux):
    """The builder's adjacency instance is the edge view's instance, up to
    the order of each vertex's records; and ``signature`` classifies every
    vertex pair as the view does."""
    n = len(aux.vertices)
    built, reference = aux.instance, edges_view_instance(aux)
    assert (built.n, built.scale) == (reference.n, reference.scale)
    assert [sorted(recs) for recs in built.adj] == [sorted(recs) for recs in reference.adj]
    assert built.edges == reference.edges
    kinds = {(e.a, e.b): e.signature for e in aux.edges}
    for a in range(n):
        assert aux.signature(a, a) == NOT_AN_EDGE
        for b in range(a + 1, n):
            kind = kinds.get((a, b), NOT_AN_EDGE)
            assert aux.signature(a, b) == aux.signature(b, a) == kind, (a, b)


@given(multigraphs(connected=True, max_m=9))
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
def test_adjacency_instance_matches_edges_view(g):
    assume(has_single_color_vertex(g) is None)
    gn, _ = normalize(g)
    for aux in (build_matching_graph(g), build_matching_graph(gn), build_full_matching_graph(gn)):
        assert_instance_matches_edges_view(aux)


def test_adjacency_instance_matches_edges_view_beyond_brute_force():
    for g in beyond_brute_force():
        gn, _ = normalize(g)
        for aux in (
            build_matching_graph(g), build_matching_graph(gn), build_full_matching_graph(gn)
        ):
            assert_instance_matches_edges_view(aux)


def test_adjacency_instance_solves_as_its_edges_view_beyond_brute_force():
    """Two 20/7/60 draws and a 100/300 digraph encoding (142 auxiliary
    vertices, 5,041 edges): the builder's records, in build order, and the
    edge view's, in sorted order, give the same edges and the same optimum,
    weight and matched signature multiset."""
    graphs = [gen_random_instance(20, 7, 60, 9, s) for s in (0, 1)]
    graphs.append(encode_digraph(100, hamiltonian_digraph(100, 300)))
    sizes = []
    for g in graphs:
        aux = build_matching_graph(g)
        built, reference = aux.instance, edges_view_instance(aux)
        assert built.edges == reference.edges
        ours, theirs = min_weight_perfect_matching(built), min_weight_perfect_matching(reference)
        assert ours.weight == theirs.weight
        assert Counter(aux.signature(*p) for p in ours.pairs) == Counter(
            aux.signature(*p) for p in theirs.pairs
        )
        sizes.append((len(aux.vertices), len(built.edges)))
    assert sizes[2] == (142, 5041)


def assert_solver_numbering_builds_the_owners_model(g) -> bool:
    """The model that ``solve`` builds on its one numbering of the states
    (``color_states(g, ())``, the edge screen's) equals the model whose
    finder keeps the class owners' states, as the builder's own numbering
    did: same numbering, blocks, witnesses, adjacency records and dump.
    False when the solve builds no model."""
    built = []

    def spy(g, numbering):
        model = build_matching_graph(g, numbering)
        built.append((numbering, model))
        return model

    with mock.patch("ecpostman.solver.build_matching_graph", spy):
        solve(g)
    if not built:
        return False
    [(numbering, model)] = built
    kept = color_states(g, {u for u, _ in model.slot_indices})
    assert numbering == color_states(g, ()) == kept
    owners = build_matching_graph(g, kept)
    assert model.blocks == owners.blocks
    assert model.witnesses == owners.witnesses
    assert [sorted(recs) for recs in model.instance.adj] == [
        sorted(recs) for recs in owners.instance.adj
    ]
    assert dump_matching_graph(model) == dump_matching_graph(owners)
    return True


def test_solver_numbering_builds_the_owners_model_on_the_corpus(benchmark_corpus):
    built = [assert_solver_numbering_builds_the_owners_model(g) for g in benchmark_corpus]
    assert sum(built) == 636  # 297 colored, 339 directed


def test_solver_numbering_builds_the_owners_model_beyond_brute_force():
    graphs = [gen_random_instance(20, 7, 60, 9, s) for s in (0, 1)]
    graphs.append(encode_digraph(100, hamiltonian_digraph(100, 300)))
    assert all(assert_solver_numbering_builds_the_owners_model(g) for g in graphs)


def assert_contraction_changes_no_model(g):
    """The model's instance and witnesses are those of a finder that keeps
    every state."""
    contracted = build_matching_graph(g)
    with mock.patch("ecpostman.auxgraph.ShortestWalkFinder", lambda g, numbering: ShortestWalkFinder(g)):
        full = build_matching_graph(g)
    assert contracted.instance == full.instance
    assert contracted.witnesses == full.witnesses


@given(chained_multigraphs())
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
def test_contraction_changes_no_model(drawn):
    g, _ = drawn
    assume(has_single_color_vertex(g) is None)
    assert_contraction_changes_no_model(g)


def test_contraction_changes_no_model_on_digraph_encodings():
    # every middle vertex of an encoding is pass-through and owns no class
    encodings = (encode_digraph(*gen_random_digraph(8, 18, 5, seed=seed)) for seed in range(100))
    checked = 0
    for g in encodings:
        if has_single_color_vertex(g) is None:
            assert_contraction_changes_no_model(g)
            checked += 1
            if checked == 12:
                break
    assert checked == 12
