"""Result and model types: field order, defaults, read-only fields, views.

The value types are named tuples, so they unpack and compare equal to
the plain tuple of their fields; ``MatchingInstance`` compares by value
and ``MatchingGraph`` by identity.
"""

import pytest

from conftest import mg

from ecpostman import PCWalk, Solution, check_pc_euler, solve, verify_pc_closed_walk
from ecpostman.auxgraph import AuxEdge, build_matching_graph
from ecpostman.euler import EulerCheck, WalkReport
from ecpostman.matching import MatchingInstance, PerfectMatching
from ecpostman.oracle import DegreeProfile, adjacency, color_degrees

HOUSE = [(0, 1, 1, 1), (1, 2, 2, 5), (2, 0, 3, 1), (1, 3, 3, 1), (3, 2, 1, 1)]

VALUE_TYPES = [
    (DegreeProfile, ("vertex", "degree", "per_color", "dominant"), {}),
    (PCWalk, ("vertices", "edges", "first_color", "last_color", "weight"), {}),
    (EulerCheck, ("feasible", "reason", "vertex"), {"reason": None, "vertex": None}),
    (WalkReport, ("ok", "failure", "weight", "traversals"), {}),
    (Solution,
     ("status", "reason", "total_weight", "matching_weight", "multiplicities", "walk"), {}),
    (PerfectMatching, ("pairs", "weight"), {}),
    (AuxEdge, ("a", "b", "weight", "signature"), {}),
]


@pytest.mark.parametrize(
    "cls, fields, defaults", VALUE_TYPES, ids=[cls.__name__ for cls, _, _ in VALUE_TYPES]
)
def test_value_type_fields_defaults_and_read_only(cls, fields, defaults):
    assert cls._fields == fields
    assert cls._field_defaults == defaults
    values = tuple(range(len(fields)))
    made = cls(**dict(zip(fields, values)))
    assert made == cls(*values) == values
    assert tuple(made) == values and [getattr(made, f) for f in fields] == list(values)
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(made, field, -1)
    with pytest.raises(AttributeError):
        made.extra = -1
    assert made._replace(**{fields[0]: -1}) == (-1,) + values[1:]
    assert type(made._replace()) is cls


def test_euler_check_defaults_and_verdicts():
    assert EulerCheck(True) == EulerCheck(feasible=True, reason=None, vertex=None)
    assert EulerCheck(False, "odd-degree") == (False, "odd-degree", None)
    triangle = mg(3, 3, [(0, 1, 1, 1), (1, 2, 2, 1), (2, 0, 3, 1)])
    assert check_pc_euler(triangle) == (True, None, None)
    feasible, reason, vertex = check_pc_euler(mg(4, 3, HOUSE))
    assert (feasible, reason, vertex) == (False, "odd-degree", 1)


def test_solution_optimal_walk_closed_and_report():
    sol = solve(mg(4, 3, HOUSE))
    assert sol.optimal and sol.status == "optimal"
    assert sol.walk.closed
    assert not PCWalk((0, 1, 2), (0, 1), 1, 2, 6).closed
    report = verify_pc_closed_walk(mg(4, 3, HOUSE), sol.walk)
    assert report == WalkReport(True, None, sol.total_weight, sol.multiplicities)
    infeasible = solve(mg(3, 1, [(0, 1, 1, 1), (1, 2, 1, 1)]))
    assert not infeasible.optimal and infeasible.walk is None
    assert infeasible._replace(status="optimal").optimal


def test_aux_edge_artificial():
    assert AuxEdge(0, 1, 0, None).artificial
    assert not AuxEdge(0, 2, 3, (0, 1, 1, 2)).artificial
    model = build_matching_graph(mg(4, 3, HOUSE))
    kinds = {e.artificial for e in model.edges}
    assert kinds == {True, False}
    assert all(e.artificial == (e.signature is None) for e in model.edges)


def test_degree_profile_count_is_the_count_of_one_color():
    # overrides tuple.count, which would count the fields equal to its argument
    profile = DegreeProfile(vertex=7, degree=6, per_color=(1, 0, 5), dominant=3)
    assert [profile.count(c) for c in (1, 2, 3)] == [1, 0, 5]
    assert tuple.count(profile, 3) == 1
    g = mg(4, 3, HOUSE)
    for u in range(g.n):
        prof = color_degrees(g, u)
        for c in range(1, g.k + 1):
            assert prof.count(c) == sum(1 for e in g.edges if u in (e.u, e.v) and e.color == c)


def test_matching_instance_value_equality_and_edges_view():
    edges = [(0, 1, 3), (2, 3, 1), (0, 2, 2), (1, 3, 4)]
    first = MatchingInstance(4, adjacency(4, [(u, v, -2 * w) for u, v, w in edges]))
    again = MatchingInstance(n=4, adj=adjacency(4, [(u, v, -2 * w) for u, v, w in edges]), scale=1)
    assert first.scale == 1
    assert first.edges == ((0, 1, 3), (0, 2, 2), (1, 3, 4), (2, 3, 1))
    assert first.edges is first.edges  # cached
    assert first == again and not first != again  # the cached view is not compared
    assert first != MatchingInstance(4, again.adj, 2)
    assert first != MatchingInstance(4, [list(reversed(recs)) for recs in again.adj])
    assert first != (4, again.adj, 1)


def test_matching_graph_identity_and_cached_views():
    first, again = build_matching_graph(mg(4, 3, HOUSE)), build_matching_graph(mg(4, 3, HOUSE))
    assert first == first and first != again
    assert first.instance == again.instance
    assert first.edges is first.edges
    assert first.edge_by_pair is first.edge_by_pair
    assert first.edges == again.edges
