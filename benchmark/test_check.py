"""The benchmark's answer checker accepts right answers and rejects wrong ones.

Run with ``python -m pytest benchmark``; needs scipy for the ILP reference.
"""

from __future__ import annotations

import pytest

import check
import workloads
from check import CheckFailed, Reference, check_answer, check_tour, parse_document
from workloads import Instance

HOUSE = workloads.HOUSE
HOUSE_DOC = """status optimal
total_weight 11
matching_weight 2
edges 5
edge 1 2 1 1 1
edge 2 3 2 5 1
edge 3 1 3 1 1
edge 2 4 3 1 2
edge 4 3 1 1 2
tour 1 e1:1 2 e4:3 4 e5:1 3 e2:2 2 e4:3 4 e5:1 3 e3:3 1
"""
INFEASIBLE_DOC = "status infeasible\nreason no-perfect-matching\n"


def test_right_answer_passes_the_ilp_reference():
    ref = check.colored_reference(HOUSE)
    assert ref == Reference(True, 11)
    check_answer("colored", HOUSE, HOUSE_DOC, ref)


def test_wrong_total_is_rejected():
    doc = HOUSE_DOC.replace("total_weight 11", "total_weight 12")
    with pytest.raises(CheckFailed, match="total_weight"):
        check_answer("colored", HOUSE, doc, Reference(True, 11))
    # a self-consistent tour that is not the optimum is rejected too
    with pytest.raises(CheckFailed, match="reference optimum"):
        check_answer("colored", HOUSE, HOUSE_DOC, Reference(True, 10))


def test_same_color_wraparound_is_rejected():
    # 1 -e1:1- 2 -e2:2- 3 -e3:1- 1: proper inside, but e3 and e1 share color 1
    inst = Instance("wrap", 3, 2, ((0, 1, 1, 1), (1, 2, 2, 1), (2, 0, 1, 1)))
    doc = (
        "status optimal\ntotal_weight 3\nmatching_weight 0\nedges 3\n"
        "edge 1 2 1 1 1\nedge 2 3 2 1 1\nedge 3 1 1 1 1\n"
        "tour 1 e1:1 2 e2:2 3 e3:1 1\n"
    )
    with pytest.raises(CheckFailed, match="share color 1"):
        check_tour(inst, parse_document(doc))


def test_uncovered_edge_is_rejected():
    # a properly colored triangle tour that skips the parallel edge e4
    inst = Instance("skip", 3, 3, ((0, 1, 1, 1), (1, 2, 2, 1), (2, 0, 3, 1), (0, 1, 2, 1)))
    doc = (
        "status optimal\ntotal_weight 4\nmatching_weight 0\nedges 4\n"
        "edge 1 2 1 1 1\nedge 2 3 2 1 1\nedge 3 1 3 1 1\nedge 1 2 2 1 1\n"
        "tour 1 e1:1 2 e2:2 3 e3:3 1\n"
    )
    with pytest.raises(CheckFailed, match="never covers edge 4"):
        check_tour(inst, parse_document(doc))


def test_wrong_verdict_is_rejected():
    with pytest.raises(CheckFailed, match="reference optimum 11"):
        check_answer("colored", HOUSE, INFEASIBLE_DOC, check.colored_reference(HOUSE))
    trapped = workloads.eulerian_instance(seed=0, index=workloads.EULERIAN_TRAP_EVERY - 1)
    ref = check.eulerian_reference(trapped)
    assert ref == Reference(False, None)
    with pytest.raises(CheckFailed, match="reference says infeasible"):
        check_answer("eulerian", trapped, HOUSE_DOC, ref)


def test_references_see_the_generated_verdicts():
    glued = workloads.directed_instance(seed=0, index=workloads.DIRECTED_GLUED_EVERY - 1)
    assert check.directed_reference(glued) == Reference(False, None)
    strong = workloads.directed_instance(seed=0, index=0)
    ref = check.directed_reference(strong)
    assert ref.feasible and ref.optimum >= sum(w for _, _, w in strong.arcs)
    plain = workloads.eulerian_instance(seed=0, index=0)
    assert check.eulerian_reference(plain) == Reference(True, sum(e[3] for e in plain.edges))


def test_broken_trap_is_not_taken_as_proof():
    trapped = workloads.eulerian_instance(seed=0, index=workloads.EULERIAN_TRAP_EVERY - 1)
    v, x, y, z = trapped.trap
    # recolor z-x to the color of x-y: the trap argument no longer holds
    c_xy = next(c for a, b, c, _ in trapped.edges if {a, b} == {x, y})
    edges = tuple(
        (a, b, c_xy, w) if {a, b} == {z, x} else (a, b, c, w) for a, b, c, w in trapped.edges
    )
    broken = Instance(trapped.name, trapped.n, trapped.k, edges, trap=trapped.trap)
    with pytest.raises(CheckFailed, match="trap structure"):
        check.eulerian_reference(broken)
