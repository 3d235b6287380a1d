"""End-to-end postman solver for edge-colored multigraphs.

Pipeline: reject disconnected inputs and vertices seeing a single
color, reject inputs with an edge on no properly colored closed walk,
normalize (simple graph, odd color count), build the auxiliary matching
graph, find a minimum-weight perfect matching, duplicate the witness
walk of every matched non-artificial edge, extract a properly colored
Euler trail of the duplicated graph, contract it back to the original
multigraph and re-verify everything before returning.

The edge screen (``uncoverable_edge``) is the infeasibility criterion:
a connected input has a covering properly colored closed walk iff every
edge lies on some properly colored closed walk. It runs in time linear
in the size of its arc digraph, so an infeasible input builds no model.
Its verdict keeps the historical reason ``no-perfect-matching``. Every
input that passes it still goes through the blossom, whose failure to
find a perfect matching would contradict the screen and is an internal
error, so each criterion checks the other on every feasible solve.

An input that is already connected with every vertex even and balanced
has a properly colored Euler trail (Kotzig), which is optimal: it
traverses every edge once. Such an input skips the walk tables, the
auxiliary model and the matching; its normalized graph goes straight to
the trail with matching weight 0 and through the same verification.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .auxgraph import MatchingGraph, build_matching_graph, validate_matching_structure
from .euler import check_pc_euler, pc_euler_trail, uncoverable_edge, verify_pc_closed_walk
from .graph import (
    ColoredMultigraph,
    GraphError,
    InvariantError,
    NormalizationMap,
    PCWalk,
    contract_walk,
    has_single_color_vertex,
    normalize,
)
from .matching import min_weight_perfect_matching

INFEASIBLE_DISCONNECTED = "disconnected"
INFEASIBLE_SINGLE_COLOR = "single-color-vertex"
INFEASIBLE_NO_MATCHING = "no-perfect-matching"


@dataclass(frozen=True)
class Solution:
    """Solver output; multiplicities index the original edges.

    For optimal solutions: total_weight = sum(q_e * w_e) over the
    original edges = original graph weight + matching_weight, and the
    walk is a properly colored closed walk traversing edge e exactly
    multiplicities[e] >= 1 times.
    """

    status: str  # "optimal" | "infeasible"
    reason: str | None
    total_weight: int
    matching_weight: int
    multiplicities: tuple[int, ...]
    walk: PCWalk | None

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"


def _infeasible(reason: str) -> Solution:
    return Solution("infeasible", reason, 0, 0, (), None)


def apply_matching(
    g_norm: ColoredMultigraph,
    mg: MatchingGraph,
    pairs: tuple[tuple[int, int], ...],
) -> tuple[ColoredMultigraph, tuple[int, ...]]:
    """Duplicate witness-walk edges for every matched non-artificial edge.

    Returns the duplicated graph plus, per new-graph edge id, the
    normalized edge id it copies (identity on the original range).
    """
    rows = [(e.u, e.v, e.color, e.weight) for e in g_norm.edges]
    origin = list(range(len(g_norm.edges)))
    for pair in sorted(pairs):
        edge = mg.edge_by_pair.get(pair)
        if edge is None:
            raise InvariantError(f"matched pair {pair} is not an auxiliary edge")
        if edge.artificial:
            continue
        for eid in mg.witnesses[edge.signature]:
            e = g_norm.edges[eid]
            rows.append((e.u, e.v, e.color, e.weight))
            origin.append(eid)
    return ColoredMultigraph(g_norm.n, g_norm.k, rows), tuple(origin)


def solve(g: ColoredMultigraph) -> Solution:
    """Solve the postman problem on an edge-colored multigraph exactly.

    Returns an optimal Solution or an infeasible one (disconnected
    input, a vertex incident to one color only, or an edge on no
    properly colored closed walk, reported as no-perfect-matching). An
    input that already has a properly colored Euler trail is answered by
    that trail without building the auxiliary graph. Every optimal
    answer is verified before it is returned; a failed check, including
    a blossom that finds no perfect matching for an input the edge
    screen passed, raises InvariantError rather than returning a
    silently wrong answer.
    """
    return solve_with_model(g)[0]


def solve_with_model(g: ColoredMultigraph) -> tuple[Solution, MatchingGraph | None]:
    """``solve``, plus the auxiliary model it built (None when it built none)."""
    if g.n == 0 or not g.edges:
        raise GraphError("solver needs a graph with at least one edge")
    chk = check_pc_euler(g)
    if chk.reason == "disconnected":
        return _infeasible(INFEASIBLE_DISCONNECTED), None
    if has_single_color_vertex(g) is not None:
        return _infeasible(INFEASIBLE_SINGLE_COLOR), None

    if not chk.feasible and uncoverable_edge(g) is not None:
        return _infeasible(INFEASIBLE_NO_MATCHING), None

    g_norm, nmap = normalize(g)
    if chk.feasible:
        # every vertex is already even and balanced: nothing to duplicate
        duplicated, origin, matching_weight = g_norm, tuple(range(len(g_norm.edges))), 0
        mg = None
    else:
        mg = build_matching_graph(g_norm)
        matching = min_weight_perfect_matching(mg.as_matching_instance())
        if matching is None:
            raise InvariantError(
                "no perfect matching although every edge lies on a PC closed walk"
            )

        structure = validate_matching_structure(mg, matching.pairs)
        if not structure.ok:
            raise InvariantError(
                "matching structure validation failed: " + "; ".join(structure.failures)
            )

        duplicated, origin = apply_matching(g_norm, mg, matching.pairs)
        matching_weight = matching.weight
    try:
        trail = pc_euler_trail(duplicated)
    except GraphError as exc:
        raise InvariantError(f"duplicated graph lost trail feasibility: {exc}") from None

    norm_walk = replace(trail, edges=tuple(origin[eid] for eid in trail.edges))
    walk = contract_walk(nmap, norm_walk)

    report = verify_pc_closed_walk(g, walk)
    if not report.ok:
        raise InvariantError(f"solution walk failed verification: {report.failure}")
    if report.weight != g.total_weight() + matching_weight:
        raise InvariantError(
            f"weight accounting broken: tour {report.weight} != "
            f"{g.total_weight()} + {matching_weight}"
        )
    return Solution("optimal", None, report.weight, matching_weight, report.traversals, walk), mg
