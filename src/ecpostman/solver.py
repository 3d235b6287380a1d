"""End-to-end postman solver for edge-colored multigraphs.

Pipeline: reject disconnected inputs, number the states and reject a
vertex with one state, which sees a single color (``has_single_state``),
reject inputs with an edge on no properly colored closed walk, build
the auxiliary matching graph of the input itself (parallel edges and
any color count are fine), find a minimum-weight perfect matching,
duplicate the witness walk of every matched non-artificial edge, extract
a properly colored Euler trail of the duplicated graph and re-verify
everything before returning.

The edge screen (``uncoverable_edge``) is the infeasibility criterion:
a connected input has a covering properly colored closed walk iff every
edge lies on some properly colored closed walk. It finds the strongly
connected components of the (vertex, entering color) states, numbered
once (``color_states``) for it, the single-color verdict and the
model's walk tables alike, with each chain of pass-through vertices
(degree 2, two colors) taken as one move, so an infeasible input builds
no model.
Its verdict keeps the historical reason ``no-perfect-matching``. Every
input that passes it still goes through a matcher, the dense assignment
on a bipartite model and the blossom on any other, whose failure to
find a perfect matching would contradict the screen and is an internal
error, so each criterion checks the other on every feasible solve.

Each fact is checked once, by its owner: ``check_pc_euler`` that the
input is connected and whether it is already even and balanced; each
matcher that its matching is optimal, by its own dual certificate
(``blossom.verify_optimum`` on the blossom's duals and blossoms,
``assignment.verify_assignment`` on the assignment's row and column
duals, which also checks that the rows took distinct columns along no
forbidden pair); ``min_weight_perfect_matching`` that the blossom's mate
is symmetric, perfect and made of instance edges; ``apply_matching``
that every pair is a model edge; the trail's
``build_transition_system`` that the duplicated graph is even and
balanced, after which ``first_odd_or_unbalanced`` names the first
vertex that is not (the copies join vertices of the connected input,
so connectivity is not tested again); and
``verify_pc_closed_walk`` plus the weight identity that the answer is a
covering properly colored closed walk of the stated weight. The trail
comes from ``euler._extract_trail``, which relies on those checks
instead of repeating them; the public ``pc_euler_trail`` is the same
extraction behind ``check_pc_euler``.

Where tours tie, the answer is canonical: a walk edge of weight w weighs
w*B + t(signature) in the matching, t in [1, 2**20], B = (|V|/2)*2**20 + 1,
which keeps the true optimum (``matching``) and breaks ties by signature.
Witnesses are duplicated in signature order, so the tour depends on the
matched signatures only; the matching weight sums the true weights.

An input that is already connected with every vertex even and balanced
has a properly colored Euler trail (Kotzig), which is optimal: it
traverses every edge once, and no vertex of it sees a single color.
Such an input skips the state numbering, the single-color and edge
screens, the walk tables, the auxiliary model and the matching; it goes
straight to the trail with matching weight 0 and through the same
verification.
"""

from __future__ import annotations

from typing import NamedTuple

from .auxgraph import NOT_AN_EDGE, MatchingGraph, build_matching_graph
from .euler import _extract_trail, check_pc_euler, uncoverable_edge, verify_pc_closed_walk
from .graph import ColoredMultigraph, GraphError, InvariantError, PCWalk, first_odd_or_unbalanced
from .matching import min_weight_perfect_matching
from .pcwalks import color_states, has_single_state

INFEASIBLE_DISCONNECTED = "disconnected"
INFEASIBLE_SINGLE_COLOR = "single-color-vertex"
INFEASIBLE_NO_MATCHING = "no-perfect-matching"


class Solution(NamedTuple):
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
    g: ColoredMultigraph,
    mg: MatchingGraph,
    pairs: tuple[tuple[int, int], ...],
) -> tuple[ColoredMultigraph, tuple[int, ...]]:
    """Duplicate witness-walk edges for every matched non-artificial edge.

    Witnesses are appended in signature order, so the duplicated graph
    depends only on the multiset of matched signatures. Returns it plus,
    per new-graph edge id, the edge id of g it copies (identity on g's
    own range).
    """
    signatures = []
    for pair in pairs:
        sig = mg.signature(*pair)
        if sig == NOT_AN_EDGE:
            raise InvariantError(f"matched pair {pair} is not an auxiliary edge")
        if sig is not None:
            signatures.append(sig)
    copies: list[int] = []
    for sig in sorted(signatures):
        copies.extend(mg.witnesses[sig])
    return g.with_copies(copies), (*range(len(g.edges)), *copies)


def solve(g: ColoredMultigraph) -> Solution:
    """Solve the postman problem on an edge-colored multigraph exactly.

    Returns an optimal Solution or an infeasible one (disconnected
    input, a vertex incident to one color only, or an edge on no
    properly colored closed walk, reported as no-perfect-matching). An
    input that already has a properly colored Euler trail is answered by
    that trail without building the auxiliary graph. Every optimal
    answer is verified before it is returned; a failed check, including
    a matcher that finds no perfect matching for an input the edge
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
    if chk.feasible:
        # every vertex is already even and balanced (so none sees a single
        # color): the input's own trail is the answer
        walk, matching_weight, mg = _extract_trail(g), 0, None
    else:
        numbering = color_states(g, ())
        if has_single_state(numbering[0]):
            return _infeasible(INFEASIBLE_SINGLE_COLOR), None
        if uncoverable_edge(g, numbering) is not None:
            return _infeasible(INFEASIBLE_NO_MATCHING), None
        mg = build_matching_graph(g, numbering)
        matching = min_weight_perfect_matching(mg.assignment or mg.instance)
        if matching is None:
            raise InvariantError(
                "no perfect matching although every edge lies on a PC closed walk"
            )
        duplicated, origin = apply_matching(g, mg, matching.pairs)
        try:
            trail = _extract_trail(duplicated)
        except InvariantError:
            # the copies keep g connected: only parity or balance can be lost
            fault = first_odd_or_unbalanced(duplicated)
            if fault is None:
                raise
            raise InvariantError(
                "duplicated graph lost trail feasibility: graph has no properly"
                f" colored Euler trail: {fault[0]} at vertex {fault[1]}"
            ) from None
        walk = trail._replace(edges=tuple(origin[eid] for eid in trail.edges))
        matching_weight = matching.weight

    report = verify_pc_closed_walk(g, walk)
    if not report.ok:
        raise InvariantError(f"solution walk failed verification: {report.failure}")
    if report.weight != g.total_weight() + matching_weight:
        raise InvariantError(
            f"weight accounting broken: tour {report.weight} != "
            f"{g.total_weight()} + {matching_weight}"
        )
    return Solution("optimal", None, report.weight, matching_weight, report.traversals, walk), mg
