"""Auxiliary matching graph for the edge-colored postman solver.

For each vertex u and color c the graph carries max(0, d(u) - 2*d_c(u))
"slot" vertices; a vertex with a dominant color additionally gets
(k-2)*d(u) "filler" vertices. Zero-weight artificial edges connect
fillers among themselves and to all slots of the same owner, and, at
balanced owners, all slot pairs of the same owner. Every remaining slot
pair (a at (u, i), b at (v, j)) receives an edge weighted by the
minimum properly colored fixed-end walk from u to v with end colors
(i, j), when one exists. Interchangeable slot copies share that walk, so
it is looked up once per pair of slot classes (u, i), (v, j) and its
witness is stored once per signature.

A perfect matching here exists iff the postman instance is solvable,
and its minimum weight is exactly the duplication cost of an optimal
tour.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import ColoredMultigraph, DegreeProfile, GraphError, PCWalk, color_degrees
from .matching import MatchingInstance
from .pcwalks import ShortestWalkFinder


def color_deficiency(profile: DegreeProfile, color: int) -> int:
    """How far color falls short of half the degree: max(0, d - 2*d_color)."""
    if not (1 <= color <= len(profile.per_color)):
        raise GraphError(f"color {color} out of range")
    return max(0, profile.degree - 2 * profile.per_color[color - 1])


@dataclass(frozen=True)
class SlotVertex:
    """One auxiliary vertex; ``color`` is None for filler vertices."""

    owner: int
    color: int | None
    copy: int


@dataclass(frozen=True)
class AuxEdge:
    a: int
    b: int
    weight: int
    signature: tuple[int, int, int, int] | None  # (u, c1, v, c2); None = artificial

    @property
    def artificial(self) -> bool:
        return self.signature is None


class MatchingGraph:
    """Materialized auxiliary graph over an immutable normalized instance."""

    def __init__(
        self,
        g: ColoredMultigraph,
        vertices: list[SlotVertex],
        edges: list[AuxEdge],
        witnesses: dict[tuple[int, int, int, int], PCWalk],
        slot_indices: dict[tuple[int, int], list[int]],
        filler_indices: dict[int, list[int]],
    ):
        self.g = g
        self.vertices = tuple(vertices)
        self.edges = tuple(edges)
        self.witnesses = witnesses
        self.slot_indices = slot_indices
        self.filler_indices = filler_indices
        self.edge_by_pair = {(e.a, e.b): e for e in self.edges}

    def as_matching_instance(self) -> MatchingInstance:
        return MatchingInstance.from_edges(
            len(self.vertices), [(e.a, e.b, e.weight) for e in self.edges]
        )


def build_matching_graph(
    g: ColoredMultigraph, finder: ShortestWalkFinder | None = None
) -> MatchingGraph:
    """Construct the auxiliary matching graph of a normalized instance.

    Requires a simple graph with an odd number of colors >= 3 and no
    vertex incident to a single color only. Walk edges are built per
    pair of slot classes (u, c) and (v, c'): one lookup in the finder's
    table for (u, c) gives the weight and witness shared by every slot
    pair between the two classes.
    """
    if g.k % 2 == 0 or g.k < 3:
        raise GraphError("auxiliary graph needs an odd color count >= 3")
    if not g.is_simple():
        raise GraphError("auxiliary graph needs a simple (normalized) graph")
    if finder is None:
        finder = ShortestWalkFinder(g)

    vertices: list[SlotVertex] = []
    slot_indices: dict[tuple[int, int], list[int]] = {}
    filler_indices: dict[int, list[int]] = {}
    profiles: list[DegreeProfile] = []
    for u in range(g.n):
        prof = color_degrees(g, u)
        profiles.append(prof)
        if prof.degree >= 1 and max(prof.per_color) == prof.degree:
            raise GraphError(f"vertex {u} is incident to a single color only")
        for c in range(1, g.k + 1):
            need = color_deficiency(prof, c)
            if need:
                idxs = []
                for copy in range(need):
                    idxs.append(len(vertices))
                    vertices.append(SlotVertex(u, c, copy))
                slot_indices[(u, c)] = idxs
        if prof.dominant is not None:
            idxs = []
            for copy in range((g.k - 2) * prof.degree):
                idxs.append(len(vertices))
                vertices.append(SlotVertex(u, None, copy))
            filler_indices[u] = idxs

    # indices ascend within an owner (slots by color, then fillers), so
    # every artificial pair below is already (smaller, larger)
    edges: list[AuxEdge] = []
    for u in range(g.n):
        slots = []
        for c in range(1, g.k + 1):
            slots.extend(slot_indices.get((u, c), ()))
        if profiles[u].dominant is None:
            for i in range(len(slots)):
                for j in range(i + 1, len(slots)):
                    edges.append(AuxEdge(slots[i], slots[j], 0, None))
        else:
            fill = filler_indices[u]
            for i in range(len(fill)):
                for j in range(i + 1, len(fill)):
                    edges.append(AuxEdge(fill[i], fill[j], 0, None))
            for s in slots:
                for f in fill:
                    edges.append(AuxEdge(s, f, 0, None))

    # slot classes come in ascending index order, so pairing each class
    # with itself and every later class visits each slot pair a < b once
    walk_edges: list[AuxEdge] = []
    witnesses: dict[tuple[int, int, int, int], PCWalk] = {}
    classes = list(slot_indices.items())
    for i, ((u, cu), a_slots) in enumerate(classes):
        table = finder.table(u, cu)
        for (v, cv), b_slots in classes[i:]:
            hit = table.get((v, cv))
            if hit is None or (u == v and profiles[u].dominant is None):
                continue  # no walk, or an artificial pair of a balanced owner
            weight, walk = hit
            sig = (u, cu, v, cv)
            pairs = [(a, b) for a in a_slots for b in b_slots if a < b]
            if pairs:
                witnesses[sig] = walk
                walk_edges.extend(AuxEdge(a, b, weight, sig) for a, b in pairs)
    walk_edges.sort(key=lambda e: (e.a, e.b))
    edges.extend(walk_edges)
    return MatchingGraph(g, vertices, edges, witnesses, slot_indices, filler_indices)


@dataclass(frozen=True)
class StructureReport:
    ok: bool
    failures: tuple[str, ...]


def validate_matching_structure(
    mg: MatchingGraph, pairs: tuple[tuple[int, int], ...]
) -> StructureReport:
    """Check the structural properties every perfect matching must obey.

    With affected(u) = number of u's slot vertices matched through
    non-artificial edges: a vertex with dominant color i must have at
    least 2*d_i(u) - d(u) affected slots and no (u, i) slots at all, and
    affected(u) must match the parity of d(u).
    """
    failures: list[str] = []
    covered: set[int] = set()
    affected: dict[int, int] = {u: 0 for u in range(mg.g.n)}
    for a, b in pairs:
        edge = mg.edge_by_pair.get((a, b) if a < b else (b, a))
        if edge is None:
            failures.append(f"matched pair ({a}, {b}) is not an edge")
            continue
        if a in covered or b in covered:
            failures.append(f"vertex repeated in matching at pair ({a}, {b})")
        covered.update((a, b))
        if not edge.artificial:
            for end in (edge.a, edge.b):
                sv = mg.vertices[end]
                if sv.color is None:
                    failures.append(f"walk edge touches filler vertex {end}")
                else:
                    affected[sv.owner] += 1
    if len(covered) != len(mg.vertices):
        failures.append("matching is not perfect")

    for u in range(mg.g.n):
        prof = color_degrees(mg.g, u)
        if prof.dominant is not None:
            needed = 2 * prof.count(prof.dominant) - prof.degree
            if affected[u] < needed:
                failures.append(
                    f"vertex {u}: {affected[u]} affected slots, needs >= {needed}"
                )
            if mg.slot_indices.get((u, prof.dominant)):
                failures.append(f"vertex {u}: dominant color has slot vertices")
        if affected[u] % 2 != prof.degree % 2:
            failures.append(
                f"vertex {u}: affected count {affected[u]} has wrong parity "
                f"for degree {prof.degree}"
            )
    return StructureReport(not failures, tuple(failures))


def dump_matching_graph(mg: MatchingGraph) -> str:
    """Line-oriented debug dump of the auxiliary graph (0-based ids)."""
    lines = [f"aux-graph vertices {len(mg.vertices)} edges {len(mg.edges)}"]
    for idx, sv in enumerate(mg.vertices):
        cls = f"slot color {sv.color}" if sv.color is not None else "filler"
        lines.append(f"vertex {idx} owner {sv.owner} {cls} copy {sv.copy}")
    for e in mg.edges:
        if e.artificial:
            lines.append(f"edge {e.a} {e.b} artificial weight 0")
        else:
            u, c1, v, c2 = e.signature
            lines.append(
                f"edge {e.a} {e.b} walk weight {e.weight} "
                f"from {u} color {c1} to {v} color {c2}"
            )
    return "\n".join(lines) + "\n"
