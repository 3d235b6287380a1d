"""Auxiliary matching graph for the edge-colored postman solver.

A vertex u of degree d(u) gets d(u) - 2*d_c(u) interchangeable "slot"
vertices for each color c present at u on less than half of its edges.
This is the exact reduction of the full model (``oracle``) to its live
slots: the full model also gives d(u) slots to each of the k - p colors
absent at u (p colors present), but no walk leaves u in such a color.

The model is built on the input graph itself, parallel edges and any
color count included. Every owner u ends up with a vertex count
≡ d(u) (mod 2), which is all a perfect matching needs: u's vertices
pair up among themselves or end one walk edge each, so the duplicated
walks end at u a number of times ≡ d(u), and every degree ends even.
- A balanced owner (no color on more than half of its edges) has
  sum_c (d(u) - 2*d_c(u)) = (p - 2)*d(u) slots in one zero-weight
  clique. One "parity" vertex joins that clique iff (p - 1)*d(u) is
  odd, so the count is ≡ (p - 2)*d(u) + (p - 1)*d(u) ≡ d(u). For an
  odd k, p - 1 ≡ k - p: the parity of the full model's k - p classes of
  d(u) absent-color slots, which is why the paper asks for an odd k.
- A dominant owner (color i on more than half of its edges) has
  (p - 1)*d(u) - 2*(d(u) - d_i(u)) slots and (p - 2)*d(u) "filler"
  vertices, a zero-weight clique joined to every slot of u. Slots minus
  fillers is 2*d_i(u) - d(u) ≡ d(u), the least number of walk ends at
  u, since each filler absorbs at most one slot.
- A balanced two-color vertex (p = 2, d(u) even) gets no vertex at
  all, and the builder skips it before any slot arithmetic.
Dijkstra keeps witnesses as edge-id sequences and the Euler trail pairs
edge ends, so parallel edges need no subdivision. The walk finder runs
on the edge screen's numbering (``pcwalks``): a pass-through vertex
(degree 2, two colors, as every middle vertex of a digraph encoding)
owns no class and has no state, and a chain of them is one move.

Every other slot pair (a at (u, i), b at (v, j)) receives an edge
weighted by the minimum properly colored fixed-end walk from u to v with
end colors (i, j), when one exists. One Dijkstra run per class (u, i)
labels every state id; each later class (v, j) reads the label of its
state, so the walk is looked up once per pair of slot classes, and its
witness, the edge-id sequence, is stored once per signature (u, i, v, j).
An absent color costs no walk table, and neither does a class with no
slot pair left to weigh.

The builder reads each vertex's degree and color-count row, and keeps
only the dominant owners' colors (``MatchingGraph.dominant``). It keeps
the edges as blocks over index ranges, one per artificial clique or
biclique and one per pair of slot classes: all vertices exist before
the first walk edge, so the scale B is known, and a class pair weighs
w*B + tie_break(signature) straight away, the first two rounds of the
mix done once per class (u, i). Nothing is made per edge; the matcher's
input and the ``AuxEdge`` list are built from the blocks on demand.

A model with no artificial edge and no filler or parity vertex, such as
that of every two-colored input, may be bipartite. The builder decides
that on the class graph, from the walk blocks (``dense_assignment``): no
block pairs a class with itself, the classes 2-color, and both sides
hold the same number of slots. Then it writes one dense cost row per
class of one side, a block at a time, and the solver matches the model
by the assignment (``matching.DenseAssignment``); the blossom's
adjacency (``MatchingGraph.instance``) is written only when something
asks for it. Every other model goes to the blossom.

A perfect matching here exists iff the postman instance is solvable,
and its minimum weight is exactly the duplication cost of an optimal
tour. The structure of every perfect matching follows from the vertex
counts above; the solver checks only their consequence, that the
duplicated graph is even and balanced (``build_transition_system``).
``oracle.validate_matching_structure`` checks the counts themselves,
for the tests.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import cached_property
from typing import NamedTuple

from .graph import ColoredMultigraph, GraphError, _new_tuple
from .matching import TIE_BITS, DenseAssignment, MatchingInstance, tie_end, tie_mix
from .pcwalks import Numbering, ShortestWalkFinder, color_states

NOT_AN_EDGE = "not an edge"  # what MatchingGraph.signature returns for a non-edge


class SlotVertex(NamedTuple):
    """One auxiliary vertex; ``color`` is None for filler and parity vertices."""

    owner: int
    color: int | None
    copy: int


class AuxEdge(NamedTuple):
    a: int
    b: int
    weight: int
    signature: tuple[int, int, int, int] | None  # (u, c1, v, c2); None = artificial

    @property
    def artificial(self) -> bool:
        return self.signature is None


Block = tuple[Sequence[int], Sequence[int], int]  # (a_slots, b_slots, weight)


class MatchingGraph:
    """Materialized auxiliary graph over an immutable input graph.

    ``dominant`` maps each owner with a dominant color to that color; a
    color-less vertex is a filler there and a parity vertex elsewhere.
    ``blocks`` holds the edges in build order, a block per artificial
    clique or biclique and per pair of slot classes: ``(a_slots, b_slots,
    w)`` stands for the edges (a, b, w), a < b, of a in a_slots and b in
    b_slots, at the canonical weight w (0 when artificial). A block pairs
    a range with itself (a clique) or lies wholly below its second range.
    ``scale`` is the B of the canonical weights. ``assignment`` holds the
    cost rows of a bipartite model (``dense_assignment``), which the
    solver matches in place of ``instance``, and is None on every other
    model. Models compare equal only to themselves.
    """

    def __init__(
        self,
        g: ColoredMultigraph,
        vertices: list[SlotVertex],
        blocks: list[Block],
        witnesses: dict[tuple[int, int, int, int], tuple[int, ...]],
        slot_indices: dict[tuple[int, int], Sequence[int]],
        filler_indices: dict[int, Sequence[int]],
        dominant: dict[int, int],
        scale: int,
        assignment: DenseAssignment | None,
    ) -> None:
        self.g = g
        self.vertices = vertices
        self.blocks = blocks
        self.witnesses = witnesses
        self.slot_indices = slot_indices
        self.filler_indices = filler_indices
        self.dominant = dominant
        self.scale = scale
        self.assignment = assignment

    def signature(self, a: int, b: int) -> tuple[int, int, int, int] | None | str:
        """Classify the vertex pair {a, b} from its two vertices.

        None for an artificial edge (both vertices of one owner, which is
        balanced or one of them color-less), the walk signature for a
        walk edge, and ``NOT_AN_EDGE`` otherwise. A walk signature has a
        color at both ends, so no walk edge touches a color-less vertex.
        """
        if a == b:
            return NOT_AN_EDGE
        x, y = self.vertices[min(a, b)], self.vertices[max(a, b)]
        if x.owner == y.owner and (None in (x.color, y.color) or x.owner not in self.dominant):
            return None  # one owner: balanced, or one end color-less
        sig = (x.owner, x.color, y.owner, y.color)
        return sig if sig in self.witnesses else NOT_AN_EDGE

    @cached_property
    def instance(self) -> MatchingInstance:
        """The blossom's input, written from the blocks: each edge once, as
        the matcher's record at each of its ends (``MatchingInstance``)."""
        adj: list[list[tuple[int, int, int]]] = [[] for _ in self.vertices]
        for a_slots, b_slots, w in self.blocks:
            r = -4 * w
            for a in a_slots:
                row = adj[a]
                for b in b_slots:
                    if a < b:
                        row.append((a, b, r))
                        adj[b].append((b, a, r))
        return MatchingInstance(len(self.vertices), adj, self.scale)

    @cached_property
    def edges(self) -> list[AuxEdge]:
        """The edges in build order, a < b, with their true weights (for dumps and tests).

        The builders emit every pair once, so ``oracle.instance_from_edges``,
        given each edge at its canonical weight w*B + tie_break(signature),
        makes the instance that ``instance`` holds.
        """
        scale, signature = self.scale, self.signature
        return [AuxEdge(a, b, w // scale, signature(a, b))
                for a_slots, b_slots, w in self.blocks for a in a_slots for b in b_slots if a < b]

    @cached_property
    def edge_by_pair(self) -> dict[tuple[int, int], AuxEdge]:
        return {(e.a, e.b): e for e in self.edges}


def with_walk_edges(g, vertices, blocks, slot_indices, filler_indices, dominant, numbering):
    """Append the walk blocks to the artificial ``blocks``; wrap the model.

    Shared by both builders; ``numbering`` gives every class owner its
    states, and the other arguments are the ``MatchingGraph`` fields of
    the same names. ``slot_indices`` lists the slot classes in ascending
    index order, so pairing each class with itself and every later class
    visits each slot pair a < b once, and every such block has a pair.
    A model with no artificial block and no vertex but slots may be
    bipartite, which ``dense_assignment`` decides from the walk blocks.
    """
    finder = ShortestWalkFinder(g, numbering)
    state_at = finder.state_at
    scale = (len(vertices) // 2 << TIE_BITS) + 1
    witnesses = {}
    classes = list(slot_indices.items())
    ends = {u: j + 1 for j, (u, _) in enumerate(slot_indices)}  # past u's last class
    slots_only = not blocks and sum(map(len, slot_indices.values())) == len(vertices)
    for i, ((u, cu), a_slots) in enumerate(classes):
        # a balanced owner's classes pair among themselves only artificially,
        # and a class pairs with itself only if it has two slots
        later = classes[i + (len(a_slots) < 2) if u in dominant else ends[u]:]
        if not later:
            continue  # no partner class: nobody would read the walk table
        labels = finder.labels(u, cu)
        prefix = tie_mix(4, (u, cu))  # tie_break((u, cu, v, cv)) up to its last rounds
        for (v, cv), b_slots in later:
            s = state_at[v].get(cv)  # the full model asks about absent colors
            hit = None if s is None else labels[s]
            if hit is None:
                continue
            w = hit[0] * scale + tie_end(tie_mix(prefix, (v, cv)))
            witnesses[(u, cu, v, cv)] = hit[1]
            blocks.append((a_slots, b_slots, w))
    assignment = dense_assignment(classes, blocks, scale) if slots_only else None
    return MatchingGraph(g, vertices, blocks, witnesses, slot_indices, filler_indices, dominant,
                         scale, assignment)


def dense_assignment(classes, blocks, scale) -> DenseAssignment | None:
    """The cost rows of a bipartite model, or None when it is not one.

    ``classes`` are the slot classes in ascending index order and
    ``blocks`` the walk blocks between them, the model's only edges; its
    only vertices are slots. It is bipartite when no block pairs a class
    with itself, the class graph 2-colors, and both sides hold the same
    number of slots. The first class of each component goes to the rows'
    side. A column per slot of the other side, in index order; every
    slot of a class shares its class's row, which holds w across each
    partner class and ``forbidden``, the rows' count times the largest w
    plus one, elsewhere.
    """
    position = {slots[0]: i for i, (_, slots) in enumerate(classes)}
    pairs = [(position[a_slots[0]], position[b_slots[0]]) for a_slots, b_slots, _ in blocks]
    partners: list[list[int]] = [[] for _ in classes]
    for i, j in pairs:
        if i == j:
            return None
        partners[i].append(j)
        partners[j].append(i)
    side = [-1] * len(classes)
    for root in range(len(classes)):
        if side[root] >= 0:
            continue
        side[root] = 0
        stack = [root]
        while stack:
            i = stack.pop()
            other = 1 - side[i]
            for j in partners[i]:
                if side[j] < 0:
                    side[j] = other
                    stack.append(j)
                elif side[j] != other:
                    return None  # an odd cycle of classes
    left: list[int] = []
    right: list[int] = []
    column = [0] * len(classes)  # a column class's first column
    for i, (_, slots) in enumerate(classes):
        if side[i]:
            column[i] = len(right)
            right.extend(slots)
        else:
            left.extend(slots)
    if len(left) != len(right):
        return None
    # above the weight of any perfect matching
    forbidden = len(left) * max([w for _, _, w in blocks], default=0) + 1
    row_of = [None if s else [forbidden] * len(right) for s in side]
    for (i, j), (a_slots, b_slots, w) in zip(pairs, blocks):
        if side[i]:
            i, j, b_slots = j, i, a_slots
        start = column[j]
        row_of[i][start:start + len(b_slots)] = [w] * len(b_slots)
    rows = [row_of[i] for i, (_, slots) in enumerate(classes) if not side[i] for _ in slots]
    return DenseAssignment(left, right, rows, forbidden, scale)


def build_matching_graph(g: ColoredMultigraph, numbering: Numbering | None = None) -> MatchingGraph:
    """Construct the live-slot auxiliary matching graph of g.

    Requires no vertex incident to a single color only. Walk edges are
    built per pair of slot classes (u, c) and (v, c'): one lookup in the
    walk table for (u, c) gives the weight and witness edge ids shared
    by every slot pair between the two classes. ``numbering`` is the
    edge screen's ``color_states(g, ())``, made here when None.
    """
    vertices: list[SlotVertex] = []
    blocks: list[Block] = []
    slot_indices: dict[tuple[int, int], range] = {}
    filler_indices: dict[int, range] = {}
    dominant: dict[int, int] = {}
    # indices ascend within an owner (slots by color, then its filler or
    # parity vertices), so every artificial pair is (smaller, larger)
    for u, (ends, counts) in enumerate(zip(g.incidence, g._color_counts)):
        d = len(ends)
        top = max(counts, default=0)
        if 2 * top == d and counts.count(top) == 2:
            continue  # a balanced two-color vertex (or none at all): no slot
        if d and top == d:
            raise GraphError(f"vertex {u} is incident to a single color only")
        present = g.k - counts.count(0)
        first = len(vertices)
        for c, count in enumerate(counts, start=1):
            if count and d > 2 * count:
                slot_indices[(u, c)] = range(len(vertices), len(vertices) + d - 2 * count)
                vertices.extend(_new_tuple(SlotVertex, (u, c, i)) for i in range(d - 2 * count))
        if 2 * top <= d:
            if (present - 1) * d % 2:
                vertices.append(_new_tuple(SlotVertex, (u, None, 0)))  # the parity vertex
            owned = range(first, len(vertices))
            if len(owned) > 1:
                blocks.append((owned, owned, 0))
        else:
            dominant[u] = counts.index(top) + 1
            slots = range(first, len(vertices))
            filler_indices[u] = fill = range(len(vertices), len(vertices) + (present - 2) * d)
            vertices.extend(_new_tuple(SlotVertex, (u, None, i)) for i in range(len(fill)))
            if fill:
                blocks.append((fill, fill, 0))
                blocks.append((slots, fill, 0))
    return with_walk_edges(g, vertices, blocks, slot_indices, filler_indices, dominant,
                           numbering or color_states(g, ()))


def dump_matching_graph(mg: MatchingGraph) -> str:
    """Line-oriented debug dump of the auxiliary graph (0-based ids)."""
    lines = [f"aux-graph vertices {len(mg.vertices)} edges {len(mg.edges)}"]
    for idx, sv in enumerate(mg.vertices):
        if sv.color is None:
            cls = "filler" if sv.owner in mg.dominant else "parity"
        else:
            cls = f"slot color {sv.color}"
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
