"""Minimum-weight properly colored walks with fixed ends and end colors.

A properly colored fixed-end walk from u to v with first color c1 and
last color c2 corresponds to a directed path in a layered state graph
whose states are (vertex, color of the entering edge), plus one source
state per query. One Dijkstra run from the source therefore answers
every (v, c2) target at once; all weights are non-negative.

The states are numbered densely (``color_states``), one per color
present at a vertex, once per solve: the solver reads its single-color
verdict off that numbering (``has_single_state``) and hands it to the
edge screen (``euler.uncoverable_edge``) and to the walk finder. Each
state's moves are the edges that leave its vertex in another color,
grouped by color once per graph (``other_colors``): at a two-color
vertex a state's moves are just the other color's group.

A walk that enters a pass-through vertex (degree 2, two colors) must
leave it along its other edge, so such a vertex needs no states unless
a caller reads them. ``color_states(g, keep)`` is the one place that
decides it: in the pass that numbers the states, a pass-through vertex
outside ``keep`` gets an empty entry, and every caller recognises a
chain vertex by that entry. The solver keeps none (``keep=()``): a
pass-through vertex owns no slot class of the live model. The full
model (``oracle.build_full_matching_graph``) keeps its class owners,
since with an odd k >= 3 a two-color vertex owns the classes of its
absent colors, and ``keep=None`` keeps every vertex, as the tests'
table view (``oracle.walk_table``) needs. The finder walks each chain
once, into one move each way that lists its edges and weighs their sum;
a kept state's label, witness included, is the uncontracted graph's.
"""

from __future__ import annotations

from collections.abc import Collection
from heapq import heappop, heappush

from .graph import ColoredMultigraph

# (weight, edge ids of a minimum walk, end state id)
Label = tuple[int, tuple[int, ...], int]
Numbering = tuple[list[dict[int, int]], int]  # color_states: (state_at, count)


def color_states(g: ColoredMultigraph, keep: Collection[int] | None = None) -> Numbering:
    """Number the (vertex, color) states of g densely; return them and their count.

    ``state_at[x]`` maps each color present at x to its state id, in the
    order the colors first occur in ``incidence[x]``. Ids ascend with the
    vertex, so the ids of one vertex are consecutive. This is the one
    definition of a contracted vertex: a pass-through vertex (degree 2,
    two colors) outside ``keep`` gets no states, an empty entry.
    ``keep=None`` keeps every vertex; an empty ``keep`` keeps no
    pass-through vertex.
    """
    state_at: list[dict[int, int]] = []
    count = 0
    for x, ends in enumerate(g.incidence):
        if len(ends) == 2:
            a = ends[0][2]
            b = ends[1][2]
            if a == b:
                state_at.append({a: count})
                count += 1
            elif keep is None or x in keep:
                state_at.append({a: count, b: count + 1})
                count += 2
            else:
                state_at.append({})
            continue
        states: dict[int, int] = {}
        for _, _, color, _ in ends:
            if color not in states:
                states[color] = count
                count += 1
        state_at.append(states)
    return state_at, count


def has_single_state(state_at: list[dict[int, int]]) -> bool:
    """True iff a vertex has exactly one state: it has edges, all of one color."""
    return 1 in map(len, state_at)


def other_colors(state_at: list[dict[int, int]], groups: list[list]) -> list[list]:
    """Per state (x, c): the entries of the groups of every other state at x.

    ``groups[s]`` holds one entry per edge that leaves the vertex of
    state s in the state's color; the groups come in state id order. A
    two-color state gets the other group itself, not a copy, a state
    of three or more colors the other groups joined by concatenation,
    and a single-color state an empty list. The callers only read the
    result.
    """
    out: list[list] = [[]] * len(groups)
    for states in state_at:
        size = len(states)
        if size == 2:
            s, t = states.values()
            out[s] = groups[t]
            out[t] = groups[s]
        elif size > 2:
            ids = states.values()
            for s in ids:
                joined: list = []
                for t in ids:
                    if t != s:
                        joined += groups[t]
                out[s] = joined
    return out


class ShortestWalkFinder:
    """Single-source shortest properly-colored-walk queries on one graph.

    One instance wraps one immutable graph and builds its state graph
    once, on a ``numbering`` (``color_states``; None numbers every
    state): ``state_at`` and, per state, its moves as (next state, edge
    ids, weight). A move across a chain of vertices without states lists
    the edges of the whole chain. ``labels`` runs Dijkstra on state ids
    from a (source vertex, first color), the key of a slot class in the
    auxiliary matching graph.
    """

    def __init__(self, g: ColoredMultigraph, numbering: Numbering | None = None):
        self.g = g
        incidence = g.incidence
        state_at, count = color_states(g) if numbering is None else numbering
        self.state_at = state_at
        leaving: list[list[tuple[int, tuple[int, ...], int]]] = [[] for _ in range(count)]
        walked = bytearray(len(g.edges))  # the last edges of the chains walked so far
        for states, ends in zip(state_at, incidence):
            if not states:
                continue  # contracted, or isolated
            for eid, y, color, w in ends:
                ahead = state_at[y]
                if ahead:
                    leaving[states[color]].append((ahead[color], (eid,), w))
                    continue
                if walked[eid]:
                    continue  # walked from its other end already
                # the chain ends at a kept vertex: it never comes back to a
                # vertex it crossed, since it used both of that vertex's edges
                start = states[color]
                eids = [eid]
                while not ahead:
                    a, b = incidence[y]
                    eid, y, color, step = b if a[2] == color else a
                    eids.append(eid)
                    w += step
                    ahead = state_at[y]
                walked[eid] = 1
                end = ahead[color]
                leaving[start].append((end, tuple(eids), w))
                leaving[end].append((start, tuple(eids[::-1]), w))
        self._leaving = leaving  # a run's first moves: the edges leaving u in color c1
        self._moves = other_colors(state_at, leaving)

    def labels(self, u: int, c1: int) -> list[Label | None]:
        """One Dijkstra run from u with first color c1, indexed by state id.

        Entry s is the least (weight, edge-id sequence, s) over the walks
        that end in state s, None if none does. The sequence breaks ties
        deterministically and doubles as the witness. An edge-id sequence
        fixes its end state, so ordering labels as whole tuples orders
        them by (weight, sequence), and one tuple serves as both the heap
        entry and the stored label. A contracted u raises ``ValueError``.
        """
        self.g._check_vertex(u)
        count = len(self._moves)
        labels: list[Label | None] = [None] * count
        start = self.state_at[u].get(c1)
        if start is None:
            if not self.state_at[u] and self.g.incidence[u]:
                raise ValueError(f"vertex {u} is contracted out of the state graph")
            return labels
        heap: list[Label] = []
        for t, eids, w in self._leaving[start]:
            label = (w, eids, t)
            old = labels[t]
            if old is None or label < old:
                labels[t] = label
                heappush(heap, label)
        moves = self._moves
        settled = [False] * count
        while heap:
            dist, seq, s = heappop(heap)
            if settled[s]:
                continue
            settled[s] = True
            for t, eids, w in moves[s]:
                if settled[t]:
                    continue
                label = (dist + w, seq + eids, t)
                old = labels[t]
                if old is None or label < old:
                    labels[t] = label
                    heappush(heap, label)
        return labels
