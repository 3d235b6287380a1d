"""Minimum-weight properly colored walks with fixed ends and end colors.

A properly colored fixed-end walk from u to v with first color c1 and
last color c2 corresponds to a directed path in a layered state graph
whose states are (vertex, color of the entering edge), plus one source
state per query. One Dijkstra run from the source therefore answers
every (v, c2) target at once; all weights are non-negative.
"""

from __future__ import annotations

import heapq

from .graph import ColoredMultigraph, PCWalk, walk_from_edges


class ShortestWalkFinder:
    """Memoized single-source shortest properly-colored-walk queries.

    One instance wraps one immutable graph; tables are cached per
    (source vertex, first color), the key of a slot class in the
    auxiliary matching graph.
    """

    def __init__(self, g: ColoredMultigraph):
        self.g = g
        self._tables: dict[tuple[int, int], dict[tuple[int, int], tuple[int, PCWalk]]] = {}

    def table(self, u: int, c1: int) -> dict[tuple[int, int], tuple[int, PCWalk]]:
        """Minima from u with first color c1, keyed by (end vertex, last color).

        Each value is (weight, witness walk); unreachable keys are absent.
        """
        key = (u, c1)
        cached = self._tables.get(key)
        if cached is None:
            cached = self._dijkstra(u, c1)
            self._tables[key] = cached
        return cached

    def _dijkstra(self, u: int, c1: int) -> dict[tuple[int, int], tuple[int, PCWalk]]:
        g = self.g
        g._check_vertex(u)
        incidence = g.incidence
        # heap entries (dist, edge-id sequence, vertex, entering color);
        # the sequence makes ties break deterministically and doubles as
        # the witness.
        heap: list[tuple[int, tuple[int, ...], int, int]] = []
        tentative: dict[tuple[int, int], tuple[int, tuple[int, ...]]] = {}
        for eid, other, color, w in incidence[u]:
            if color == c1:
                label = (w, (eid,))
                state = (other, color)
                if state not in tentative or label < tentative[state]:
                    tentative[state] = label
                    heapq.heappush(heap, (w, (eid,), other, color))
        settled: dict[tuple[int, int], tuple[int, tuple[int, ...]]] = {}
        while heap:
            dist, seq, x, c = heapq.heappop(heap)
            state = (x, c)
            if state in settled:
                continue
            settled[state] = (dist, seq)
            for eid, y, cy, w in incidence[x]:
                if cy == c:
                    continue
                nxt = (y, cy)
                if nxt in settled:
                    continue
                label = (dist + w, seq + (eid,))
                if nxt not in tentative or label < tentative[nxt]:
                    tentative[nxt] = label
                    heapq.heappush(heap, (label[0], label[1], y, cy))
        table: dict[tuple[int, int], tuple[int, PCWalk]] = {}
        for (x, c), (dist, seq) in settled.items():
            table[(x, c)] = (dist, walk_from_edges(g, u, seq))
        return table
