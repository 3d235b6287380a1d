"""Exact minimum-weight perfect matching on the auxiliary models.

A bipartite model (``auxgraph.dense_assignment``) is a
``DenseAssignment``, a square matrix of its edge weights, and goes to
``assignment.min_cost_assignment``, Jonker and Volgenant's shortest
augmenting path method, which checks its own dual certificate (every
reduced cost non-negative, every matched one zero) and returns no
forbidden pair. Every other model is a ``MatchingInstance`` and goes to
``blossom.max_weight_perfect_matching``, an in-repo port of networkx's
blossom implementation (Galil's primal-dual form of Edmonds'
algorithm). It starts each vertex at its own dual and greedily matches
the edges tight there, as Blossom V does (Kolmogorov, 2009), and one
run either ends perfect or proves that no perfect matching exists. It
maximizes the negated weights, so that the minimum-weight perfect
matching drops out exactly; with integer weights every comparison is
exact, and the blossom's dual certificate, which includes a symmetric
mate, is checked on every call that returns a matching. A
``MatchingInstance`` is already in the matcher's form, one adjacency
list of negated records per vertex, so nothing is copied on the way in.
``min_weight_perfect_matching`` checks the rest of the mate the blossom
gives back: no vertex single, every pair an instance edge. The
brute-force enumerator in ``oracle`` is the independent reference both
matchers are checked against, the tests compare the blossom's weight
with networkx's, and its pairs wherever the optimum is unique, and they
compare the assignment with the blossom on the same models.

Which of several optima the matcher returns depends on its scan order.
A canonical instance makes the optimum independent of that order (the
isolation lemma of Mulmuley, Vazirani and Vazirani, 1987): an edge of
weight w and key s weighs w*B + tie_break(s), B = (n/2)*2**20 + 1. The
n/2 tie terms of a perfect matching sum to less than B, so a perturbed
optimum is a true one, and ties between true optima fall to the keys.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

from .assignment import min_cost_assignment
from .blossom import max_weight_perfect_matching
from .graph import InvariantError

TIE_BITS = 20


def tie_break(key: tuple[int, ...]) -> int:
    """A fixed mix of non-negative ints into [1, 2**TIE_BITS], equal in every process."""
    return tie_end(tie_mix(len(key), key))


def tie_mix(x: int, parts: tuple[int, ...]) -> int:
    """The rounds of ``tie_break``, part by part: keys that share a prefix mix it once."""
    for part in parts:
        x = (x ^ part) * 0x9E3779B97F4A7C15 & 0xFFFFFFFFFFFFFFFF
        x ^= x >> 29
    return x


def tie_end(x: int) -> int:
    return ((x * 0x9E3779B97F4A7C15 & 0xFFFFFFFFFFFFFFFF) >> (64 - TIE_BITS)) + 1


class MatchingInstance:
    """Normalized matching input in the matcher's own form.

    Each edge {u, v} has a weight w: a true weight times ``scale`` plus a
    tie term (1 and 0 unless the instance is canonical). ``adj[u]`` lists
    the record ``(u, v, -4*w)`` of each edge at u, in no set order: the
    weight negated and doubled to -2*w, as ``min_weight_perfect_matching``
    says, and doubled again for the matcher's dual units. The records
    are even, so the matcher's per-vertex start needs no rounding up.
    Every edge is listed at both ends, with no loops and at most one edge
    per vertex pair. ``auxgraph.MatchingGraph.instance`` writes ``adj``
    from the model's blocks; ``oracle.instance_from_edges`` normalizes
    any edge list into the same form, for the tests.
    Instances compare equal by value, records in order.
    """

    def __init__(self, n: int, adj: list[list[tuple[int, int, int]]], scale: int = 1) -> None:
        self.n = n
        self.adj = adj
        self.scale = scale

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MatchingInstance):
            return NotImplemented
        return (self.n, self.adj, self.scale) == (other.n, other.adj, other.scale)

    @cached_property
    def edges(self) -> tuple[tuple[int, int, int], ...]:
        """(u, v, w) with u < v, sorted by endpoints: a view for the oracle and the tests."""
        return tuple(sorted((u, v, -(r >> 2)) for recs in self.adj for u, v, r in recs if u < v))


class DenseAssignment:
    """A bipartite instance as the square cost matrix of ``assignment``.

    ``rows[r][c]`` is the weight of the edge {left[r], right[c]}, in the
    units of ``MatchingInstance`` (true weight times ``scale`` plus a tie
    term), or ``forbidden`` when there is no such edge. ``forbidden``
    exceeds the weight of any perfect matching, and rows may share a list.
    ``n`` and ``edges`` are the views that ``MatchingInstance`` offers.
    """

    def __init__(self, left: list[int], right: list[int], rows: list[list[int]], forbidden: int,
                 scale: int) -> None:
        self.left = left
        self.right = right
        self.rows = rows
        self.forbidden = forbidden
        self.scale = scale

    @property
    def n(self) -> int:
        return len(self.left) + len(self.right)

    @cached_property
    def edges(self) -> tuple[tuple[int, int, int], ...]:
        """(u, v, w) with u < v, sorted by endpoints: a view for the oracle and the tests."""
        forbidden = self.forbidden
        return tuple(sorted((min(a, b), max(a, b), w) for a, row in zip(self.left, self.rows)
                            for b, w in zip(self.right, row) if w != forbidden))


class PerfectMatching(NamedTuple):
    pairs: tuple[tuple[int, int], ...]  # (u, v) with u < v, sorted
    weight: int  # true weight: the instance weights summed, divided by its scale


def min_weight_perfect_matching(inst: MatchingInstance | DenseAssignment) -> PerfectMatching | None:
    """Minimum-weight perfect matching, or None when no perfect matching exists.

    A ``DenseAssignment`` goes to ``assignment.min_cost_assignment``,
    which has checked its own dual certificate; its rows and columns
    become the pairs, and its entries sum to the weight. A
    ``MatchingInstance`` goes to the blossom. That is exact: the
    instance's records weigh -2*w (doubled once more for the matcher's
    units), and a maximum-weight perfect matching on these negated
    weights is a minimum-weight perfect matching on the instance. The
    matcher reads ``inst.adj`` as it is; each matched pair is looked up
    in it, which checks the pair and gives its weight.
    """
    if isinstance(inst, DenseAssignment):
        col4row = min_cost_assignment(inst.rows, inst.forbidden)
        if col4row is None:
            return None
        right = inst.right
        pairs = sorted((a, b) if a < b else (b, a)
                       for a, b in zip(inst.left, [right[c] for c in col4row]))
        weight = sum(map(list.__getitem__, inst.rows, col4row))
        return PerfectMatching(tuple(pairs), weight // inst.scale)
    adj = inst.adj
    mate = max_weight_perfect_matching(inst.n, adj)
    if mate is None:
        return None
    pairs = tuple((u, v) for u, v in enumerate(mate) if u < v)
    if 2 * len(pairs) != inst.n:
        raise InvariantError("matching backend returned a non-perfect matching")
    negated = 0
    for u, v in pairs:
        for _, x, r in adj[u]:
            if x == v:
                negated += r
                break
        else:
            raise InvariantError("matching backend returned a non-perfect matching")
    # each record weighs -4*w
    return PerfectMatching(pairs, -(negated >> 2) // inst.scale)
