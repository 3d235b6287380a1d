"""Exact minimum-weight perfect matching on general weighted graphs.

The matcher is ``blossom.max_weight_perfect_matching``, an in-repo port
of networkx's blossom implementation (Galil's primal-dual form of
Edmonds' algorithm). It starts each vertex at its own dual and greedily
matches the edges tight there, as Blossom V does (Kolmogorov, 2009), and
one run either ends perfect or proves that no perfect matching exists.
It runs on reflected weights, so that the minimum-weight perfect
matching drops out exactly; with integer weights every comparison is
exact, and the dual certificate is checked on every call that returns a
matching. A ``MatchingInstance`` is already in the matcher's form, one
adjacency list of reflected records per vertex, so nothing is copied on
the way in. ``min_weight_perfect_matching`` owns the check of the mate
it gets back: symmetric, no vertex single, every pair an instance edge.
The brute-force enumerator in ``oracle`` is the independent reference
it is checked against, and the tests compare its weight with
networkx's, and its pairs wherever the optimum is unique.

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
    tie term (1 and 0 unless the instance is canonical). ``ceiling``
    exceeds every w, and ``adj[u]`` lists the record
    ``(u, v, 4*(ceiling - w))`` of each edge at u, in no set order: the
    weight reflected as 2*(ceiling - w), as ``min_weight_perfect_matching``
    says, and doubled for the matcher's dual units. The reflected weights
    are even, so the matcher's per-vertex start needs no rounding up.
    Every edge is listed at both ends, with no loops and at most one edge
    per vertex pair. The auxiliary-graph
    builders write ``adj`` directly; ``oracle.instance_from_edges``
    normalizes any edge list into the same form, for the tests.
    Instances compare equal by value, records in order.
    """

    def __init__(self, n: int, adj: list[list[tuple[int, int, int]]], ceiling: int,
                 scale: int = 1) -> None:
        self.n = n
        self.adj = adj
        self.ceiling = ceiling
        self.scale = scale

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MatchingInstance):
            return NotImplemented
        return (self.n, self.adj, self.ceiling, self.scale) == (
            other.n, other.adj, other.ceiling, other.scale)

    @cached_property
    def edges(self) -> tuple[tuple[int, int, int], ...]:
        """(u, v, w) with u < v, sorted by endpoints: a view for the oracle and the tests."""
        c = self.ceiling
        return tuple(sorted((u, v, c - (r >> 2)) for recs in self.adj for u, v, r in recs if u < v))


class PerfectMatching(NamedTuple):
    pairs: tuple[tuple[int, int], ...]  # (u, v) with u < v, sorted
    weight: int  # true weight: the instance weights summed, divided by its scale


def min_weight_perfect_matching(inst: MatchingInstance) -> PerfectMatching | None:
    """Minimum-weight perfect matching, or None when no perfect matching exists.

    Exact: the instance's records weigh 2*(C - w) with C above every
    weight w (doubled once more for the matcher's units), and a
    maximum-weight perfect matching on these reflected weights is a
    minimum-weight perfect matching on the instance. The matcher reads
    ``inst.adj`` as it is; each matched pair is looked up in it, which
    checks the pair and gives its weight.
    """
    adj = inst.adj
    mate = max_weight_perfect_matching(inst.n, adj)
    if mate is None:
        return None
    pairs = tuple((u, v) for u, v in enumerate(mate) if u < v)
    if 2 * len(pairs) != inst.n:
        raise InvariantError("matching backend returned a non-perfect matching")
    reflected = 0
    for u, v in pairs:
        if mate[v] != u:
            raise InvariantError("matching backend returned a non-perfect matching")
        for _, x, r in adj[u]:
            if x == v:
                reflected += r
                break
        else:
            raise InvariantError("matching backend returned a non-perfect matching")
    # each record weighs 4*(C - w), so the pairs' weights sum to this
    return PerfectMatching(pairs, (len(pairs) * inst.ceiling - (reflected >> 2)) // inst.scale)
