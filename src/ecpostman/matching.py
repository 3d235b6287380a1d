"""Exact minimum-weight perfect matching on general weighted graphs.

The matcher is ``blossom.max_weight_perfect_matching``, an in-repo port
of networkx's blossom implementation (Galil's primal-dual form of
Edmonds' algorithm). It starts each vertex at its own dual and greedily
matches the edges tight there, as Blossom V does (Kolmogorov, 2009), and
one run either ends perfect or proves that no perfect matching exists.
It runs on reflected weights, so that the minimum-weight perfect
matching drops out exactly; with integer weights every comparison is
exact, and the dual certificate is checked on every call that returns a
matching. ``min_weight_perfect_matching`` owns the check of the mate it
gets back: symmetric, no vertex single, every pair an instance edge.
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

from bisect import bisect_left
from dataclasses import dataclass
from operator import itemgetter

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


@dataclass(frozen=True)
class MatchingInstance:
    """Normalized matching input: no loops, no parallel edges.

    ``edges`` holds (u, v, weight) with u < v, sorted by endpoints, one
    edge per vertex pair: a true weight times ``scale`` plus a tie term
    (1 and 0 unless the instance is canonical). The auxiliary-graph
    builders make their instances directly, as the sorted tuple of their
    edges: they emit every pair once, with u < v, in range and at a
    non-negative weight. ``oracle.instance_from_edges`` normalizes any
    edge list, for the tests.
    """

    n: int
    edges: tuple[tuple[int, int, int], ...]
    scale: int = 1


@dataclass(frozen=True)
class PerfectMatching:
    pairs: tuple[tuple[int, int], ...]  # (u, v) with u < v, sorted
    weight: int  # true weight: the instance weights summed, divided by its scale


def min_weight_perfect_matching(inst: MatchingInstance) -> PerfectMatching | None:
    """Minimum-weight perfect matching, or None when no perfect matching exists.

    Exact: weights are reflected as 2*(C - w) with C above the maximum
    weight, and a maximum-weight perfect matching on the reflected graph
    is a minimum-weight perfect matching on the instance. The reflected
    weights are passed as a generator, which the matcher reads once.
    """
    if inst.n == 0:
        return PerfectMatching((), 0)
    if not inst.edges:
        return None
    # doubled: every vertex's largest reflected weight is then even, so the
    # matcher's per-vertex start needs no rounding up
    ceiling = 1 + max(inst.edges, key=itemgetter(2))[2]
    reflected = ((u, v, 2 * (ceiling - w)) for u, v, w in inst.edges)
    mate = max_weight_perfect_matching(inst.n, reflected)
    if mate is None:
        return None
    pairs = tuple((u, v) for u, v in enumerate(mate) if u < v)
    if 2 * len(pairs) != inst.n:
        raise InvariantError("matching backend returned a non-perfect matching")
    edges, total = inst.edges, 0
    for u, v in pairs:
        # (u, v) sorts just before its instance edge (u, v, w), if there is one
        i = bisect_left(edges, (u, v))
        if mate[v] != u or i == len(edges) or edges[i][:2] != (u, v):
            raise InvariantError("matching backend returned a non-perfect matching")
        total += edges[i][2]
    return PerfectMatching(pairs, total // inst.scale)
