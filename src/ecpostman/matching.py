"""Exact minimum-weight perfect matching on general weighted graphs.

The matcher is ``blossom.max_weight_matching``, an in-repo port of
networkx's blossom implementation (Galil's primal-dual form of Edmonds'
algorithm) that keeps networkx's iteration orders and tie-breaks, so it
returns the very matching networkx would. It runs in maximum-cardinality
mode on reflected weights, so that the minimum-weight perfect matching
drops out exactly; with integer weights every comparison is exact, and
the dual certificate is checked on every call. The brute-force
enumerator in ``oracle`` is the independent reference it is checked
against, and the tests compare it pair for pair with networkx.
"""

from __future__ import annotations

from dataclasses import dataclass

from .blossom import SINGLE, max_weight_matching
from .graph import GraphError, InvariantError


@dataclass(frozen=True)
class MatchingInstance:
    """Canonical matching input: loops rejected, parallel edges collapsed.

    ``edges`` holds (u, v, weight) with u < v, sorted by endpoints, each
    pair carrying the minimum weight seen for it.
    """

    n: int
    edges: tuple[tuple[int, int, int], ...]

    @classmethod
    def from_edges(
        cls, n: int, edges: list[tuple[int, int, int]] | tuple
    ) -> "MatchingInstance":
        best: dict[tuple[int, int], int] = {}
        for u, v, w in edges:
            if u == v:
                raise GraphError("matching instances may not contain loops")
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError("matching edge endpoint out of range")
            if w < 0:
                raise GraphError("matching weights must be non-negative")
            key = (u, v) if u < v else (v, u)
            if key not in best or w < best[key]:
                best[key] = w
        return cls(n, tuple((u, v, best[(u, v)]) for (u, v) in sorted(best)))


@dataclass(frozen=True)
class PerfectMatching:
    pairs: tuple[tuple[int, int], ...]  # (u, v) with u < v, sorted
    weight: int


def min_weight_perfect_matching(inst: MatchingInstance) -> PerfectMatching | None:
    """Minimum-weight perfect matching, or None when no perfect matching exists.

    Exact: weights are reflected as (C - w) with C above the maximum
    weight, and a maximum-cardinality maximum-weight matching on the
    reflected graph is a minimum-weight perfect matching whenever the
    maximum cardinality reaches n/2.
    """
    if inst.n == 0:
        return PerfectMatching((), 0)
    if not inst.edges:
        return None
    ceiling = 1 + max(w for _, _, w in inst.edges)
    mate = max_weight_matching(inst.n, [(u, v, ceiling - w) for u, v, w in inst.edges])
    if SINGLE in mate:
        return None
    pairs = tuple((u, v) for u, v in enumerate(mate) if u < v)
    lookup = {(u, v): w for u, v, w in inst.edges}
    if 2 * len(pairs) != inst.n or any(
        mate[v] != u or (u, v) not in lookup for u, v in pairs
    ):
        raise InvariantError("matching backend returned a non-perfect matching")
    return PerfectMatching(pairs, sum(lookup[p] for p in pairs))
