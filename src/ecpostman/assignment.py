"""Minimum-cost perfect assignment on a dense integer matrix.

This is the shortest augmenting path method of R. Jonker and A.
Volgenant ("A shortest augmenting path algorithm for dense and sparse
linear assignment problems", Computing 38, 1987), in the form that D.
F. Crouse gives ("On implementing 2D rectangular assignment
algorithms", IEEE Trans. AES 52(4), 2016). It keeps a row dual u and a
column dual v with every reduced cost ``cost[i][j] - u[i] - v[j]``
non-negative and every matched entry's zero, starting from a row
reduction (u = the row minima, v = 0) and a greedy match of tight
entries. Each row still single then grows a Dijkstra tree over the
columns in reduced costs until it reaches a single column, the duals
move so that the tree's path is tight, and the path is flipped. Each
row the tree reaches costs one pass over the columns not yet settled,
so a single row costs O(n^2) and the whole method O(n^3).

A forbidden pair holds ``forbidden``, a sentinel above the cost of any
perfect assignment of finite entries. The method runs on the whole
matrix, so it finds such an assignment whenever one exists; if its
optimum still takes a sentinel, none exists, and it returns None: a
sentinel is never matched. Every other result has passed
:func:`verify_assignment`, which raises :class:`InvariantError` and so
also holds under ``python -O``.
"""

from __future__ import annotations

from collections.abc import Sequence
from operator import sub

from .graph import InvariantError


def min_cost_assignment(rows: Sequence[Sequence[int]], forbidden: int) -> list[int] | None:
    """The column of each row in a minimum-cost perfect assignment, or None.

    ``rows`` is a square matrix of integers: the finite costs, and
    ``forbidden`` on every pair that may not be matched. ``forbidden``
    must exceed the cost of any perfect assignment of finite entries
    (n times the largest finite cost will do). Rows are read, not
    changed, so several rows may be one list. None means that every
    perfect assignment takes a forbidden pair.
    """
    n = len(rows)
    u = [min(row) for row in rows]
    v = [0] * n
    col4row = [-1] * n
    row4col = [-1] * n
    single = []
    for i, row in enumerate(rows):
        try:
            j = row.index(u[i])
            while row4col[j] >= 0:
                j = row.index(u[i], j + 1)
        except ValueError:
            single.append(i)
            continue
        col4row[i] = j
        row4col[j] = i
    for free in single:
        # dist[j]: the reduced length of the shortest path from ``free`` to
        # column j found so far, through the row pred[j]; ``todo`` lists the
        # columns not yet settled and ``done`` the settled ones
        i = free
        h = -u[i]
        dist = [c + h - vj for c, vj in zip(rows[i], v)]
        pred = [i] * n
        todo = list(range(n))
        done = []
        tree = []  # the matched rows the tree reached
        while True:
            far = min(todo, key=dist.__getitem__)
            best = dist[far]
            todo.remove(far)
            done.append(far)
            i = row4col[far]
            if i < 0:
                break
            tree.append(i)
            row = rows[i]
            h = best - u[i]
            for j in todo:
                r = row[j] + h - v[j]
                if r < dist[j]:
                    dist[j] = r
                    pred[j] = i
        # move the duals: every tree entry on a shortest path becomes tight,
        # and no reduced cost turns negative
        u[free] += best
        for i in tree:
            u[i] += best - dist[col4row[i]]
        for j in done:
            v[j] -= best - dist[j]
        j = far  # flip the path back from the single column it reached
        while True:
            i = pred[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == free:
                break
    for i, row in enumerate(rows):
        if row[col4row[i]] == forbidden:
            return None
    verify_assignment(rows, forbidden, col4row, u, v)
    return col4row


def verify_assignment(
    rows: Sequence[Sequence[int]],
    forbidden: int,
    col4row: Sequence[int],
    u: Sequence[int],
    v: Sequence[int],
) -> None:
    """Check the dual certificate of a minimum-cost perfect assignment.

    The arguments are the end state of :func:`min_cost_assignment`:
    ``col4row`` must match every row to its own column along a finite
    entry, every reduced cost ``rows[i][j] - u[i] - v[j]`` must be
    non-negative, and every matched entry's zero. Then any perfect
    assignment of finite entries costs at least sum(u) + sum(v), which
    this one costs. The method keeps the reduced costs of the forbidden
    entries non-negative too, so one pass over each row checks them all,
    with no test for the sentinel. Raises :class:`InvariantError` when a
    condition fails.
    """

    def fail(what: str) -> None:
        raise InvariantError(f"assignment optimality certificate broken: {what}")

    n = len(rows)
    if sorted(col4row) != list(range(n)):
        fail("the rows are not matched to distinct columns")
    for i, (row, ui, j) in enumerate(zip(rows, u, col4row)):
        if row[j] == forbidden:
            fail(f"row {i} is matched along a forbidden pair")
        if row[j] - ui != v[j]:
            fail(f"matched entry ({i}, {j}) has a non-zero reduced cost")
        if min(map(sub, row, v)) < ui:
            fail(f"row {i} has a negative reduced cost")
