"""Maximum-weight perfect matching by Edmonds' blossom algorithm.

This is a port of ``max_weight_matching(G, maxcardinality=True)`` from
networkx 3.6.1 (``networkx/algorithms/matching.py``), which follows
Galil's primal-dual formulation ("Efficient Algorithms for Finding
Maximum Matching in Graphs", ACM Computing Surveys, 1986) of Edmonds'
blossom method. It keeps networkx's control flow and its strict ``<``
tie-breaks, but it answers one question only: a maximum-weight perfect
matching, or none. It does not start from the empty matching with every
vertex dual at maxweight. It uses the greedy initialization of Blossom V
(V. Kolmogorov, Math. Prog. Comp. 1 (2009) 43-67; see also U. Derigs and
A. Metz, Computing 36 (1986)): each vertex starts at its own dual, its
largest weight (rounded up to even in the doubled units used here), and
then, in id order, each vertex still single lowers its dual to the least
value that keeps its slacks non-negative and is matched along its first
tight edge to a single neighbour. So where optima tie it may return a
different one of the same weight. The start is a state that every stage
of the method assumes: every slack is non-negative, every matched edge
is tight, no blossom exists yet, and the duals of the single vertices
share one parity, so the S-S slacks that delta3 halves are even (an odd
one raises :class:`InvariantError`). Vertex duals are free in the
perfect-matching LP, so unequal starts still prove a perfect result
optimal: the conditions of :func:`verify_optimum` on slacks, matched
edges and blossoms are its certificate, checked on every call that
returns a matching.

One run decides whether a perfect matching exists. The stages stop when
a stage ends without augmenting, that is when no delta2, delta3 or
delta4 candidate is left. Then no top-level T-blossom is left, every
S-blossom is odd, and every edge that leaves an S-blossom ends at a
T-vertex: an edge to a free vertex or to another S-blossom would be
tight, and so scanned, or a candidate. Take T = the T-vertices. Each
T-vertex is matched to the base of its own S-blossom, and the base of
every other S-blossom is single, so G - T has at least |T| + (number of
single vertices) odd components, the S-blossoms among them. With a
single vertex left that exceeds |T|, so by Tutte's theorem no perfect
matching exists, whatever the duals (this is the Edmonds-Gallai
structure). The proof needs no certificate, so a run that ends with a
single vertex returns None unchecked.

Otherwise, what changed is the representation and some bookkeeping:

* vertices are ``0..n-1``; blossoms get the ids ``n, n+1, ...`` in
  creation order and an id is never reused, so per-blossom state lives in
  lists indexed by id next to the per-vertex state;
* the input is the adjacency itself: ``adj[v]`` holds the records
  ``(v, w, 2*weight)`` of the edges at v, in whatever order the caller
  wrote them (networkx scans ``G.neighbors(v)``), and the matcher copies
  no edge; a least-slack edge is kept as its record, so its slack needs
  no weight lookup;
* the live blossoms are the keys of the insertion-ordered ``blossomdual``
  dict, so "vertices, then live blossoms in creation order" is the order
  in which networkx walks ``blossomparent``;
* the optimality check is the module-level :func:`verify_optimum`, which
  raises :class:`InvariantError` and so survives ``python -O``; it reads
  every edge once, from its record at the smaller end, and it builds
  the chain of enclosing blossoms once per vertex inside a live blossom,
  not once per edge end, and none when no blossom is live;
* networkx's ``allowedge`` set is gone: the scan takes an edge as
  allowable exactly when its slack, computed from the vertex duals, is
  at most zero. With integer duals that is the answer the set gave. An
  edge entered the set when a scan found its slack zero, when a delta2
  or delta3 update brought exactly that edge to zero, or as a ``bedges``
  edge of a T-blossom expanded at z = 0, whose endpoints then share no
  blossom. In each case one endpoint is an S-vertex, and an S label
  lasts until the stage ends, so the slack cannot grow again: a dual
  update leaves an S-T slack as it is and lowers an S-S or S-free one.
  Conversely, a scanned edge of slack zero always entered the set;
* the single vertices are kept in an ascending list that drops the two
  each augmentation matches, so a stage does not look at all n mates;
* the main loop reads its hottest state through plain locals rather
  than the closure cells the nested helpers share;
* networkx's end-of-stage ``assert`` that ``mate`` is symmetric, a loop
  over all n vertices at every stage, is gone: :func:`verify_optimum`
  checks the same condition once per call, also under ``python -O``;
* networkx's ``assert`` that an S-S slack is even raises
  :class:`InvariantError` instead, since under ``python -O`` an odd slack
  would floor delta to zero and the stage would loop forever.

networkx's other inline ``assert`` statements are kept.

The networkx code is distributed under the 3-clause BSD license:

   Copyright (c) 2004-2025, NetworkX Developers
   Aric Hagberg <hagberg@lanl.gov>
   Dan Schult <dschult@colgate.edu>
   Pieter Swart <swart@lanl.gov>
   All rights reserved.

   Redistribution and use in source and binary forms, with or without
   modification, are permitted provided that the following conditions are
   met:

     * Redistributions of source code must retain the above copyright
       notice, this list of conditions and the following disclaimer.

     * Redistributions in binary form must reproduce the above
       copyright notice, this list of conditions and the following
       disclaimer in the documentation and/or other materials provided
       with the distribution.

     * Neither the name of the NetworkX Developers nor the names of its
       contributors may be used to endorse or promote products derived
       from this software without specific prior written permission.

   THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
   "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
   LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
   A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
   OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
   SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
   LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
   DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
   THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
   (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
   OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import chain
from operator import itemgetter

from .graph import InvariantError

SINGLE = -1  # mate of an unmatched vertex; also "no vertex" in scan_blossom
_weight = itemgetter(2)  # the doubled weight of an edge record


def max_weight_perfect_matching(
    n: int, adj: Sequence[Sequence[tuple[int, int, int]]]
) -> list[int] | None:
    """Maximum-weight perfect matching, or None when the graph has none.

    ``adj[v]`` lists the records ``(v, w, 2*weight)`` of the edges at v,
    with integer weights: no loops, at most one edge per vertex pair, and
    every edge listed at both ends with the same weight. The lists are
    read, not changed. Returns ``mate`` with ``mate[v]`` the partner of v,
    once :func:`verify_optimum` has checked its dual certificate.
    """
    if not n:
        return []
    # dualvar[v] = 2 * u(v) starts at v's largest weight rounded up to
    # even, so every slack is even and non-negative (the module docstring
    # says why the greedy pass below keeps the stages exact).
    mate = [SINGLE] * n
    top = [max(nbrs, key=_weight)[2] >> 1 if nbrs else 0 for nbrs in adj]
    dualvar = [t + (t & 1) for t in top]
    for v in range(n):
        nbrs = adj[v]
        if mate[v] != SINGLE or not nbrs:
            continue
        dv = dualvar[v] = max([wt2 - dualvar[w] for _, w, wt2 in nbrs])
        for _, w, wt2 in nbrs:
            if mate[w] == SINGLE and dv + dualvar[w] == wt2:
                mate[v] = w
                mate[w] = v
                break
    blossoms = _run_stages(n, adj, mate, dualvar)
    if SINGLE in mate:
        return None  # the module docstring proves that no perfect matching exists
    verify_optimum(adj, mate, dualvar, *blossoms)
    return mate


def _run_stages(
    n: int,
    adj: Sequence[Sequence[tuple[int, int, int]]],
    mate: list[int],
    dualvar: list[int],
) -> tuple[dict[int, int], list[int | None], list[list[tuple[int, int]] | None]]:
    """Run the stages of the blossom method from a start without blossoms.

    ``adj[v]`` lists the records ``(v, w, 2*weight)`` at v. ``mate`` and
    ``dualvar`` (twice the vertex duals) hold the start and are updated in
    place: every slack is non-negative, every matched edge is tight, and
    all single vertices have duals of one parity. The stages run while a
    single vertex remains and stop at the first that cannot augment.
    Returns the blossom state that :func:`verify_optimum` takes after
    ``dualvar``.
    """
    # Per id (vertex or blossom), valid for vertices and live blossoms:
    # label[b] is 0 (free), 1 (S) or 2 (T) for a top-level blossom b; a
    # vertex inside a T-blossom has label 2 iff it is reachable from an
    # S-vertex outside it. labeledge[b] = (v, w) is the edge through which
    # b got its label (w in b), or None if b's base is single.
    label: list[int] = [0] * n
    labeledge: list[tuple[int, int] | None] = [None] * n
    # bestedge[w] is the least-slack edge record (v, w, 2*weight) from an
    # S-vertex to the free vertex w; bestedge[b] of a top-level S-blossom b
    # is the least-slack record to a different S-blossom (v inside b).
    bestedge: list[tuple[int, int, int] | None] = [None] * n
    # blossomparent[b] is b's immediate parent blossom, None at top level.
    blossomparent: list[int | None] = [None] * n
    # blossombase[b] is the base vertex of b.
    blossombase: list[int] = list(range(n))
    # Blossom ids only (vertex entries stay None): childs[b] lists b's
    # sub-blossoms from the base around the blossom, bedges[b][i] = (v, w)
    # joins v in childs[b][i] to w in childs[b][i+1], and mybestedges[b] of
    # a top-level S-blossom lists least-slack records to neighbouring
    # S-blossoms, or None if not computed yet.
    childs: list[list[int] | None] = [None] * n
    bedges: list[list[tuple[int, int]] | None] = [None] * n
    mybestedges: list[list[tuple[int, int, int]] | None] = [None] * n

    # If v is a top-level vertex, inblossom[v] == v; otherwise it is the
    # top-level blossom that contains v.
    inblossom = list(range(n))

    # blossomdual[b] = z(b) for every live non-trivial blossom b, in
    # creation order.
    blossomdual: dict[int, int] = {}

    # Queue of newly discovered S-vertices.
    queue: list[int] = []

    # The single vertices in ascending order. An augmentation matches the
    # two it connects, and a matched vertex never becomes single again.
    singles = [v for v in range(n) if mate[v] == SINGLE]

    def leaves(b: int) -> list[int]:
        """The leaf vertices of blossom b, in networkx's stack order."""
        out = []
        stack = [*childs[b]]
        while stack:
            t = stack.pop()
            if t >= n:
                stack.extend(childs[t])
            else:
                out.append(t)
        return out

    # Assign label t to the top-level blossom containing vertex w,
    # coming through an edge from vertex v (None for a single base).
    def assign_label(w: int, t: int, v: int | None) -> None:
        b = inblossom[w]
        assert not label[w] and not label[b]
        label[w] = label[b] = t
        if v is not None:
            labeledge[w] = labeledge[b] = (v, w)
        else:
            labeledge[w] = labeledge[b] = None
        bestedge[w] = bestedge[b] = None
        if t == 1:
            # b became an S-vertex/blossom; add it(s vertices) to the queue.
            if b >= n:
                queue.extend(leaves(b))
            else:
                queue.append(b)
        elif t == 2:
            # b became a T-vertex/blossom; assign label S to its mate.
            base = blossombase[b]
            assign_label(mate[base], 1, base)

    # Trace back from vertices v and w to discover either a new blossom
    # or an augmenting path. Return the base vertex of the new blossom,
    # or SINGLE if an augmenting path was found.
    def scan_blossom(v: int, w: int) -> int:
        path = []
        base = SINGLE
        while v != SINGLE:
            # Look for a breadcrumb in v's blossom or put a new breadcrumb.
            b = inblossom[v]
            if label[b] & 4:
                base = blossombase[b]
                break
            assert label[b] == 1
            path.append(b)
            label[b] = 5
            # Trace one step back.
            if labeledge[b] is None:
                # The base of blossom b is single; stop tracing this path.
                assert mate[blossombase[b]] == SINGLE
                v = SINGLE
            else:
                assert labeledge[b][0] == mate[blossombase[b]]
                v = labeledge[b][0]
                b = inblossom[v]
                assert label[b] == 2
                # b is a T-blossom; trace one more step back.
                v = labeledge[b][0]
            # Swap v and w so that we alternate between both paths.
            if w != SINGLE:
                v, w = w, v
        # Remove breadcrumbs.
        for b in path:
            label[b] = 1
        return base

    # Construct a new blossom with given base, through S-vertices v and w.
    # Label the new blossom as S; set its dual variable to zero;
    # relabel its T-vertices to S and add them to the queue.
    def add_blossom(base: int, v: int, w: int) -> None:
        bb = inblossom[base]
        bv = inblossom[v]
        bw = inblossom[w]
        # Create blossom.
        b = len(blossombase)
        path: list[int] = []
        edgs = [(v, w)]
        blossombase.append(base)
        blossomparent.append(None)
        blossomparent[bb] = b
        childs.append(path)
        bedges.append(edgs)
        mybestedges.append(None)
        label.append(0)
        labeledge.append(None)
        bestedge.append(None)
        # Trace back from v to base.
        while bv != bb:
            # Add bv to the new blossom.
            blossomparent[bv] = b
            path.append(bv)
            edgs.append(labeledge[bv])
            assert label[bv] == 2 or (
                label[bv] == 1 and labeledge[bv][0] == mate[blossombase[bv]]
            )
            # Trace one step back.
            v = labeledge[bv][0]
            bv = inblossom[v]
        # Add base sub-blossom; reverse lists.
        path.append(bb)
        path.reverse()
        edgs.reverse()
        # Trace back from w to base.
        while bw != bb:
            # Add bw to the new blossom.
            blossomparent[bw] = b
            path.append(bw)
            edgs.append((labeledge[bw][1], labeledge[bw][0]))
            assert label[bw] == 2 or (
                label[bw] == 1 and labeledge[bw][0] == mate[blossombase[bw]]
            )
            # Trace one step back.
            w = labeledge[bw][0]
            bw = inblossom[w]
        # Set label to S.
        assert label[bb] == 1
        label[b] = 1
        labeledge[b] = labeledge[bb]
        # Set dual variable to zero.
        blossomdual[b] = 0
        # Relabel vertices.
        for v in leaves(b):
            if label[inblossom[v]] == 2:
                # This T-vertex now turns into an S-vertex because it becomes
                # part of an S-blossom; add it to the queue.
                queue.append(v)
            inblossom[v] = b
        # Compute mybestedges[b].
        bestedgeto: dict[int, tuple[int, int, int]] = {}
        for bv in path:
            if bv >= n:
                if mybestedges[bv] is not None:
                    # Walk this subblossom's least-slack edges.
                    nblist = mybestedges[bv]
                    # The sub-blossom won't need this data again.
                    mybestedges[bv] = None
                else:
                    # This subblossom does not have a list of least-slack
                    # edges; get the information from the vertices.
                    nblist = [k for v in leaves(bv) for k in adj[v]]
            else:
                nblist = adj[bv]
            for k in nblist:
                i, j, _ = k
                if inblossom[j] == b:
                    i, j = j, i
                bj = inblossom[j]
                if (
                    bj != b
                    and label[bj] == 1
                    and (
                        bj not in bestedgeto
                        or dualvar[i] + dualvar[j] - k[2] < slack(bestedgeto[bj])
                    )
                ):
                    bestedgeto[bj] = k
            # Forget about least-slack edge of the subblossom.
            bestedge[bv] = None
        mybestedges[b] = mine = list(bestedgeto.values())
        # Select bestedge[b].
        mybestedge = None
        mybestslack = 0
        for k in mine:
            kslack = slack(k)
            if mybestedge is None or kslack < mybestslack:
                mybestedge = k
                mybestslack = kslack
        bestedge[b] = mybestedge

    # Expand the given top-level blossom.
    def expand_blossom(b: int, endstage: bool) -> None:
        # A trampoline keeps the recursion over nested sub-blossoms off the
        # call stack: each generator yields the sub-blossom to expand next.

        def _recurse(b, endstage):
            # Convert sub-blossoms into top-level blossoms.
            for s in childs[b]:
                blossomparent[s] = None
                if s >= n:
                    if endstage and blossomdual[s] == 0:
                        # Recursively expand this sub-blossom.
                        yield s
                    else:
                        for v in leaves(s):
                            inblossom[v] = s
                else:
                    inblossom[s] = s
            # If we expand a T-blossom during a stage, its sub-blossoms must be
            # relabeled.
            if (not endstage) and label[b] == 2:
                bchilds = childs[b]
                bedg = bedges[b]
                # Figure out through which sub-blossom the expanding blossom
                # obtained its label initially.
                entrychild = inblossom[labeledge[b][1]]
                # Decide in which direction we will go round the blossom.
                j = bchilds.index(entrychild)
                if j & 1:
                    # Start index is odd; go forward and wrap.
                    j -= len(bchilds)
                    jstep = 1
                else:
                    # Start index is even; go backward.
                    jstep = -1
                # Move along the blossom until we get to the base.
                v, w = labeledge[b]
                while j != 0:
                    # Relabel the T-sub-blossom.
                    if jstep == 1:
                        q = bedg[j][1]
                    else:
                        q = bedg[j - 1][0]
                    label[w] = 0
                    label[q] = 0
                    assign_label(w, 2, v)
                    # Step to the next S-sub-blossom.
                    j += jstep
                    if jstep == 1:
                        v, w = bedg[j]
                    else:
                        w, v = bedg[j - 1]
                    # Step to the next T-sub-blossom.
                    j += jstep
                # Relabel the base T-sub-blossom WITHOUT stepping through to
                # its mate (so don't call assign_label).
                bw = bchilds[j]
                label[w] = label[bw] = 2
                labeledge[w] = labeledge[bw] = (v, w)
                bestedge[bw] = None
                # Continue along the blossom until we get back to entrychild.
                j += jstep
                while bchilds[j] != entrychild:
                    # Examine the vertices of the sub-blossom to see whether
                    # it is reachable from a neighboring S-vertex outside the
                    # expanding blossom.
                    bv = bchilds[j]
                    if label[bv] == 1:
                        # This sub-blossom just got label S through one of its
                        # neighbors; leave it be.
                        j += jstep
                        continue
                    if bv >= n:
                        for v in leaves(bv):
                            if label[v]:
                                break
                    else:
                        v = bv
                    # If the sub-blossom contains a reachable vertex, assign
                    # label T to the sub-blossom.
                    if label[v]:
                        assert label[v] == 2
                        assert inblossom[v] == bv
                        label[v] = 0
                        label[mate[blossombase[bv]]] = 0
                        assign_label(v, 2, labeledge[v][0])
                    j += jstep
            # Remove the expanded blossom entirely; its id is never reused.
            label[b] = 0
            labeledge[b] = bestedge[b] = None
            childs[b] = bedges[b] = mybestedges[b] = None
            del blossomdual[b]

        stack = [_recurse(b, endstage)]
        while stack:
            top = stack[-1]
            for s in top:
                stack.append(_recurse(s, endstage))
                break
            else:
                stack.pop()

    # Swap matched/unmatched edges over an alternating path through blossom b
    # between vertex v and the base vertex. Keep blossom bookkeeping
    # consistent.
    def augment_blossom(b: int, v: int) -> None:
        # The same trampoline as in expand_blossom.

        def _recurse(b, v):
            # Bubble up through the blossom tree from vertex v to an immediate
            # sub-blossom of b.
            t = v
            while blossomparent[t] != b:
                t = blossomparent[t]
            # Recursively deal with the first sub-blossom.
            if t >= n:
                yield (t, v)
            # Decide in which direction we will go round the blossom.
            bchilds = childs[b]
            bedg = bedges[b]
            i = j = bchilds.index(t)
            if i & 1:
                # Start index is odd; go forward and wrap.
                j -= len(bchilds)
                jstep = 1
            else:
                # Start index is even; go backward.
                jstep = -1
            # Move along the blossom until we get to the base.
            while j != 0:
                # Step to the next sub-blossom and augment it recursively.
                j += jstep
                t = bchilds[j]
                if jstep == 1:
                    w, x = bedg[j]
                else:
                    x, w = bedg[j - 1]
                if t >= n:
                    yield (t, w)
                # Step to the next sub-blossom and augment it recursively.
                j += jstep
                t = bchilds[j]
                if t >= n:
                    yield (t, x)
                # Match the edge connecting those sub-blossoms.
                mate[w] = x
                mate[x] = w
            # Rotate the list of sub-blossoms to put the new base at the front.
            childs[b] = bchilds[i:] + bchilds[:i]
            bedges[b] = bedg[i:] + bedg[:i]
            blossombase[b] = blossombase[childs[b][0]]
            assert blossombase[b] == v

        stack = [_recurse(b, v)]
        while stack:
            top = stack[-1]
            for args in top:
                stack.append(_recurse(*args))
                break
            else:
                stack.pop()

    # Swap matched/unmatched edges over an alternating path between two
    # single vertices. The augmenting path runs through S-vertices v and w.
    def augment_matching(v: int, w: int) -> None:
        for s, j in ((v, w), (w, v)):
            # Match vertex s to vertex j. Then trace back from s
            # until we find a single vertex, swapping matched and unmatched
            # edges as we go.
            while 1:
                bs = inblossom[s]
                base = blossombase[bs]
                assert label[bs] == 1
                assert (
                    labeledge[bs] is None and mate[blossombase[bs]] == SINGLE
                ) or (labeledge[bs][0] == mate[blossombase[bs]])
                # Augment through the S-blossom from s to base.
                if bs >= n:
                    augment_blossom(bs, s)
                # Update mate[s]
                mate[s] = j
                # Trace one step back.
                if labeledge[bs] is None:
                    # Reached single vertex; stop. The path now matches it.
                    singles.remove(base)
                    break
                t = labeledge[bs][0]
                bt = inblossom[t]
                assert label[bt] == 2
                # Trace one more step back.
                s, j = labeledge[bt]
                # Augment through the T-blossom from j to base.
                assert blossombase[bt] == t
                if bt >= n:
                    augment_blossom(bt, j)
                # Update mate[j]
                mate[j] = s

    def slack(k: tuple[int, int, int]) -> int:
        """2 * slack of edge record k (does not work inside blossoms)."""
        return dualvar[k[0]] + dualvar[k[1]] - k[2]

    vertices = range(n)
    unlabeled = [0] * n
    nothing = [None] * n

    # The main loop reads the state it touches most through plain locals:
    # the helpers above close over these names, and a closure variable
    # costs a cell dereference on every read. The lists are only mutated,
    # never rebound, so both names always see the same state.
    label_, inblossom_, dualvar_, bestedge_, adj_ = label, inblossom, dualvar, bestedge, adj

    # Main loop: continue until the matching is perfect or cannot grow.
    while singles:
        # Each iteration of this loop is a "stage".
        # A stage finds an augmenting path and uses that to improve
        # the matching.

        # Remove labels from top-level blossoms/vertices, and forget all
        # about least-slack edges. Only vertices and live blossoms are ever
        # read, so only their entries are reset.
        label_[:n] = unlabeled
        labeledge[:n] = bestedge_[:n] = nothing
        for b in blossomdual:
            label_[b] = 0
            labeledge[b] = bestedge_[b] = mybestedges[b] = None

        # Make queue empty.
        queue.clear()

        # Label single blossoms/vertices with S and put them in the queue.
        # A single top-level vertex is labelled inline: after the reset,
        # assign_label(v, 1, None) would only set its label and queue it.
        for v in singles:
            if inblossom_[v] == v:
                label_[v] = 1
                queue.append(v)
            elif not label_[inblossom_[v]]:
                assign_label(v, 1, None)

        # Loop until we succeed in augmenting the matching.
        augmented = 0
        while 1:
            # Each iteration of this loop is a "substage".
            # A substage tries to find an augmenting path;
            # if found, the path is used to improve the matching and
            # the stage ends. If there is no augmenting path, the
            # primal-dual method is used to pump some slack out of
            # the dual variables.

            # Continue labeling until all vertices which are reachable
            # through an alternating path have got a label.
            while queue and not augmented:
                # Take an S vertex from the queue.
                v = queue.pop()
                assert label_[inblossom_[v]] == 1

                # Scan its neighbors:
                # inblossom[v] changes only when add_blossom absorbs v.
                bv = inblossom_[v]
                dv = dualvar_[v]
                for k in adj_[v]:
                    w = k[1]
                    # w is a neighbor to v
                    bw = inblossom_[w]
                    if bv == bw:
                        # this edge is internal to a blossom; ignore it
                        continue
                    kslack = dv + dualvar_[w] - k[2]
                    if kslack <= 0:
                        # edge k has zero slack => it is allowable (the
                        # module docstring says why no allowedge set is kept)
                        if not label_[bw]:
                            # (C1) w is a free vertex;
                            # label w with T and label its mate with S (R12).
                            assign_label(w, 2, v)
                        elif label_[bw] == 1:
                            # (C2) w is an S-vertex (not in the same blossom);
                            # follow back-links to discover either an
                            # augmenting path or a new blossom.
                            base = scan_blossom(v, w)
                            if base != SINGLE:
                                # Found a new blossom; add it to the blossom
                                # bookkeeping and turn it into an S-blossom.
                                add_blossom(base, v, w)
                                bv = inblossom_[v]
                            else:
                                # Found an augmenting path; augment the
                                # matching and end this stage.
                                augment_matching(v, w)
                                augmented = 1
                                break
                        elif not label_[w]:
                            # w is inside a T-blossom, but w itself has not
                            # yet been reached from outside the blossom;
                            # mark it as reached (we need this to relabel
                            # during T-blossom expansion).
                            assert label_[bw] == 2
                            label_[w] = 2
                            labeledge[w] = (v, w)
                    elif label_[bw] == 1:
                        # keep track of the least-slack non-allowable edge to
                        # a different S-blossom.
                        best = bestedge_[bv]
                        if best is None or kslack < (
                            dualvar_[best[0]] + dualvar_[best[1]] - best[2]
                        ):
                            bestedge_[bv] = k
                    elif not label_[w]:
                        # w is a free vertex (or an unreached vertex inside
                        # a T-blossom) but we can not reach it yet;
                        # keep track of the least-slack edge that reaches w.
                        best = bestedge_[w]
                        if best is None or kslack < (
                            dualvar_[best[0]] + dualvar_[best[1]] - best[2]
                        ):
                            bestedge_[w] = k

            if augmented:
                break

            # There is no augmenting path under these constraints;
            # compute delta and reduce slack in the optimization problem.
            # (Note that our vertex dual variables, edge slacks and delta's
            # are pre-multiplied by two.)
            deltatype = -1
            delta = deltaedge = deltablossom = None

            # Compute delta2: the minimum slack on any edge between
            # an S-vertex and a free vertex.
            for v in vertices:
                if not label_[inblossom_[v]] and bestedge_[v] is not None:
                    d = slack(bestedge_[v])
                    if deltatype == -1 or d < delta:
                        delta = d
                        deltatype = 2
                        deltaedge = bestedge_[v]

            # Compute delta3: half the minimum slack on any edge between
            # a pair of S-blossoms.
            for b in chain(vertices, blossomdual):
                if (
                    blossomparent[b] is None
                    and label_[b] == 1
                    and bestedge_[b] is not None
                ):
                    kslack = slack(bestedge_[b])
                    if kslack & 1:
                        # halving would floor delta, and the edge would never
                        # become tight: the single duals lost their common parity
                        raise InvariantError(f"odd slack {kslack} between S-blossoms")
                    d = kslack // 2
                    if deltatype == -1 or d < delta:
                        delta = d
                        deltatype = 3
                        deltaedge = bestedge_[b]

            # Compute delta4: minimum z variable of any T-blossom.
            for b in blossomdual:
                if (
                    blossomparent[b] is None
                    and label_[b] == 2
                    and (deltatype == -1 or blossomdual[b] < delta)
                ):
                    delta = blossomdual[b]
                    deltatype = 4
                    deltablossom = b

            if deltatype == -1:
                # No further improvement possible: the matching has reached
                # its maximum cardinality.
                break

            # Update dual variables according to delta.
            for v in vertices:
                if label_[inblossom_[v]] == 1:
                    # S-vertex: 2*u = 2*u - 2*delta
                    dualvar_[v] -= delta
                elif label_[inblossom_[v]] == 2:
                    # T-vertex: 2*u = 2*u + 2*delta
                    dualvar_[v] += delta
            for b in blossomdual:
                if blossomparent[b] is None:
                    if label_[b] == 1:
                        # top-level S-blossom: z = z + 2*delta
                        blossomdual[b] += delta
                    elif label_[b] == 2:
                        # top-level T-blossom: z = z - 2*delta
                        blossomdual[b] -= delta

            # Take action at the point where minimum delta occurred.
            if deltatype == 2 or deltatype == 3:
                # Use the least-slack edge, which now has zero slack, to
                # continue the search.
                v = deltaedge[0]
                assert label_[inblossom_[v]] == 1
                queue.append(v)
            elif deltatype == 4:
                # Expand the least-z blossom.
                expand_blossom(deltablossom, False)

            # End of a this substage.

        # Stop when no more augmenting path can be found.
        if not augmented:
            break

        # End of a stage; expand all S-blossoms which have zero dual.
        for b in list(blossomdual):
            if b not in blossomdual:
                continue  # already expanded
            if blossomparent[b] is None and label_[b] == 1 and blossomdual[b] == 0:
                expand_blossom(b, True)

    # assign_label reaches itself through its closure cell; emptying the
    # cell breaks that cycle, so the call's state is freed on return
    del assign_label
    return blossomdual, blossomparent, bedges


def verify_optimum(
    adj: Sequence[Sequence[tuple[int, int, int]]],
    mate: Sequence[int],
    dualvar: Sequence[int],
    blossomdual: dict[int, int],
    blossomparent: Sequence[int | None],
    bedges: Sequence[Sequence[tuple[int, int]] | None],
) -> None:
    """Check the dual certificate of a maximum-weight perfect matching.

    The arguments are the end state of :func:`max_weight_perfect_matching`:
    ``adj`` is its input, ``dualvar`` holds twice the vertex duals,
    ``blossomdual`` the duals of the live blossoms, and ``blossomparent``
    and ``bedges`` are indexed by vertex or blossom id. Every edge is
    checked once, from the record at its smaller end. Raises
    :class:`InvariantError` when a condition fails.
    """

    def fail(what: str) -> None:
        raise InvariantError(f"blossom optimality certificate broken: {what}")

    # 0. all blossom duals are non-negative (vertex duals are free in the
    # perfect-matching LP)
    if blossomdual and min(blossomdual.values()) < 0:
        fail("negative blossom dual")
    # chains[v] lists the blossoms that contain vertex v, top-level first,
    # ending with v itself; it is built once per vertex, not per edge end,
    # and only for a vertex inside a live blossom: the slack of an edge
    # with an end outside every blossom has no blossom term.
    chains: dict[int, list[int]] = {}
    if blossomdual:
        for v in range(len(mate)):
            if blossomparent[v] is not None:
                up = [v]
                while blossomparent[up[-1]] is not None:
                    up.append(blossomparent[up[-1]])
                up.reverse()
                chains[v] = up
    # 0. all edges have non-negative slack and
    # 1. all matched edges have zero slack;
    for recs in adj:
        for i, j, wt2 in recs:
            if j < i:
                continue  # checked at j
            s = dualvar[i] + dualvar[j] - wt2
            if i in chains and j in chains:
                for bi, bj in zip(chains[i], chains[j]):
                    if bi != bj:
                        break
                    s += 2 * blossomdual[bi]
            if s < 0:
                fail(f"edge ({i}, {j}) has negative slack")
            if mate[i] == j or mate[j] == i:
                if not (mate[i] == j and mate[j] == i):
                    fail(f"edge ({i}, {j}) is matched on one side only")
                if s != 0:
                    fail(f"matched edge ({i}, {j}) has slack")
    # 2. the matching is symmetric (networkx checks that after every stage);
    for v, m in enumerate(mate):
        if m != SINGLE and mate[m] != v:
            fail(f"vertex {v} is matched to {m}, which is matched to {mate[m]}")
    # 3. all blossoms with positive dual value are full.
    for b, z in blossomdual.items():
        if z > 0:
            if len(bedges[b]) % 2 != 1:
                fail(f"blossom {b} has an even number of sub-blossoms")
            for i, j in bedges[b][1::2]:
                if mate[i] != j or mate[j] != i:
                    fail(f"blossom {b} is not full")
