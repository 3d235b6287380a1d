"""Answer checks made apart from the solver.

Nothing here imports ``ecpostman``. A result document is read back from
its text; the tour is walked with this module's own code; the optimum and
the verdict come from a separate computation per workload:

* colored: an exact integer program over edge multiplicities (every edge
  used at least once, every vertex even and balanced, which by Kotzig's
  theorem is exactly the existence of a properly colored closed walk on
  the connected multigraph), solved by ``scipy.optimize.milp`` with
  ``mip_rel_gap=0`` and re-checked in Python ints;
* directed: ``networkx.network_simplex`` min-cost flow with every arc
  used at least once, and ``networkx.is_strongly_connected``;
* eulerian: the input is even and balanced everywhere, so its own weight
  is optimal; a trap instance is infeasible by the local argument in
  ``workloads.eulerian_instance``, whose structure is checked here.

Connectivity needs no check of its own: an optimal answer must carry a
closed tour that covers every edge, and an infeasible verdict rests on
conditions that every covering walk must meet, connected or not.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from workloads import Instance

NO_MATCHING = "no-perfect-matching"


class CheckFailed(Exception):
    """An answer disagrees with the instance or with the reference."""


@dataclass(frozen=True)
class Reference:
    feasible: bool
    optimum: int | None


@dataclass(frozen=True)
class Answer:
    status: str
    reason: str | None
    total: int | None
    matching: int | None
    edges: tuple[tuple[int, int, int, int, int], ...]  # 1-based u, v; color, weight, q
    tour: tuple[str, ...]


def _int(token: str, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise CheckFailed(f"{what} is not an integer: {token!r}") from None


def parse_document(text: str) -> Answer:
    """Read a ``solve`` result document."""
    lines = text.split("\n")
    if lines[-1] != "":
        raise CheckFailed("document does not end with a newline")
    lines = lines[:-1]
    if not lines or not lines[0].startswith("status "):
        raise CheckFailed("document does not start with a status line")
    status = lines[0].split(" ", 1)[1]
    if status == "infeasible":
        if len(lines) != 2 or not lines[1].startswith("reason "):
            raise CheckFailed("infeasible document must be status + reason")
        return Answer(status, lines[1].split(" ", 1)[1], None, None, (), ())
    if status != "optimal":
        raise CheckFailed(f"unknown status {status!r}")
    fields: dict[str, str] = {}
    for line in lines[1:4]:
        key, _, value = line.partition(" ")
        fields[key] = value
    if set(fields) != {"total_weight", "matching_weight", "edges"}:
        raise CheckFailed("optimal document lacks total_weight/matching_weight/edges")
    m = _int(fields["edges"], "edge count")
    edge_lines = lines[4 : 4 + m]
    rest = lines[4 + m :]
    edges = []
    for line in edge_lines:
        parts = line.split()
        if len(parts) != 6 or parts[0] != "edge":
            raise CheckFailed(f"bad edge line {line!r}")
        edges.append(tuple(_int(p, "edge field") for p in parts[1:]))
    if len(edges) != m or len(rest) != 1 or not rest[0].startswith("tour "):
        raise CheckFailed("optimal document must end with exactly one tour line")
    return Answer(
        status,
        None,
        _int(fields["total_weight"], "total_weight"),
        _int(fields["matching_weight"], "matching_weight"),
        tuple(edges),
        tuple(rest[0].split()[1:]),
    )


def check_tour(inst: Instance, ans: Answer) -> None:
    """The tour is a properly colored closed walk covering every edge,
    and the listed multiplicities and weights agree with it."""
    m = len(inst.edges)
    if len(ans.edges) != m:
        raise CheckFailed(f"document lists {len(ans.edges)} edges, instance has {m}")
    for i, ((u, v, c, w), (du, dv, dc, dw, _)) in enumerate(zip(inst.edges, ans.edges)):
        if (du, dv, dc, dw) != (u + 1, v + 1, c, w):
            raise CheckFailed(f"edge line {i + 1} does not match the instance")
    tokens = ans.tour
    if len(tokens) < 3 or len(tokens) % 2 == 0:
        raise CheckFailed("tour must alternate vertex and edge tokens")
    verts = [_int(t, "tour vertex") - 1 for t in tokens[0::2]]
    eids, colors = [], []
    for tok in tokens[1::2]:
        body, sep, color = tok.partition(":")
        if not body.startswith("e") or not sep:
            raise CheckFailed(f"bad edge token {tok!r}")
        eid = _int(body[1:], "edge id") - 1
        if not 0 <= eid < m:
            raise CheckFailed(f"edge token {tok!r} out of range")
        if _int(color, "edge color") != inst.edges[eid][2]:
            raise CheckFailed(f"edge token {tok!r} names the wrong color")
        eids.append(eid)
        colors.append(inst.edges[eid][2])
    if verts[0] != verts[-1]:
        raise CheckFailed("tour is not closed")
    for i, eid in enumerate(eids):
        u, v, _, _ = inst.edges[eid]
        if {u, v} != {verts[i], verts[i + 1]} or u == v:
            raise CheckFailed(f"tour step {i + 1} does not follow edge {eid + 1}")
    for i in range(len(colors)):
        if colors[i] == colors[i - 1]:  # i == 0 compares the wraparound
            raise CheckFailed(f"tour steps {i or len(colors)} and {i + 1} share color {colors[i]}")
    used = Counter(eids)
    for eid, (_, _, _, _, q) in enumerate(ans.edges):
        if used[eid] == 0:
            raise CheckFailed(f"tour never covers edge {eid + 1}")
        if used[eid] != q:
            raise CheckFailed(f"edge {eid + 1}: multiplicity {q}, tour uses it {used[eid]} times")
    total = sum(used[eid] * w for eid, (_, _, _, w) in enumerate(inst.edges))
    if ans.total != total:
        raise CheckFailed(f"total_weight {ans.total} but the tour weighs {total}")
    base = sum(w for _, _, _, w in inst.edges)
    if ans.matching != total - base:
        raise CheckFailed(f"matching_weight {ans.matching} but the tour adds {total - base}")


def _even_and_balanced(n: int, edges, q) -> bool:
    degree = [0] * n
    per_color: list[Counter] = [Counter() for _ in range(n)]
    for (u, v, c, _), mult in zip(edges, q):
        for x in (u, v):
            degree[x] += mult
            per_color[x][c] += mult
    return all(
        degree[x] % 2 == 0 and all(2 * cnt <= degree[x] for cnt in per_color[x].values())
        for x in range(n)
    )


def colored_reference(inst: Instance) -> Reference:
    """Exact optimum over edge multiplicities q_e >= 1 by integer programming."""
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp

    n, m = inst.n, len(inst.edges)
    # variables: q_0..q_{m-1}, then z_0..z_{n-1} with degree(v) = 2 z_v
    rows, lb, ub = [], [], []
    for x in range(n):
        even = np.zeros(m + n)
        even[m + x] = -2
        by_color: dict[int, np.ndarray] = {}
        for eid, (u, v, c, _) in enumerate(inst.edges):
            if x in (u, v):
                even[eid] += 1
                by_color.setdefault(c, np.zeros(m + n))[eid] += 1
        rows.append(even)
        lb.append(0)
        ub.append(0)
        degree = even.copy()
        degree[m + x] = 0
        for ends in by_color.values():
            rows.append(2 * ends - degree)  # 2 d_c(x) <= d(x)
            lb.append(-np.inf)
            ub.append(0)
    cost = np.array([w for *_, w in inst.edges] + [0] * n, dtype=float)
    res = milp(
        cost,
        constraints=LinearConstraint(np.array(rows), lb, ub),
        integrality=np.ones(m + n),
        bounds=Bounds([1] * m + [0] * n, np.inf),
        options={"mip_rel_gap": 0},
    )
    if res.status == 2:
        return Reference(False, None)
    if res.status != 0:
        raise CheckFailed(f"reference ILP ended with status {res.status}: {res.message}")
    q = [int(round(x)) for x in res.x[:m]]
    if any(abs(x - r) > 1e-6 for x, r in zip(res.x[:m], q)) or min(q) < 1:
        raise CheckFailed("reference ILP returned a non-integral or zero multiplicity")
    if not _even_and_balanced(n, inst.edges, q):
        raise CheckFailed("reference ILP solution is not even and balanced")
    return Reference(True, sum(mult * w for mult, (*_, w) in zip(q, inst.edges)))


def directed_reference(inst: Instance) -> Reference:
    """Directed postman optimum by min-cost flow over the original digraph."""
    import networkx as nx

    n, arcs = inst.digraph_n, inst.arcs
    out_deg, in_deg = Counter(u for u, _, _ in arcs), Counter(v for _, v, _ in arcs)
    flow = nx.MultiDiGraph()
    for x in range(n):
        flow.add_node(x, demand=out_deg[x] - in_deg[x])
    for u, v, w in arcs:
        flow.add_edge(u, v, weight=w)
    strong = nx.is_strongly_connected(nx.DiGraph((u, v) for u, v, _ in arcs))
    try:
        _, extra = nx.network_simplex(flow)
    except nx.NetworkXUnfeasible:
        if strong:
            raise CheckFailed("min-cost flow infeasible on a strongly connected digraph") from None
        return Reference(False, None)
    if not strong:
        raise CheckFailed("min-cost flow feasible on a digraph that is not strongly connected")
    # re-check in Python ints: q = 1 + f balances every vertex
    balance, total = Counter(), 0
    for u, targets in extra.items():
        for v, keyed in targets.items():
            for key, f in keyed.items():
                w = flow.edges[u, v, key]["weight"]
                balance[u] += 1 + f
                balance[v] -= 1 + f
                total += (1 + f) * w
    if any(balance.values()):
        raise CheckFailed("reference flow does not balance every vertex")
    return Reference(True, total)


def eulerian_reference(inst: Instance) -> Reference:
    """The input's own weight, or infeasible when the trap is in place."""
    if inst.trap is not None:
        v, x, y, z = inst.trap
        color = {}
        neighbours: dict[int, list[int]] = {x: [], y: [], z: []}
        for a, b, c, _ in inst.edges:
            for p, q in ((a, b), (b, a)):
                if p in neighbours:
                    neighbours[p].append(q)
                    color[p, q] = c
        if (
            sorted(neighbours[x]) != sorted((v, y, z))
            or sorted(neighbours[y]) != sorted((x, z))
            or sorted(neighbours[z]) != sorted((x, y))
            or color[x, v] != color[x, y]
            or len({color[x, y], color[y, z], color[z, x]}) != 3
        ):
            raise CheckFailed("trap structure is not in place")
        return Reference(False, None)
    if not _even_and_balanced(inst.n, inst.edges, [1] * len(inst.edges)):
        raise CheckFailed("eulerian instance is not even and balanced")
    return Reference(True, sum(w for *_, w in inst.edges))


REFERENCES = {
    "colored": colored_reference,
    "directed": directed_reference,
    "eulerian": eulerian_reference,
}


def check_answer(workload: str, inst: Instance, document: str, ref: Reference) -> None:
    """Raise CheckFailed unless the document is a right answer for inst."""
    ans = parse_document(document)
    if not ref.feasible:
        if ans.status != "infeasible" or ans.reason != NO_MATCHING:
            raise CheckFailed(f"reference says infeasible, document says {ans.status}")
        return
    if ans.status != "optimal":
        raise CheckFailed(f"reference optimum {ref.optimum}, document says {ans.reason}")
    check_tour(inst, ans)
    if ans.total != ref.optimum:
        raise CheckFailed(f"total_weight {ans.total}, reference optimum {ref.optimum}")
    if workload == "eulerian" and (ans.matching != 0 or any(e[4] != 1 for e in ans.edges)):
        raise CheckFailed("an Euler instance needs no duplicated edge")
