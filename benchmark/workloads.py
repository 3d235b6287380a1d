"""Seeded instance generators for the three benchmark workloads.

Each instance is drawn from its own ``random.Random`` keyed on
(workload, seed, index), so instance i of a seed does not depend on how
many instances the run asks for. The solver only ever sees the instance
text; the extra fields (the digraph behind a directed instance, the trap
behind an infeasible eulerian one) feed the independent answer checks.

Every instance is connected and has at least two colors at every vertex,
so the solver's early exits (``disconnected``, ``single-color-vertex``)
never fire: every answer is either ``optimal`` or ``no-perfect-matching``.
Weights are integers; scaled float weights crash the solver today.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

MAX_WEIGHT = 9

# (n, k, m) shapes, visited in turn so that every run sees the same mix.
# Sparse k=3 multigraphs: a third fall infeasible, parallel edges make
# normalization raise k to 5-7, and a solve costs about 0.07 s here, so a
# run sees some 300 distinct instances. Denser shapes such as 10/5/24 cost
# 0.8 s a solve; a run then sees too few for its medians to hold still.
COLORED_SHAPES = ((10, 3, 16), (11, 3, 17), (12, 3, 18))
# (vertices, arcs); every fourth instance is two strong halves glued one way.
DIRECTED_SHAPES = ((14, 34), (16, 40), (18, 44))
DIRECTED_GLUE_ARCS = 2
DIRECTED_GLUED_EVERY = 4
# (vertices drawn from, trail length); every second instance carries a trap.
# One shape: trapped instances cost twice the others, and a second shape
# would put the medians between clusters. Trapped solves vary widely in
# cost, so they need the larger share for their median to hold still.
EULERIAN_SHAPES = ((40, 60),)
EULERIAN_COLORS = 3
EULERIAN_TRAP_EVERY = 2


@dataclass(frozen=True)
class Instance:
    """One generated input; ``edges`` hold 0-based (u, v, color, weight)."""

    name: str
    n: int
    k: int
    edges: tuple[tuple[int, int, int, int], ...]
    arcs: tuple[tuple[int, int, int], ...] | None = None  # directed: (u, v, w), 0-based
    digraph_n: int = 0
    trap: tuple[int, int, int, int] | None = None  # eulerian: (v, x, y, z)

    def text(self) -> str:
        lines = [f"ecg {self.n} {self.k} {len(self.edges)}"]
        lines.extend(f"{u + 1} {v + 1} {c} {w}" for u, v, c, w in self.edges)
        return "\n".join(lines) + "\n"


# The README's house example: what the set-up timing solves.
HOUSE = Instance("house", 4, 3, ((0, 1, 1, 1), (1, 2, 2, 5), (2, 0, 3, 1), (1, 3, 3, 1), (3, 2, 1, 1)))
HOUSE_OPTIMUM = 11


def _rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


def _other_vertex(rng: random.Random, n: int, u: int) -> int:
    v = rng.randrange(n - 1)
    return v + 1 if v >= u else v


def _screened(n: int, edges: list[tuple[int, int, int, int]]) -> bool:
    """Connected, and at least two colors at every vertex."""
    adj: list[set[int]] = [set() for _ in range(n)]
    colors: list[set[int]] = [set() for _ in range(n)]
    for u, v, c, _ in edges:
        adj[u].add(v)
        adj[v].add(u)
        colors[u].add(c)
        colors[v].add(c)
    if any(len(cs) < 2 for cs in colors):
        return False
    seen = {0}
    stack = [0]
    while stack:
        for y in adj[stack.pop()]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return len(seen) == n


def colored_instance(seed: int, index: int) -> Instance:
    """Random connected multigraph; both verdicts kept as they fall."""
    n, k, m = COLORED_SHAPES[index % len(COLORED_SHAPES)]
    rng = _rng("colored", seed, index)
    while True:
        edges = []
        for _ in range(m):
            u = rng.randrange(n)
            edges.append((u, _other_vertex(rng, n, u), rng.randint(1, k), rng.randint(1, MAX_WEIGHT)))
        if _screened(n, edges):
            return Instance(f"colored/{n}-{k}-{m}/{index}", n, k, tuple(edges))


def _strong_digraph(rng: random.Random, verts: list[int], m: int) -> list[tuple[int, int, int]]:
    """A random Hamiltonian cycle plus random arcs: strongly connected."""
    order = verts[:]
    rng.shuffle(order)
    arcs = [(order[i], order[(i + 1) % len(order)]) for i in range(len(order))]
    while len(arcs) < m:
        u, v = rng.sample(verts, 2)
        arcs.append((u, v))
    rng.shuffle(arcs)
    return [(u, v, rng.randint(1, MAX_WEIGHT)) for u, v in arcs]


def directed_instance(seed: int, index: int) -> Instance:
    """Two-colored encoding of a random digraph.

    Arc (u, v, w) becomes a middle vertex joined to u by a color-1 edge of
    weight w and to v by a color-2 edge of weight 0. Every fourth digraph
    is two strongly connected halves joined by arcs running one way only,
    which has no covering closed walk.
    """
    n, m = DIRECTED_SHAPES[index % len(DIRECTED_SHAPES)]
    rng = _rng("directed", seed, index)
    if index % DIRECTED_GLUED_EVERY == DIRECTED_GLUED_EVERY - 1:
        half = n // 2
        inner = m - DIRECTED_GLUE_ARCS
        left, right = list(range(half)), list(range(half, n))
        arcs = _strong_digraph(rng, left, inner * half // n)
        arcs += _strong_digraph(rng, right, inner - len(arcs))
        arcs += [(rng.choice(left), rng.choice(right), rng.randint(1, MAX_WEIGHT))
                 for _ in range(DIRECTED_GLUE_ARCS)]
        rng.shuffle(arcs)
    else:
        arcs = _strong_digraph(rng, list(range(n)), m)
    edges = []
    for idx, (u, v, w) in enumerate(arcs):
        mid = n + idx
        edges.append((u, mid, 1, w))
        edges.append((mid, v, 2, 0))
    return Instance(
        f"directed/{n}-{m}/{index}", n + len(arcs), 2, tuple(edges),
        arcs=tuple(arcs), digraph_n=n,
    )


def eulerian_instance(seed: int, index: int) -> Instance:
    """Support of a random properly colored closed trail (k = 3).

    Every second instance also carries a pendant trap: new vertices x, y,
    z and edges v-x and x-y of color c, y-z of color d and z-x of color
    e, where {c, d, e} are the three colors. Balance at y and z forces
    x-y, y-z and z-x to be used equally often, and balance at x then
    leaves no room for the edge to v, so no covering walk exists.
    """
    span, m = EULERIAN_SHAPES[index % len(EULERIAN_SHAPES)]
    k = EULERIAN_COLORS
    rng = _rng("eulerian", seed, index)
    while True:
        verts = [rng.randrange(span)]
        for _ in range(m - 1):
            verts.append(_other_vertex(rng, span, verts[-1]))
        if verts[-1] != verts[0]:
            break
    verts.append(verts[0])
    colors = [rng.randint(1, k)]
    for i in range(1, m):
        banned = {colors[-1], colors[0]} if i == m - 1 else {colors[-1]}
        colors.append(rng.choice([c for c in range(1, k + 1) if c not in banned]))
    remap = {v: i for i, v in enumerate(sorted(set(verts)))}
    n = len(remap)
    edges = [
        (remap[verts[i]], remap[verts[i + 1]], colors[i], rng.randint(1, MAX_WEIGHT))
        for i in range(m)
    ]
    trap = None
    if index % EULERIAN_TRAP_EVERY == EULERIAN_TRAP_EVERY - 1:
        v, x, y, z = rng.randrange(n), n, n + 1, n + 2
        c, d, e = rng.sample(range(1, k + 1), 3)
        edges += [
            (v, x, c, rng.randint(1, MAX_WEIGHT)),
            (x, y, c, rng.randint(1, MAX_WEIGHT)),
            (y, z, d, rng.randint(1, MAX_WEIGHT)),
            (z, x, e, rng.randint(1, MAX_WEIGHT)),
        ]
        n += 3
        trap = (v, x, y, z)
    return Instance(f"eulerian/{span}-{m}/{index}", n, k, tuple(edges), trap=trap)


GENERATORS = {
    "colored": colored_instance,
    "directed": directed_instance,
    "eulerian": eulerian_instance,
}


def corpus(workload: str, seed: int, count: int) -> list[Instance]:
    gen = GENERATORS[workload]
    return [gen(seed, i) for i in range(count)]
