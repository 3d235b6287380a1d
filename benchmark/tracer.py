"""Per-layer spans and counts, recorded from outside the solver.

The tracer replaces, for the length of a traced pass, the public
functions that ``solve`` looks up in the ``ecpostman.solver`` namespace,
``ShortestWalkFinder.table``, ``MatchingGraph.as_matching_instance`` and
the two ``ecpostman.cli`` functions the benchmark calls. Each call leaves
a span (name, start, end, parent) in memory; a span's self time is its
duration minus the durations of its direct children. ``table`` is called
some ten thousand times per solve, mostly to hit its cache, so its calls
are summed per parent span (name, parent, calls, seconds) instead, which
keeps the tracing overhead small. Counts are read off the values the
wrapped functions return. A function that the solver no longer has is
skipped and its metrics read zero.
"""

from __future__ import annotations

import functools
from collections import Counter
from time import perf_counter

# span name -> per-layer metric that its self time adds to
SPAN_METRICS = {
    "is_connected": "graph.screen_ms",
    "has_single_color_vertex": "graph.screen_ms",
    "normalize": "graph.normalize_ms",
    "contract_walk": "graph.contract_ms",
    "table": "pcwalks.table_ms",
    "build_matching_graph": "auxgraph.build_self_ms",
    "validate_matching_structure": "auxgraph.validate_ms",
    "as_matching_instance": "matching.instance_ms",
    "min_weight_perfect_matching": "matching.solve_ms",
    "apply_matching": "solver.apply_ms",
    "edge_multiplicities": "solver.multiplicities_ms",
    "solve": "solver.self_ms",
    "check_pc_euler": "euler.check_ms",
    "pc_euler_trail": "euler.trail_ms",
    "verify_pc_closed_walk": "euler.verify_ms",
    "parse_instance_text": "cli.parse_ms",
    "format_result": "cli.format_ms",
}
COUNT_METRICS = (
    "graph.norm_vertices",
    "graph.norm_edges",
    "graph.norm_colors",
    "pcwalks.table_calls",
    "pcwalks.dijkstra_runs",
    "pcwalks.settled_states",
    "auxgraph.vertices",
    "auxgraph.filler_vertices",
    "auxgraph.walk_edges",
    "auxgraph.artificial_edges",
    "matching.walk_pairs",
    "solver.duplicated_edges",
    "euler.tour_edges",
    "cli.document_bytes",
)
RATIO_METRICS = {"pcwalks.witness_use_ratio": ("matching.walk_pairs", "pcwalks.settled_states")}
SOLVER_FUNCTIONS = (
    "is_connected",
    "has_single_color_vertex",
    "normalize",
    "build_matching_graph",
    "min_weight_perfect_matching",
    "validate_matching_structure",
    "apply_matching",
    "check_pc_euler",
    "pc_euler_trail",
    "contract_walk",
    "verify_pc_closed_walk",
    "edge_multiplicities",
    "solve",
)


class Tracer:
    """Spans and counts of one traced pass."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.summed: dict[tuple[str, int], list] = {}  # (name, parent) -> [calls, seconds]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        # ids of the walk tables handed out during the current solve; the
        # finder keeps every table alive until the solve returns
        self._tables_seen: set[int] = set()
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, count=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx][1] = start
                spans[idx][2] = end
            if count is not None:
                count(args, result)
            return result

        return traced

    def _wrap_summed(self, name, fn, count):
        summed, stack = self.summed, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = perf_counter()
            result = fn(*args, **kwargs)
            elapsed = perf_counter() - start
            entry = summed.setdefault((name, stack[-1] if stack else -1), [0, 0.0])
            entry[0] += 1
            entry[1] += elapsed
            count(args, result)
            return result

        return traced

    def _patch(self, owner, name, count=None, summed=False) -> None:
        fn = owner.__dict__.get(name) if isinstance(owner, type) else getattr(owner, name, None)
        if fn is None:
            return
        self._patched.append((owner, name, fn))
        wrap = self._wrap_summed if summed else self._wrap
        setattr(owner, name, wrap(name, fn, count))

    def install(self, solver, cli, pcwalks, auxgraph) -> None:
        counts = self.counts

        def normalized(args, result):
            g_norm = result[0]
            counts["graph.norm_vertices"] += g_norm.n
            counts["graph.norm_edges"] += len(g_norm.edges)
            counts["graph.norm_colors"] += g_norm.k

        seen = self._tables_seen

        def table(args, result):
            counts["pcwalks.table_calls"] += 1
            if id(result) not in seen:  # a fresh table is one Dijkstra run
                seen.add(id(result))
                counts["pcwalks.dijkstra_runs"] += 1
                counts["pcwalks.settled_states"] += len(result)

        def solved(args, result):
            seen.clear()

        def built(args, mg):
            walk = sum(1 for e in mg.edges if e.signature is not None)
            counts["auxgraph.vertices"] += len(mg.vertices)
            counts["auxgraph.filler_vertices"] += sum(map(len, getattr(mg, "filler_indices", {}).values()))
            counts["auxgraph.walk_edges"] += walk
            counts["auxgraph.artificial_edges"] += len(mg.edges) - walk

        def applied(args, result):
            g_norm, mg, pairs = args
            by_pair = mg.edge_by_pair
            counts["matching.walk_pairs"] += sum(1 for p in pairs if by_pair[p].signature is not None)
            counts["solver.duplicated_edges"] += len(result[0].edges) - len(g_norm.edges)

        def trail(args, walk):
            counts["euler.tour_edges"] += len(walk.edges)

        def formatted(args, doc):
            counts["cli.document_bytes"] += len(doc.encode())

        hooks = {"normalize": normalized, "build_matching_graph": built,
                 "apply_matching": applied, "pc_euler_trail": trail, "solve": solved}
        for name in SOLVER_FUNCTIONS:
            self._patch(solver, name, hooks.get(name))
        finder = getattr(pcwalks, "ShortestWalkFinder", None)
        if finder is not None:
            self._patch(finder, "table", table, summed=True)
        graph = getattr(auxgraph, "MatchingGraph", None)
        if graph is not None:
            self._patch(graph, "as_matching_instance")
        self._patch(cli, "parse_instance_text")
        self._patch(cli, "format_result", formatted)

    def uninstall(self) -> None:
        while self._patched:
            owner, name, fn = self._patched.pop()
            setattr(owner, name, fn)

    def self_times(self) -> Counter:
        """Self time in seconds summed per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Counter = Counter()
        for (name, parent), (_, seconds) in self.summed.items():
            if parent >= 0:
                child[parent] += seconds
            out[name] += seconds
        for (name, start, end, _), inner in zip(self.spans, child):
            out[name] += end - start - inner
        return out

    def metrics(self) -> dict[str, float]:
        """Per-layer times (ms, self time) and counts of the pass."""
        out = {metric: 0.0 for metric in SPAN_METRICS.values()}
        for name, seconds in self.self_times().items():
            if name in SPAN_METRICS:
                out[SPAN_METRICS[name]] += 1000.0 * seconds
        for metric in COUNT_METRICS:
            out[metric] = self.counts[metric]
        for metric, (num, den) in RATIO_METRICS.items():
            out[metric] = self.counts[num] / self.counts[den] if self.counts[den] else 0.0
        return out


def units(metric: str) -> str:
    if metric.endswith("_ms"):
        return "ms"
    return "ratio" if metric in RATIO_METRICS else "count"


PER_LAYER = tuple(dict.fromkeys(SPAN_METRICS.values())) + COUNT_METRICS + tuple(RATIO_METRICS)
