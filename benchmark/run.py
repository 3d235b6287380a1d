#!/usr/bin/env python3
"""Seeded end-to-end benchmark of the ecpostman solver.

    python3 benchmark/run.py --workload colored --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the solver is imported from
``src/``. One caller in one single-threaded process makes timed calls in
a closed loop, each one the CLI's in-process path: parse the instance
text, ``solve``, format the result document. The calls cycle through the
seed's corpus, so no instance repeats before every other one has run.
After the timed calls every distinct answer is checked against a
computation made apart from the solver (``check.py``).

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` instead runs
traced passes over the head of the corpus and reports per-layer metrics
(``tracer.py``). The last line of stdout is one JSON object; details,
per-call times and, when traced, the spans go to ``benchmark/out/``.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import heapq
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
HOUSE_FILE = OUT / "house.ecg"
SETUP_RUNS = 9
CALIBRATION_S = 0.003  # loop time that defines the reference speed


@dataclass(frozen=True)
class Spec:
    corpus: int  # distinct instances per seed; one pass outlasts a run here
    traced: int  # head of the corpus that one traced pass solves
    tail_pct: int  # optimal_ms_tail percentile: leaves >= 10 optimal calls beyond it


SPECS = {
    "colored": Spec(corpus=500, traced=150, tail_pct=90),
    "directed": Spec(corpus=500, traced=150, tail_pct=90),
    "eulerian": Spec(corpus=180, traced=40, tail_pct=75),
}
NO_MATCHING = "no-perfect-matching"


def nearest_rank(values: list[float], pct: int) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def verdict(doc: str) -> str:
    """'optimal', or the infeasibility reason of a result document."""
    first, _, rest = doc.partition("\n")
    if first == "status optimal":
        return "optimal"
    return rest.partition("\n")[0].removeprefix("reason ")


def setup_seconds(env: dict[str, str]) -> tuple[float, str]:
    """Wall time of a fresh interpreter that imports the CLI and solves HOUSE_FILE."""
    code = "import sys; from ecpostman.cli import main; sys.exit(main(['solve', sys.argv[1]]))"
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", code, str(HOUSE_FILE)],
        env=env, capture_output=True, text=True, timeout=120, check=False,
    )
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"setup solve exited {proc.returncode}: {proc.stderr.strip()}")
    return elapsed, proc.stdout


def _kernel() -> int:
    heap: list[tuple[int, int]] = []
    seen: dict[tuple[int, int], int] = {}
    x = 12345
    for i in range(3000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        heapq.heappush(heap, (x & 1023, i))
        if len(heap) > 64:
            d, j = heapq.heappop(heap)
            seen[d, j & 255] = j
    return len(seen)


class Speedometer:
    """Reads how fast the machine runs right now.

    The machine this benchmark was written on changes speed by up to 2x
    for seconds to minutes at a time, and the solver slows down with it.
    So a fixed loop of the heap, dict and tuple work the solver does runs
    between the timed calls, and every time is reported as if that loop
    had taken CALIBRATION_S: measured time x CALIBRATION_S / loop time.
    The loop time for a call is the median of the ten readings around
    it, which follows the machine's phases but not the jitter of a single
    3 ms reading. Raw times are kept in the output file.
    """

    def __init__(self) -> None:
        self.wall: list[float] = []
        self.cpu: list[float] = []

    def read(self) -> int:
        """Take a reading; returns its index."""
        gc.disable()  # a collection would time the heap, not the machine
        try:
            wall, cpu = time.perf_counter(), time.process_time()
            _kernel()
            self.wall.append(time.perf_counter() - wall)
            self.cpu.append(time.process_time() - cpu)
        finally:
            gc.enable()
        return len(self.wall) - 1

    def factor(self, before: int) -> float:
        """Scale factor for what ran between reading ``before`` and the next."""
        return CALIBRATION_S / statistics.median(self.wall[max(0, before - 4) : before + 6])

    def busy_elsewhere(self) -> list[str]:
        """Threads left running by the program would slow the loop and
        flatter every scaled time; report that as a failure."""
        if sum(self.cpu) > 1.2 * sum(self.wall):
            return ["other threads used the CPU while the speed was read"]
        return []


class Caller:
    """The timed call: parse, solve, format, as ``ecpostman solve`` does."""

    def __init__(self, cli, solver):
        self.cli, self.solver = cli, solver
        self.errors: list[str] = []

    def __call__(self, text: str) -> tuple[float, str | None]:
        cli, solver = self.cli, self.solver
        start = time.perf_counter()
        try:
            g = cli.parse_instance_text(text)
            doc = cli.format_result(g, solver.solve(g))
        except Exception as exc:  # a failed operation is counted, not fatal
            self.errors.append(f"{type(exc).__name__}: {exc}")
            return time.perf_counter() - start, None
        return time.perf_counter() - start, doc


def check_answers(workload, instances, docs: dict[int, str]) -> list[str]:
    """Independent check of every distinct answer; returns the failures."""
    import check

    failures = []
    reference = check.REFERENCES[workload]
    for idx in sorted(docs):
        inst = instances[idx]
        try:
            check.check_answer(workload, inst, docs[idx], reference(inst))
        except check.CheckFailed as exc:
            failures.append(f"{inst.name}: {exc}")
    return failures


def end_to_end(calls, seconds: list[float], setup: list[float], peak_rss_mb: float, spec) -> dict:
    """End-to-end metrics from per-call verdicts and times (seconds)."""
    optimal = [t for (_, v), t in zip(calls, seconds) if v == "optimal"]
    infeasible = [t for (_, v), t in zip(calls, seconds) if v == NO_MATCHING]
    return {
        "instances_per_s": (len(seconds) / sum(seconds) if seconds else 0.0, "1/s"),
        "optimal_ms_p50": (1000 * statistics.median(optimal) if optimal else 0.0, "ms"),
        "optimal_ms_tail": (1000 * nearest_rank(optimal, spec.tail_pct) if optimal else 0.0, "ms"),
        "infeasible_ms_p50": (1000 * statistics.median(infeasible) if infeasible else 0.0, "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def timed_run(args, spec, instances, caller) -> dict:
    import check
    import workloads

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    house = check.Reference(True, workloads.HOUSE_OPTIMUM)
    HOUSE_FILE.write_text(workloads.HOUSE.text())
    failures: list[str] = []
    caller(workloads.HOUSE.text())  # warm-up, untimed

    texts = [inst.text() for inst in instances]
    calls: list[tuple[int, str]] = []  # (corpus index, verdict)
    raw: list[float] = []
    marks: list[int] = []  # reading taken just before each call
    setup: list[tuple[float, int]] = []  # (raw seconds, reading before)
    docs: dict[int, str] = {}
    failed = 0
    speed = Speedometer()
    last = speed.read()
    begin = time.perf_counter()
    i = 0
    while (elapsed := time.perf_counter() - begin) < args.seconds or len(setup) < SETUP_RUNS or not calls:
        # set-up launches are spread over the run, so that their median
        # sees the same phases of machine speed as the calls do
        if len(setup) < SETUP_RUNS and elapsed >= len(setup) * args.seconds / SETUP_RUNS:
            seconds, doc = setup_seconds(env)
            setup.append((seconds, last))
            last = speed.read()
            try:
                check.check_answer("colored", workloads.HOUSE, doc, house)
            except check.CheckFailed as exc:
                failures.append(f"setup answer: {exc}")
            continue
        idx = i % len(texts)
        i += 1
        seconds, doc = caller(texts[idx])
        before, last = last, speed.read()
        if doc is None:
            failed += 1
            continue
        calls.append((idx, verdict(doc)))
        raw.append(seconds)
        marks.append(before)
        if docs.setdefault(idx, doc) != doc:
            failures.append(f"{instances[idx].name}: answer changed between passes")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures += check_answers(args.workload, instances, docs)
    failures += [f"unexpected verdict {v}" for v in {v for _, v in calls} - {"optimal", NO_MATCHING}]
    failures += speed.busy_elsewhere()
    factors = [speed.factor(m) for m in marks]
    setup_scaled = [t * speed.factor(m) for t, m in setup]
    metrics = end_to_end(calls, [t * f for t, f in zip(raw, factors)], setup_scaled, peak_rss_mb, spec)
    raw_metrics = end_to_end(calls, raw, [t for t, _ in setup], peak_rss_mb, spec)
    samples = {
        "instances_per_s": len(calls),
        "optimal_ms_p50": sum(1 for _, v in calls if v == "optimal"),
        "infeasible_ms_p50": sum(1 for _, v in calls if v == NO_MATCHING),
        "setup_s": len(setup),
        "distinct_instances": len(docs),
        "tail_percentile": spec.tail_pct,
    }
    detail = {
        "samples": samples,
        "raw_metrics": {k: v for k, (v, _) in raw_metrics.items()},
        "speed_factor_p50": statistics.median(factors) if factors else 0.0,
        "setup_raw_s": [t for t, _ in setup],
        "calls": [[idx, v, t, f] for (idx, v), t, f in zip(calls, raw, factors)],
    }
    return {"attempted": len(calls) + failed, "failed": failed, "failures": failures,
            "metrics": metrics, "detail": detail}


def traced_run(args, spec, instances, caller, modules) -> dict:
    import tracer

    texts = [inst.text() for inst in instances[: spec.traced]]
    passes, failures, docs = [], [], {}
    counts = spans = None
    attempted = failed = 0
    begin = time.perf_counter()
    while not passes or time.perf_counter() - begin + passes[-1]["wall_s"] <= args.seconds:
        t = tracer.Tracer()
        speed = Speedometer()
        speed.read()
        wall = 0.0
        t.install(*modules)
        try:
            for idx, text in enumerate(texts):
                elapsed, doc = caller(text)
                speed.read()
                wall += elapsed
                attempted += 1
                if doc is None:
                    failed += 1
                elif docs.setdefault(idx, doc) != doc:
                    failures.append(f"{instances[idx].name}: answer changed between passes")
        finally:
            t.uninstall()
        failures += speed.busy_elsewhere()
        factor = CALIBRATION_S / statistics.median(speed.wall)
        raw = t.metrics()
        layer = {m: v * factor if tracer.units(m) == "ms" else v for m, v in raw.items()}
        pass_counts = {m: layer[m] for m in tracer.COUNT_METRICS}
        if counts is None:
            counts = pass_counts
            spans = {"spans": t.spans, "summed": [[*key, *val] for key, val in t.summed.items()]}
        elif pass_counts != counts:
            failures.append("per-layer counts differ between traced passes")
        passes.append({"wall_s": wall, "speed_factor": factor, "metrics": layer, "raw_metrics": raw})
    failures += check_answers(args.workload, instances, docs)
    metrics = {}
    for name in tracer.PER_LAYER:
        values = [p["metrics"][name] for p in passes]
        metrics[name] = (statistics.median(values), tracer.units(name))
    detail = {"passes": passes, "traced_instances": len(texts), "spans": spans}
    return {"attempted": attempted, "failed": failed, "failures": failures,
            "metrics": metrics, "detail": detail}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SPECS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ecpostman" / "__init__.py").is_file():
        print(f"error: no solver sources at {SRC / 'ecpostman'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from ecpostman import auxgraph, cli, pcwalks, solver

    if not Path(solver.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported the solver from {solver.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    OUT.mkdir(exist_ok=True)
    spec = SPECS[args.workload]
    instances = workloads.corpus(args.workload, args.seed, spec.corpus)
    caller = Caller(cli, solver)
    if args.trace:
        result = traced_run(args, spec, instances, caller, (solver, cli, pcwalks, auxgraph))
    else:
        result = timed_run(args, spec, instances, caller)

    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "python": sys.version.split()[0], "errors": caller.errors, **result,
    }
    with gzip.open(f"{stem}.json.gz", "wt", encoding="utf-8") as fh:
        json.dump(report, fh)
    for line in result["failures"][:20] + caller.errors[:20]:
        print(f"FAIL {line}", file=sys.stderr)
    if not args.trace:
        detail = result["detail"]
        samples = " ".join(f"{k}={v}" for k, v in detail["samples"].items())
        unscaled = " ".join(f"{k}={v:.6g}" for k, v in detail["raw_metrics"].items())
        print(f"{args.workload} seed {args.seed}: samples {samples}; "
              f"speed factor {detail['speed_factor_p50']:.4f}; unscaled {unscaled}")
    print(json.dumps({
        "correct": not result["failures"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
