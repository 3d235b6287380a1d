"""Acceptance suite: every criterion at its stated size, zero tolerance.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS/FAIL
line per criterion.
All expected values come from independent brute-force oracles or are
frozen from hand-traced examples; weights are integers throughout, so
every comparison is exact.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from conftest import mg, walk_addition_violation

from ecpostman import GraphError, check_pc_euler, pc_euler_trail, solve, verify_pc_closed_walk
from ecpostman.auxgraph import build_matching_graph
from ecpostman.matching import min_weight_perfect_matching
from ecpostman.oracle import (
    brute_force_matching,
    directed_cpp_brute_force,
    encode_digraph,
    gen_random_digraph,
    gen_random_instance,
    gen_random_trail_instance,
    instance_from_edges,
    oracle_solve,
    pc_walk_minima,
    validate_matching_structure,
    walk_from_edges,
    walk_table,
)
from ecpostman.pcwalks import ShortestWalkFinder
from ecpostman.solver import apply_matching

C1_RANDOM = 6000
C1_CONSTRUCTED = 4000
C2_GRAPHS = 1000
C3_CASES = 1000
C5_CASES = 1000
C6_CASES = 200


def report(num: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num}] {status} {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def random_instance(seed: int, max_n: int = 5, max_m: int = 8):
    n = 2 + seed % (max_n - 1)
    lo = max(1, n - 1)
    m = lo + seed % (max_m - lo + 1)
    k = 1 + (seed // 7) % 3
    return gen_random_instance(n, k, m, 3, seed=seed)


def test_criterion_1_trail_equivalence():
    """Feasibility check agrees with extraction + exact-once verification."""
    feasible_seen = 0
    cases = 0
    for seed in range(C1_RANDOM):
        g = random_instance(seed, max_n=5, max_m=8)
        cases += 1
        chk = check_pc_euler(g)
        if chk.feasible:
            trail = pc_euler_trail(g)
            rep = verify_pc_closed_walk(g, trail)
            assert rep.ok, f"seed {seed}: {rep.failure}"
            assert all(c == 1 for c in rep.traversals), f"seed {seed}: not exact-once"
            feasible_seen += 1
        else:
            with pytest.raises(GraphError):
                pc_euler_trail(g)
    for seed in range(C1_CONSTRUCTED):
        k = 2 + seed % 2
        m = 2 + seed % 7
        if k == 2 and m % 2:
            m += 1
        g = gen_random_trail_instance(2 + seed % 4, k, m, 3, seed=seed)
        cases += 1
        assert check_pc_euler(g).feasible, f"constructed seed {seed} flagged infeasible"
        trail = pc_euler_trail(g)
        rep = verify_pc_closed_walk(g, trail)
        assert rep.ok and all(c == 1 for c in rep.traversals), f"seed {seed}"
        feasible_seen += 1
    report(1, cases >= 10_000, f"trail equivalence on {cases} cases ({feasible_seen} feasible)")


def test_criterion_2_walk_minima_equivalence():
    """Walk finder equals exhaustive enumeration on every signature."""
    graphs = 0
    signatures = 0
    for seed in range(C2_GRAPHS):
        n = 3 + seed % 4  # 3..6
        lo = max(1, n - 1)
        m = lo + seed % 5
        g = gen_random_instance(n, 3, m, 3, seed=200_000 + seed)
        graphs += 1
        signatures += (g.n * g.k) ** 2
        finder = ShortestWalkFinder(g)
        for u in range(g.n):
            for c1 in range(1, g.k + 1):
                table = walk_table(finder, u, c1)
                brute = pc_walk_minima(g, u, c1)
                assert set(table) == set(brute), f"seed {seed} source ({u},{c1})"
                for key, (w, _) in table.items():
                    assert w == brute[key], f"seed {seed} {key}: {w} != {brute[key]}"
    report(2, graphs >= 1000, f"walk minima equal on {graphs} graphs, {signatures} signatures")


def perturbed_instance(seed: int):
    """Connected instance built from a feasible core plus noise edges.

    The noise usually breaks evenness or balance, so these cases
    exercise non-trivial matchings and duplications while staying
    within |V| <= 5, k <= 3, |E| <= 7, weights <= 3.
    """
    import random as _random

    rng = _random.Random(seed)
    k = 2 + seed % 2
    m = 2 + seed % 4  # 2..5 core edges
    if k == 2 and m % 2:
        m += 1
    g = gen_random_trail_instance(2 + seed % 4, k, m, 3, seed=seed)
    rows = [(e.u, e.v, e.color, e.weight) for e in g.edges]
    for _ in range(rng.randint(1, min(2, 7 - len(rows)))):
        u = rng.randrange(g.n)
        v = rng.randrange(g.n - 1)
        v += v >= u
        rows.append((u, v, rng.randint(1, k), rng.randint(1, 3)))
    from ecpostman import ColoredMultigraph

    return ColoredMultigraph(g.n, k, rows)


@pytest.fixture(scope="module")
def end_to_end_records():
    records = []
    for case in range(C3_CASES):
        seed = 90_000 + case
        if case % 2 == 0:
            g = random_instance(seed, max_n=5, max_m=7)
        else:
            g = perturbed_instance(seed)
        sol = solve(g)
        rec = {"seed": seed, "optimal": sol.optimal}
        if sol.optimal:
            bound = max(3, max(sol.multiplicities))
            hit = oracle_solve(g, bound)
            rec["oracle_agrees"] = hit is not None and hit[0] == sol.total_weight
            rec["multiplicity_bound_ok"] = max(sol.multiplicities) <= bound
            rec["walk_ok"] = verify_pc_closed_walk(g, sol.walk).ok

            aux = build_matching_graph(g)  # the model solve builds
            matching = min_weight_perfect_matching(aux.instance)
            rec["structure_ok"] = (
                matching is not None
                and validate_matching_structure(aux, matching.pairs).ok
            )
            effects_ok = matching is not None
            current = g
            for pair in sorted(matching.pairs if matching else ()):
                edge = aux.edge_by_pair[pair]
                if edge.artificial:
                    continue
                after, _ = apply_matching(current, aux, (pair,))
                witness = walk_from_edges(g, edge.signature[0], aux.witnesses[edge.signature])
                if walk_addition_violation(current, after, witness) is not None:
                    effects_ok = False
                current = after
            rec["effects_ok"] = effects_ok
        else:
            rec["oracle_agrees"] = oracle_solve(g, 3) is None
        records.append(rec)
    return records


def test_criterion_3_end_to_end_optimality(end_to_end_records):
    """Solver equals the multiplicity-search oracle on status and weight."""
    optimal = sum(1 for r in end_to_end_records if r["optimal"])
    bad = [r["seed"] for r in end_to_end_records if not r["oracle_agrees"]]
    unverified = [r["seed"] for r in end_to_end_records if r["optimal"] and not r["walk_ok"]]
    ok = len(end_to_end_records) >= 1000 and not bad and not unverified
    report(
        3,
        ok,
        f"end-to-end agreement on {len(end_to_end_records)} instances "
        f"({optimal} optimal); disagreements {bad[:5]}, unverified {unverified[:5]}",
    )


def test_criterion_4_matching_structure_and_duplication_effects(end_to_end_records):
    """Every produced matching validates; every added walk obeys the
    degree-effect bounds."""
    checked = [r for r in end_to_end_records if r["optimal"]]
    bad_structure = [r["seed"] for r in checked if not r["structure_ok"]]
    bad_effects = [r["seed"] for r in checked if not r["effects_ok"]]
    ok = bool(checked) and not bad_structure and not bad_effects
    report(
        4,
        ok,
        f"matching structure + duplication effects on {len(checked)} optimal "
        f"instances; structure failures {bad_structure[:5]}, effect failures {bad_effects[:5]}",
    )


def test_criterion_5_matching_exactness():
    """Blossom-backed matching equals brute force on random instances."""
    import random as _random

    rng = _random.Random(2024)
    mismatches = []
    for trial in range(C5_CASES):
        n = rng.randint(0, 12)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        rng.shuffle(pairs)
        edges = [(u, v, rng.randint(0, 9)) for u, v in pairs[: rng.randint(0, len(pairs))]]
        instance = instance_from_edges(n, edges)
        fast = min_weight_perfect_matching(instance)
        slow = brute_force_matching(instance)
        if (fast is None) != (slow is None) or (fast and fast.weight != slow.weight):
            mismatches.append(trial)
    report(5, not mismatches, f"matching exactness on {C5_CASES} instances; bad {mismatches[:5]}")


def test_criterion_6_directed_cross_check():
    """Solving the two-colored encoding equals brute-force directed optimum."""
    mismatches = []
    optimal = 0
    for seed in range(C6_CASES):
        n = 2 + seed % 3  # 2..4
        m = 1 + seed % 6  # 1..6
        dn, arcs = gen_random_digraph(n, m, 3, seed=400_000 + seed)
        sol = solve(encode_digraph(dn, arcs))
        if sol.optimal:
            optimal += 1
            arc_mult = [sol.multiplicities[2 * i] for i in range(len(arcs))]
            bound = max(3, max(arc_mult))
            brute = directed_cpp_brute_force(dn, arcs, bound=bound)
            if brute != sol.total_weight:
                mismatches.append(seed)
        else:
            if directed_cpp_brute_force(dn, arcs, bound=3) is not None:
                mismatches.append(seed)
    report(
        6,
        not mismatches,
        f"directed cross-check on {C6_CASES} digraphs ({optimal} solvable); bad {mismatches[:5]}",
    )


def test_criterion_7_deterministic_output(tmp_path):
    """Repeated CLI runs produce byte-identical result documents."""
    house = "ecg 4 3 5\n1 2 1 1\n2 3 2 5\n3 1 3 1\n2 4 3 1\n4 3 1 1\n"
    files = {"house.ecg": house}
    for seed in (3, 17):
        g = gen_random_instance(4, 3, 6, 3, seed=seed)
        lines = [f"ecg {g.n} {g.k} {len(g.edges)}"]
        lines += [f"{e.u + 1} {e.v + 1} {e.color} {e.weight}" for e in g.edges]
        files[f"rand{seed}.ecg"] = "\n".join(lines) + "\n"
    stable = True
    for name, text in files.items():
        path = tmp_path / name
        path.write_text(text)
        outputs = set()
        for hashseed in ("0", "42", "9001"):
            env = dict(os.environ, PYTHONHASHSEED=hashseed)
            proc = subprocess.run(
                [sys.executable, "-m", "ecpostman.cli", "solve", str(path)],
                capture_output=True,
                env=env,
            )
            outputs.add(proc.stdout)
        if len(outputs) != 1:
            stable = False
    report(7, stable, f"byte-identical documents across runs for {len(files)} instances")


def test_criterion_8_worked_examples():
    """Frozen worked examples: triangle 3, house 11, single-color infeasible."""
    triangle = mg(3, 3, [(0, 1, 1, 1), (1, 2, 2, 1), (2, 0, 3, 1)])
    house = mg(4, 3, [(0, 1, 1, 1), (1, 2, 2, 5), (2, 0, 3, 1), (1, 3, 3, 1), (3, 2, 1, 1)])
    path = mg(3, 1, [(0, 1, 1, 1), (1, 2, 1, 1)])

    t = solve(triangle)
    h = solve(house)
    p = solve(path)
    ok = (
        t.optimal
        and t.total_weight == 3
        and t.multiplicities == (1, 1, 1)
        and h.optimal
        and h.total_weight == 11
        and sorted(h.multiplicities) == [1, 1, 1, 2, 2]
        and h.multiplicities[1] == 1
        and p.status == "infeasible"
        and oracle_solve(house, 3)[0] == 11
        and oracle_solve(triangle, 3) == (3, (1, 1, 1))
        and oracle_solve(path, 3) is None
    )
    report(8, ok, "triangle=3, house=11, single-color instance infeasible")
