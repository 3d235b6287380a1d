"""Minimum-weight perfect matching against the brute-force oracle."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecpostman import GraphError
from ecpostman.matching import MatchingInstance, min_weight_perfect_matching
from ecpostman.oracle import brute_force_matching


def inst(n, edges):
    return MatchingInstance.from_edges(n, edges)


def test_four_cycle():
    i = inst(4, [(0, 1, 1), (1, 2, 2), (2, 3, 1), (3, 0, 2)])
    m = min_weight_perfect_matching(i)
    assert m.pairs == ((0, 1), (2, 3))
    assert m.weight == 2
    b = brute_force_matching(i)
    assert b.weight == 2 and b.pairs == m.pairs


def test_odd_vertex_count_has_no_perfect_matching():
    i = inst(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])
    assert min_weight_perfect_matching(i) is None
    assert brute_force_matching(i) is None


def test_k4_with_two_cheap_edges():
    edges = [(0, 1, 1), (2, 3, 1), (0, 2, 10), (0, 3, 10), (1, 2, 10), (1, 3, 10)]
    i = inst(4, edges)
    m = min_weight_perfect_matching(i)
    assert m.pairs == ((0, 1), (2, 3)) and m.weight == 2


def test_empty_and_edgeless():
    assert brute_force_matching(inst(0, [])).weight == 0
    assert min_weight_perfect_matching(inst(0, [])).weight == 0
    assert brute_force_matching(inst(2, [])) is None
    assert min_weight_perfect_matching(inst(2, [])) is None


def test_parallel_edges_collapse_to_minimum():
    i = inst(2, [(0, 1, 5), (1, 0, 2), (0, 1, 9)])
    assert i.edges == ((0, 1, 2),)
    assert min_weight_perfect_matching(i).weight == 2


def test_loops_rejected():
    with pytest.raises(GraphError):
        inst(2, [(1, 1, 1)])


def test_brute_force_size_guard():
    with pytest.raises(GraphError):
        brute_force_matching(inst(14, []))


def test_randomized_agreement_with_brute_force():
    rng = random.Random(123)
    for _ in range(300):
        n = rng.randint(0, 12)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        rng.shuffle(pairs)
        edges = [(u, v, rng.randint(0, 8)) for u, v in pairs[: rng.randint(0, len(pairs))]]
        i = inst(n, edges)
        fast = min_weight_perfect_matching(i)
        slow = brute_force_matching(i)
        assert (fast is None) == (slow is None)
        if fast is not None:
            assert fast.weight == slow.weight
            covered = {v for p in fast.pairs for v in p}
            assert len(covered) == n == 2 * len(fast.pairs)


@given(st.integers(2, 10), st.data())
@settings(max_examples=60, deadline=None)
def test_matching_validity(n, data):
    if n % 2:
        n += 1
    all_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = data.draw(st.lists(st.sampled_from(all_pairs), max_size=len(all_pairs)))
    edges = [(u, v, data.draw(st.integers(0, 6))) for u, v in chosen]
    i = inst(n, edges)
    m = min_weight_perfect_matching(i)
    if m is None:
        return
    weights = {(u, v): w for u, v, w in i.edges}
    assert m.weight == sum(weights[p] for p in m.pairs)
    covered = [v for p in m.pairs for v in p]
    assert sorted(covered) == list(range(n))
