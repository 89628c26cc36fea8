from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from math import floor

import numpy as np
import pytest

from codedswitch import (
    Instance,
    coverage_holds,
    hall_full_throughput,
    intersection_stats,
    pairwise_holds,
    solve_oracle,
    t_max,
)
from codedswitch.errors import DegenerateL

from conftest import CLASSIC_TRIPLE_SYSTEM, CONTENTION_PACKETS, brute_force_l_star


def _inst(N, k, n, packets):
    return Instance(N=N, k=k, n=n, packets=tuple(packets))


# -- t_max -------------------------------------------------------------------

def test_t_max_values():
    assert t_max(3, 2, 3) == 1
    assert t_max(3, 3, 3) == 0
    assert t_max(5, 3, 3) == 2
    assert t_max(4, 3, 4) == Fraction(2, 3)


def test_t_max_degenerate():
    with pytest.raises(DegenerateL):
        t_max(3, 2, 1)


# -- coverage ----------------------------------------------------------------

def test_coverage_contention():
    assert not coverage_holds(_inst(5, 3, 3, CONTENTION_PACKETS))
    assert coverage_holds(_inst(5, 1, 3, CONTENTION_PACKETS))


def test_coverage_full_sets():
    packets = ((0, 1, 2, 3),) * 2
    assert coverage_holds(_inst(4, 2, 4, packets))


# -- pairwise ----------------------------------------------------------------

def test_pairwise_triple_system():
    inst = _inst(7, 2, 3, CLASSIC_TRIPLE_SYSTEM[:3])
    assert pairwise_holds(inst)


def test_pairwise_identical_packets():
    inst = _inst(5, 3, 3, ((0, 1, 2), (0, 1, 2)))
    assert not pairwise_holds(inst)


def test_pairwise_worked_design_instance():
    inst = _inst(7, 2, 3, ((1, 2, 3), (1, 4, 5), (3, 5, 6)))
    assert pairwise_holds(inst)
    assert floor(t_max(3, 2, 3)) == 1


def test_pairwise_degenerate():
    with pytest.raises(DegenerateL):
        pairwise_holds(_inst(5, 2, 3, (CONTENTION_PACKETS[0],)))


# -- hall --------------------------------------------------------------------

def test_hall_contention_k2_fails():
    assert not hall_full_throughput(_inst(5, 2, 3, CONTENTION_PACKETS))


def test_hall_worked_design_instance():
    assert hall_full_throughput(_inst(7, 2, 3, ((1, 2, 3), (1, 4, 5), (3, 5, 6))))


def test_hall_single_packet():
    assert hall_full_throughput(_inst(5, 3, 3, ((0, 1, 2),)))


def test_hall_cap():
    # decided at any L: a matching, not an enumeration of the 2^L subsets
    assert not hall_full_throughput(_inst(30, 1, 2, ((0, 1),) * 25))
    ring = [tuple(sorted((i, (i + 1) % 30))) for i in range(30)]
    assert hall_full_throughput(_inst(30, 1, 2, ring))


def test_hall_matches_exhaustive_search_small():
    # every 3-packet instance with n=3 over 5 MUs, both k=2 and k=3
    subsets = list(combinations(range(5), 3))
    for k in (2, 3):
        for packets in product(subsets, repeat=3):
            inst = _inst(5, k, 3, packets)
            expected = brute_force_l_star(packets, k) == 3
            assert hall_full_throughput(inst) is expected


def test_hall_matches_oracle_random():
    rng = np.random.default_rng(2024)
    for _ in range(300):
        N = int(rng.integers(4, 9))
        n = int(rng.integers(1, N + 1))
        k = int(rng.integers(1, n + 1))
        L = int(rng.integers(1, 6))
        packets = tuple(
            tuple(sorted(rng.choice(N, size=n, replace=False).tolist()))
            for _ in range(L)
        )
        inst = _inst(N, k, n, packets)
        full = solve_oracle(inst, cap=64).l_star == L
        assert hall_full_throughput(inst) is full


def test_implication_chain_random():
    # pairwise => hall => coverage, on random instances
    rng = np.random.default_rng(7)
    seen_pairwise = 0
    for _ in range(500):
        N = int(rng.integers(4, 10))
        n = int(rng.integers(2, N + 1))
        k = int(rng.integers(1, n + 1))
        L = int(rng.integers(2, 6))
        packets = tuple(
            tuple(sorted(rng.choice(N, size=n, replace=False).tolist()))
            for _ in range(L)
        )
        inst = _inst(N, k, n, packets)
        if pairwise_holds(inst):
            seen_pairwise += 1
            assert hall_full_throughput(inst)
        if hall_full_throughput(inst):
            assert coverage_holds(inst)
    assert seen_pairwise > 0


def test_uncoded_coverage_equality_iff_full_throughput():
    # k = n: disjointness <=> covering exactly kL MUs
    rng = np.random.default_rng(99)
    for _ in range(300):
        N = int(rng.integers(4, 10))
        n = int(rng.integers(1, 4))
        L = int(rng.integers(1, 4))
        if n * L > N:
            continue
        packets = tuple(
            tuple(sorted(rng.choice(N, size=n, replace=False).tolist()))
            for _ in range(L)
        )
        inst = _inst(N, n, n, packets)
        union = set().union(*map(set, packets))
        full = solve_oracle(inst, cap=64).l_star == L
        assert (len(union) >= n * L) is full
        if full:
            assert len(union) == n * L


# -- intersection stats ------------------------------------------------------

def test_intersection_stats_matrix(contention_instance):
    stats = intersection_stats(contention_instance)
    assert (np.diag(stats.pairwise) == 3).all()
    assert (stats.pairwise == stats.pairwise.T).all()
    assert stats.pairwise[0, 1] == 1  # {0,1,2} and {1,3,4}
    assert stats.pairwise[1, 2] == 2  # {1,3,4} and {2,3,4}
    assert stats.max_pairwise == 2


def test_phi_example(contention_instance):
    stats = intersection_stats(contention_instance)
    # pairwise sum over the three packets: 1 + 1 + 2
    assert stats.phi(2) == 4
    assert stats.phi(3) == 0  # no MU in all three
    assert stats.phi(1) == 9


def test_inclusion_exclusion_union_identity():
    rng = np.random.default_rng(5)
    for _ in range(200):
        N = int(rng.integers(4, 9))
        n = int(rng.integers(2, N + 1))
        L = int(rng.integers(2, 5))
        packets = tuple(
            tuple(sorted(rng.choice(N, size=n, replace=False).tolist()))
            for _ in range(L)
        )
        inst = _inst(N, 1, n, packets)
        stats = intersection_stats(inst)
        members = list(range(L))
        union = len(set().union(*map(set, packets)))
        total = n * L - stats.phi(2, members)
        for s in range(3, L + 1):
            total += (-1) ** (s - 1) * stats.phi(s, members)
        assert union == total
