from __future__ import annotations

from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product
from math import floor

import numpy as np
import pytest

from codedswitch import (
    Instance,
    PlacementRng,
    build_projective_plane,
    coverage_holds,
    hall_full_throughput,
    intersection_stats,
    pairwise_holds,
    solve_oracle,
    t_max,
)
from codedswitch import conditions
from codedswitch.conditions import (
    arc_hall_rows,
    hall_l_stars,
    hall_rows,
    hall_table_takes,
    mu_masks,
)
from codedswitch.errors import DegenerateL, TooLarge
from codedswitch.placement import POLICIES, draw_rows, instance_from_starts, packet_table

from conftest import (
    CLASSIC_TRIPLE_SYSTEM,
    CONTENTION_PACKETS,
    brute_force_l_star,
    oracle_l_stars,
)


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


def _packet_rows(policy, design, L, B, seed):
    """B draws of L packets over the design's geometry."""
    return draw_rows(policy, design.N, design.n, L, B, PlacementRng(seed).generator(), design)


def _matched(packets, N, k):
    n = packets.shape[2]
    return [hall_full_throughput(_inst(N, k, n, row)) for row in packets.tolist()]


# (L, B): one to fifty rows of three to six packets
@pytest.mark.parametrize("L,B", [(4, 1), (4, 2), (6, 7), (6, 8), (3, 50)])
@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("q", [2, 3])
def test_hall_rows_equals_matching_row_by_row(policy, q, L, B):
    design = build_projective_plane(q)
    packets = _packet_rows(policy, design, L, B, seed=100 * q + L)
    for k in range(1, design.n + 1):
        assert hall_rows(packets, design.N, k).tolist() == _matched(packets, design.N, k)


@pytest.fixture
def matched_rows(monkeypatch):
    """Counts the rows that ``hall_rows`` hands to ``hall_full_throughput``."""
    calls = []
    inner = conditions.hall_full_throughput
    monkeypatch.setattr(conditions, "hall_full_throughput",
                        lambda inst: calls.append(inst) or inner(inst))
    return calls


def test_hall_rows_match_no_row_inside_the_gate(matched_rows):
    for L in (4, 16):
        packets = _packet_rows("uniform", build_projective_plane(2), L, 1, seed=3)
        assert hall_rows(packets, 7, 1).tolist() == _matched(packets, 7, 1)
    assert matched_rows == []


def test_hall_rows_top_mask_bit_and_past_the_mask(matched_rows):
    # MU 63 is the top bit of a uint64 mask; at N=65 the rows are matched
    rows = [((62, 63), (0, 63)), ((62, 63), (0, 1)), ((63, 64), (63, 64)), ((1, 63), (2, 64))]
    for N, expected, matched in ((64, [False, True], 0), (65, [False, True, False, True], 4)):
        packets = np.array(rows[:len(expected)])
        assert hall_rows(packets, N, 2).tolist() == expected == _matched(packets, N, 2)
        assert len(matched_rows) == matched
        del matched_rows[:]
    gen = np.random.default_rng(64)
    packets = np.array([[np.sort(gen.choice(64, 8, replace=False)) for _ in range(5)]
                        for _ in range(40)])
    assert (packets == 63).any()
    for k in (4, 6, 8):
        assert hall_rows(packets, 64, k).tolist() == _matched(packets, 64, k)


def test_hall_rows_of_no_rows():
    for N in (7, 65):
        out = hall_rows(np.zeros((0, 3, 2), dtype=np.int64), N, 1)
        assert out.shape == (0,) and out.dtype == bool


@pytest.mark.parametrize("N,L", [(12, 1), (40, 5), (64, 16)])
def test_hall_table_readers_take_masks(N, L):
    # a (B, L) array of packet masks reads as its packets
    rows = draw_rows("uniform", N, 3, L, 9, np.random.default_rng([N, L]))
    rows[:, 0] = [N - 3, N - 2, N - 1]  # MU 63 is the top mask bit at N = 64
    masks = mu_masks(rows)
    assert masks.shape == (9, L) and masks.dtype == np.uint64
    assert mu_masks(rows[0]).tolist() == masks[0].tolist()
    for k in (1, 2, 3):
        assert hall_rows(masks, N, k).tolist() == hall_rows(rows, N, k).tolist()
        assert hall_l_stars(masks, N, k).tolist() == hall_l_stars(rows, N, k).tolist()


def test_hall_rows_refuse_masks_past_the_gate():
    with pytest.raises(TooLarge):
        hall_rows(np.zeros((1, 17), dtype=np.uint64), 12, 1)


# -- arc_hall_rows ------------------------------------------------------------

@pytest.mark.parametrize("N", range(2, 11))
def test_arc_hall_rows_equal_the_hall_table_on_every_multiset(N):
    for L in range(1, 6):
        starts = np.array(list(combinations_with_replacement(range(N), L)))
        for n in range(1, N):
            masks = mu_masks(packet_table("cyclic", N, n))[starts]
            for k in range(1, n + 1):
                assert arc_hall_rows(starts, N, n, k).tolist() == hall_rows(masks, N, k).tolist()


@pytest.mark.parametrize("N", [65, 80, 100])
def test_arc_hall_rows_equal_matching_past_the_hall_table(N):
    # past both of the Hall table's gates: 64 MUs and 16 packets
    gen = np.random.default_rng(N)
    seen = set()
    for L in range(17, 21):
        for n, k in [(3, 2), (4, 3), (6, 4), (N // 4, 5)]:
            # uniform rows, and evenly spaced rows whose starts each move by
            # 0 or the row's nudge, one or two MUs, so both outcomes show
            starts = gen.integers(0, N, size=(12, L))
            starts[6:] = (np.arange(L) * (N // L)
                          + gen.integers(0, 2, size=(6, L)) * gen.integers(1, 3, size=(6, 1)))
            starts.sort(axis=1)
            got = arc_hall_rows(starts, N, n, k).tolist()
            assert got == [hall_full_throughput(instance_from_starts(N, n, row, k=k))
                           for row in starts.tolist()], (L, n, k)
            seen.update(got)
    assert seen == {False, True}


def test_arc_hall_rows_edge_rows():
    assert arc_hall_rows(np.zeros((0, 3), dtype=np.int64), 7, 3, 2).tolist() == []
    # one packet always fits: k <= n < N
    assert arc_hall_rows(np.array([[0], [6]]), 7, 3, 3).tolist() == [True, True]
    # L*k > N: spread arcs still fail, one MU short
    starts = np.array([[0, 2, 4, 6], [0, 1, 3, 5]])
    assert arc_hall_rows(starts, 7, 6, 2).tolist() == [False, False]
    assert hall_rows(mu_masks(packet_table("cyclic", 7, 6))[starts], 7, 2).tolist() == [False] * 2
    assert arc_hall_rows(starts, 8, 6, 2).tolist() == [True, True]


@pytest.mark.parametrize("N", [40, 64, 65])
@pytest.mark.parametrize("L", range(1, 18))
def test_hall_table_readers_equal_matching_and_the_oracle(monkeypatch, N, L):
    """Both readers of the one Hall table, in whole and in forced 3-row
    slices, and past its gate (L = 17, N = 65)."""
    rows = draw_rows("uniform", N, 3, L, 7, np.random.default_rng([N, L]))
    rows[:, 0] = [N - 3, N - 2, N - 1]  # MU 63 is the top mask bit at N = 64
    for k in (1, 2, 3):
        l_stars = oracle_l_stars(rows, N, k)
        full = [s == L for s in l_stars]
        assert hall_rows(rows, N, k).tolist() == full == _matched(rows, N, k)
        if not hall_table_takes(N, L):
            with pytest.raises(TooLarge):
                hall_l_stars(rows, N, k)
            continue
        assert hall_l_stars(rows, N, k).tolist() == l_stars
        with monkeypatch.context() as m:
            m.setattr(conditions, "_SLICE_ENTRIES", 3 << L)
            assert hall_rows(rows, N, k).tolist() == full
            assert hall_l_stars(rows, N, k).tolist() == l_stars


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
