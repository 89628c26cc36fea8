from __future__ import annotations

import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, count, product
from math import comb, factorial, floor

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from codedswitch import (
    Instance,
    PlacementRng,
    build_lexicographic_packing,
    build_projective_plane,
    hall_full_throughput,
    instance_from_starts,
    p_cover_cyclic,
    p_cover_uniform,
    p_full_throughput_exact,
    p_pair_cyclic,
    p_pair_design,
    solve_cyclic,
    solve_oracle,
    t_max,
    union_model_matrix,
)
from codedswitch import analysis, conditions
from codedswitch.analysis import (
    multisets,
    union_cardinality_distribution,
)
from codedswitch.conditions import arc_hall_rows
from codedswitch.ensemble import l_stars
from codedswitch.errors import BadParams, TooLarge
from codedswitch.placement import POLICIES, draw, draw_rows, packet_table


# -- union-cardinality matrix -------------------------------------------------

def test_union_matrix_rows_stochastic():
    m = union_model_matrix(8, 3)
    for row in m.gamma:
        assert sum(row, Fraction(0)) == 1
        assert abs(float(sum(row, Fraction(0))) - 1.0) < 1e-12


def test_union_matrix_support():
    N, n = 7, 3
    m = union_model_matrix(N, n)
    for i in range(N + 1):
        for j in range(N + 1):
            inside = max(i, n) <= j <= min(i + n, N)
            if not inside:
                assert m.gamma[i][j] == 0


def test_union_matrix_first_step_point_mass():
    m = union_model_matrix(6, 4)
    assert m.gamma[0][4] == 1


def test_union_distribution_matches_direct_enumeration():
    # |A u B| for two random 3-subsets of 5, counted directly
    N, n, L = 5, 3, 2
    dist = union_cardinality_distribution(N, n, L)
    subsets = list(combinations(range(N), n))
    counts = {}
    for a, b in product(subsets, repeat=2):
        u = len(set(a) | set(b))
        counts[u] = counts.get(u, 0) + 1
    total = len(subsets) ** 2
    for j in range(N + 1):
        assert dist[j] == Fraction(counts.get(j, 0), total)


def test_union_distribution_is_the_fraction_chain_over_the_matrix():
    # the distribution runs in integer counts; the matrix rows are Fractions
    for N in range(1, 10):
        for n in range(1, N + 1):
            gamma = union_model_matrix(N, n).gamma
            row = [Fraction(1)] + [Fraction(0)] * N
            for L in range(5):
                assert union_cardinality_distribution(N, n, L) == row
                row = [sum((row[i] * gamma[i][j] for i in range(N + 1)), Fraction(0))
                       for j in range(N + 1)]


@pytest.mark.parametrize("n", [0, 6])
def test_union_chain_refuses_n_outside_1_to_N(n):
    with pytest.raises(BadParams):
        union_model_matrix(5, n)
    with pytest.raises(BadParams):
        union_cardinality_distribution(5, n, 2)
    with pytest.raises(BadParams):
        p_cover_uniform(5, n, 1, 1)


def test_union_distribution_refuses_negative_L():
    # once returned the point mass at 0, as if no subset were drawn
    with pytest.raises(BadParams):
        union_cardinality_distribution(5, 3, -1)


# -- uniform coverage ---------------------------------------------------------

def test_cover_uniform_full_sets():
    assert p_cover_uniform(6, 6, 2, 3).value == 1.0


def test_cover_uniform_single_packet():
    assert p_cover_uniform(9, 4, 3, 1).value == 1.0


def test_cover_uniform_golden_small():
    est = p_cover_uniform(5, 3, 2, 2)
    assert est.value == pytest.approx(0.9)
    assert est.method == "closed_form" and est.stderr == 0.0


def test_cover_uniform_bad_params():
    with pytest.raises(BadParams):
        p_cover_uniform(5, 3, 2, 3)  # kL > N


def test_full_throughput_negative_seed_raises_bad_params():
    # once escaped numpy's "expected non-negative integer" ValueError
    with pytest.raises(BadParams, match="seed"):
        p_full_throughput_exact("uniform", 12, 4, 3, 3, seed=-1)


def test_cover_uniform_monte_carlo_agreement():
    # sample pairs of 3-subsets of 5 by index table
    rng = PlacementRng(60).generator()
    trials = 200_000
    subsets = [sum(1 << m for m in c) for c in combinations(range(5), 3)]
    draws = rng.integers(0, len(subsets), size=(trials, 2))
    table = np.array(subsets)
    unions = table[draws[:, 0]] | table[draws[:, 1]]
    cover = np.array([bin(u).count("1") >= 4 for u in unions])
    p_mc = cover.mean()
    sigma = (p_mc * (1 - p_mc) / trials) ** 0.5
    assert abs(p_cover_uniform(5, 3, 2, 2).value - p_mc) <= 3.5 * sigma


# -- cyclic pairwise ----------------------------------------------------------

def _arc_mask(s, n, N):
    m = 0
    for r in range(n):
        m |= 1 << ((s + r) % N)
    return m


def _enumerate_pair_prob(N, n, t, L):
    good = 0
    for starts in product(range(N), repeat=L):
        masks = [_arc_mask(s, n, N) for s in starts]
        ok = True
        for i in range(L):
            for j in range(i + 1, L):
                if bin(masks[i] & masks[j]).count("1") > t:
                    ok = False
                    break
            if not ok:
                break
        good += ok
    return Fraction(good, N**L)


def test_pair_cyclic_single_packet():
    assert p_pair_cyclic(9, 4, 1, 1).value == 1.0


def test_pair_cyclic_tight_specialisation():
    # N = L(n - t): probability collapses to (L-1)!/N^(L-1)
    N, n, t, L = 9, 4, 1, 3
    expected = Fraction(factorial(L - 1), N ** (L - 1))
    assert p_pair_cyclic(N, n, t, L).value == pytest.approx(float(expected))


def test_pair_cyclic_exact_vs_enumeration():
    for (N, n, t, L) in [(12, 4, 1, 3), (10, 3, 1, 3), (11, 4, 2, 3), (8, 3, 0, 2)]:
        formula = p_pair_cyclic(N, n, t, L).value
        enum = float(_enumerate_pair_prob(N, n, t, L))
        assert formula == pytest.approx(enum, rel=1e-12)


def test_pair_cyclic_clamps_to_zero():
    assert p_pair_cyclic(6, 4, 0, 3).value == 0.0
    assert float(_enumerate_pair_prob(6, 4, 0, 3)) == 0.0


def test_pair_cyclic_vacuous_threshold():
    assert p_pair_cyclic(6, 3, 3, 4).value == 1.0


# -- design distinct blocks -----------------------------------------------------

def test_pair_design_trivial():
    assert p_pair_design(1, 1).value == 1.0
    assert p_pair_design(2, 2).value == pytest.approx(0.5)
    assert p_pair_design(3, 4).value == 0.0


def test_pair_design_is_falling_factorial():
    for b, L in [(7, 3), (13, 3), (10, 4)]:
        expected = Fraction(
            factorial(b) // factorial(b - L), b**L
        )
        assert p_pair_design(b, L).value == pytest.approx(float(expected))


def test_pair_design_monotone_in_b():
    vals = [p_pair_design(b, 3).value for b in range(3, 30)]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_pair_design_empirical(fano):
    from codedswitch import draw_design

    rng = PlacementRng(61).generator()
    trials = 100_000
    distinct = 0
    for _ in range(trials):
        inst = draw_design(fano, 3, rng)
        distinct += len(set(inst.packets)) == 3
    p_hat = distinct / trials
    sigma = (p_hat * (1 - p_hat) / trials) ** 0.5
    assert abs(p_pair_design(7, 3).value - p_hat) <= 3.5 * sigma


# -- cyclic coverage -----------------------------------------------------------

def test_cover_cyclic_single_arc_suffices():
    est = p_cover_cyclic(8, 7, 3, 2)  # kL = 6 <= n: one arc already covers
    assert est.value == 1.0
    assert est.method == "exact_enumeration"


def test_cover_cyclic_direct_enumeration_small():
    # independent check via bitmask unions over all 25 start pairs
    N, n, k, L = 5, 3, 2, 2
    good = sum(
        bin(_arc_mask(a, n, N) | _arc_mask(b, n, N)).count("1") >= k * L
        for a in range(N)
        for b in range(N)
    )
    assert p_cover_cyclic(N, n, k, L).value == pytest.approx(good / N**L)


def test_cover_cyclic_enumeration_vs_monte_carlo():
    exact = p_cover_cyclic(12, 4, 3, 3)
    mc = p_cover_cyclic(12, 4, 3, 3, cap=1, samples=200_000, rng=PlacementRng(62))
    assert mc.method == "monte_carlo" and mc.stderr > 0
    assert abs(exact.value - mc.value) <= 3.5 * mc.stderr


def test_cover_cyclic_monte_carlo_draws_in_batches(monkeypatch):
    # no more than BATCH rows of starts at a time, and the same stream as one
    # (samples, L) draw
    N, n, k, L = 30, 4, 2, 6
    samples = 2 * analysis.BATCH + 3
    arc_coverage = analysis._arc_coverage
    rows = []

    def recording(starts, N, n):
        rows.append(len(starts))
        return arc_coverage(starts, N, n)

    monkeypatch.setattr(analysis, "_arc_coverage", recording)
    # cap=1: the walk of this cell (278,256 rows) fits the default cap
    est = p_cover_cyclic(N, n, k, L, cap=1, samples=samples, rng=PlacementRng(4))
    assert est.method == "monte_carlo"
    assert max(rows) <= analysis.BATCH and sum(rows) == samples
    starts = np.sort(PlacementRng(4).generator().integers(0, N, size=(samples, L)), axis=1)
    assert est.value == np.count_nonzero(arc_coverage(starts, N, n) >= k * L) / samples


# -- sampled L* -------------------------------------------------------------------

@pytest.mark.parametrize("policy", POLICIES)
def test_sample_l_stars_continues_one_stream(fano, policy):
    # odd L, so a split shows if a call does not continue the stream of the last
    N, n, k, L, m = 7, 3, 2, 3, 40

    def solve(inst):
        return solve_oracle(inst).l_star

    def sample(sizes):
        gen = PlacementRng(11).generator()
        return np.concatenate([
            l_stars(policy, N, n, k, draw_rows(policy, N, n, L, size, gen, fano), solve)
            for size in sizes
        ])

    gen = PlacementRng(11).generator()
    per_draw = [solve(draw(policy, N, n, k, L, gen, fano)) for _ in range(m)]
    whole = sample([m])
    assert whole.tolist() == per_draw
    assert sample([1, 4, m - 5]).tolist() == per_draw


@pytest.mark.parametrize("policy", POLICIES)
def test_l_stars_without_cache_solves_every_row_in_order(fano, policy):
    N, n, k, L, m = 7, 3, 2, 3, 50
    rows = draw_rows(policy, N, n, L, m, PlacementRng(6).generator(), fano)
    calls = count()
    solved = []

    def solve(inst):
        solved.append(inst.packets)
        return next(calls)

    assert l_stars(policy, N, n, k, rows, solve).tolist() == list(range(m))
    assert solved == [tuple(map(tuple, row)) for row in rows.tolist()]


def recording(lens, inner, rows_arg):
    """``inner`` that first records the length of its ``rows_arg``-th argument."""
    def wrapped(*args):
        lens.append(len(args[rows_arg]))
        return inner(*args)
    return wrapped


@pytest.mark.parametrize("policy,N,n,k,L", [
    ("cyclic", 7, 3, 2, 3), ("design", 7, 3, 2, 3), ("uniform", 6, 3, 2, 2),
])
def test_exact_walk_hands_test_at_most_batch_rows(fano, monkeypatch, policy, N, n, k, L):
    full_tp = p_full_throughput_exact(policy, N, n, k, L, design=fano)
    lens = []
    monkeypatch.setattr(analysis, "BATCH", 5)
    test = "arc_hall_rows" if policy == "cyclic" else "hall_rows"
    monkeypatch.setattr(analysis, test, recording(lens, getattr(analysis, test), 0))
    assert p_full_throughput_exact(policy, N, n, k, L, design=fano) == full_tp
    assert full_tp.method == "exact_enumeration" and max(lens) <= 5 and len(lens) > 1


def test_exact_cover_walk_hands_test_at_most_batch_rows(monkeypatch):
    cover = p_cover_cyclic(7, 3, 2, 3)
    lens = []
    monkeypatch.setattr(analysis, "BATCH", 5)
    monkeypatch.setattr(analysis, "_arc_coverage", recording(lens, analysis._arc_coverage, 0))
    assert p_cover_cyclic(7, 3, 2, 3) == cover
    assert cover.method == "exact_enumeration" and max(lens) <= 5 and len(lens) > 1


# -- exact full throughput -------------------------------------------------------

def test_full_tp_design_equals_distinct_probability(fano):
    # k > n/2: full throughput iff the drawn blocks are distinct
    est = p_full_throughput_exact("design", 7, 3, 2, 3, design=fano)
    assert est.method == "exact_enumeration"
    assert est.value == pytest.approx(p_pair_design(7, 3).value, abs=1e-15)


def test_full_tp_uncoded_cyclic_equals_coverage():
    est = p_full_throughput_exact("cyclic", 9, 3, 3, 2)
    cov = p_cover_cyclic(9, 3, 3, 2)
    assert est.value == pytest.approx(cov.value, abs=1e-15)


@pytest.mark.parametrize("N,L", [(5, 1), (5, 3), (4, 5), (9, 2)])
def test_cyclic_support_weights_count_ordered_tuples(N, L):
    # the cyclic walk pins arc 0 and takes the other L-1 arcs from multisets
    rests, weights = concatenated(multisets(N, L - 1))
    ordered = Counter(tuple(sorted(rest)) for rest in product(range(N), repeat=L - 1))
    assert {tuple(r): w for r, w in zip(rests.tolist(), weights)} == ordered
    rows, weights = concatenated(multisets(N, L))
    ordered = Counter(tuple(sorted(t)) for t in product(range(N), repeat=L))
    assert {tuple(r): w for r, w in zip(rows.tolist(), weights)} == ordered


def concatenated(slices):
    """The index rows and orderings of all ``multisets`` slices, in order."""
    idx, orders = zip(*slices)
    return np.concatenate(idx), np.concatenate(orders)


@pytest.mark.parametrize("size,r", [(5, 0), (5, 1), (4, 5), (9, 4), (12, 6)])
def test_multisets_walk_lexicographic_batch_slices(monkeypatch, size, r):
    monkeypatch.setattr(analysis, "BATCH", 7)
    slices = list(multisets(size, r))
    assert all(len(idx) == len(orders) <= 7 for idx, orders in slices)
    rows, orders = concatenated(slices)
    assert rows.dtype == np.int64 and rows.shape == (comb(size + r - 1, r), r)
    assert rows.tolist() == [list(t) for t in combinations_with_replacement(range(size), r)]
    assert sum(orders) == size**r


def test_multisets_build_their_tables_once_per_shape():
    analysis._multiset_tables.cache_clear()
    first = concatenated(multisets(9, 4))
    second = concatenated(multisets(9, 4))
    assert [a.tolist() for a in first] == [b.tolist() for b in second]
    info = analysis._multiset_tables.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    _, below, binom = analysis._multiset_tables(9, 4)
    assert not below.flags.writeable and not binom.flags.writeable


def multinomial(row):
    """r!/prod(m_i!) for a row of r indices, one binomial per distinct index."""
    orders, placed = 1, 0
    for m in Counter(row).values():
        placed += m
        orders *= comb(placed, m)
    return orders


@pytest.mark.parametrize("size,r,dtype", [(2, 62, np.int64), (2, 63, object),
                                          (3, 39, np.int64), (3, 40, object)])
def test_multisets_orderings_dtype_boundary(size, r, dtype):
    # int64 while size^r < 2^63.  At (2, 62), 62 C(61, 30) > 2^63, so a
    # weight built as w * (j + 1) // run would wrap there
    rows, orders = concatenated(multisets(size, r))
    assert orders.dtype == dtype
    assert sum(orders.tolist()) == size**r
    assert orders.tolist() == [multinomial(row) for row in rows.tolist()]


@given(size=st.integers(1, 12), r=st.integers(0, 6), batch=st.integers(1, 64))
@settings(max_examples=60, deadline=None)
def test_multisets_match_itertools_for_any_batch(size, r, batch):
    assume(size**r <= 20_000)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analysis, "BATCH", batch)
        slices = list(multisets(size, r))
    assert all(0 < len(idx) == len(orders) <= batch for idx, orders in slices)
    rows, orders = concatenated(slices)
    assert rows.tolist() == [list(t) for t in combinations_with_replacement(range(size), r)]
    ordered = Counter(tuple(sorted(t)) for t in product(range(size), repeat=r))
    assert dict(zip(map(tuple, rows.tolist()), orders.tolist())) == ordered


def test_multisets_orderings_are_exact_python_ints_past_int64():
    # r! passes 2^63 at r = 21; the largest weight here, C(70, 35), does too
    rows, orders = concatenated(multisets(2, 70))
    assert all(type(w) is int for w in orders)
    assert sum(orders) == 2**70 and max(orders) == comb(70, 35) > 2**63
    assert orders.tolist() == [comb(70, int(row.sum())) for row in rows]


def test_exact_walk_holds_one_slice_at_a_time():
    # figure 8's uniform N=9 cell walks 341,376 rows (at ~45 MB if the walk
    # were held whole)
    tracemalloc.start()
    try:
        p_full_throughput_exact("uniform", 9, 5, 3, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_cyclic_single_packet_walks_one_row(monkeypatch):
    # L = 1 leaves no free packet: the walk is the pinned arc 0 alone
    lens = []
    monkeypatch.setattr(analysis, "arc_hall_rows", recording(lens, arc_hall_rows, 0))
    est = p_full_throughput_exact("cyclic", 7, 3, 2, 1)
    assert (est.value, est.method, lens) == (1.0, "exact_enumeration", [1])


@pytest.mark.parametrize("policy,N,n,k,L", [
    ("cyclic", 7, 3, 2, 3), ("design", 7, 3, 2, 3), ("uniform", 6, 3, 2, 2),
])
def test_exact_walk_computes_masks_once_on_the_table(fano, monkeypatch, policy, N, n, k, L):
    # the walk gathers each slice's (B, L) masks by index from the table's;
    # cyclic rows gather arc starts from a table of starts, and need no masks
    full_tp = p_full_throughput_exact(policy, N, n, k, L, design=fano)
    shapes, forms = [], []
    inner = conditions.mu_masks

    def recording(packets):
        shapes.append(packets.shape)
        return inner(packets)

    def table(*args):
        forms.append(args[-1])
        return packet_table(*args)

    monkeypatch.setattr(analysis, "BATCH", 5)
    monkeypatch.setattr(conditions, "mu_masks", recording)
    monkeypatch.setattr(analysis, "mu_masks", recording, raising=False)
    monkeypatch.setattr(analysis, "packet_table", table)
    assert p_full_throughput_exact(policy, N, n, k, L, design=fano) == full_tp
    if policy == "cyclic":
        assert (forms, shapes) == (["starts"], [])
    else:
        assert (forms, shapes) == (["masks"], [packet_table(policy, N, n, fano).shape])


@pytest.mark.parametrize("cap", [analysis.ENUMERATION_CAP, 1])
def test_cyclic_full_tp_reads_no_masks_and_no_hall_table(monkeypatch, cap):
    # cyclic cells, walked or drawn, are decided on arc starts alone
    def refuse(*args, **kwargs):
        raise AssertionError("a cyclic cell reached mask or Hall-table code")

    for module, name in [(conditions, "mu_masks"), (conditions, "hall_rows"),
                         (conditions, "hall_full_throughput"), (conditions, "_short_subsets"),
                         (conditions, "hall_table_takes"), (analysis, "hall_rows"),
                         (analysis, "hall_table_takes")]:
        monkeypatch.setattr(module, name, refuse)
    est = p_full_throughput_exact("cyclic", 12, 4, 2, 4, cap=cap, samples=5000)
    assert est.method == ("exact_enumeration" if cap > 1 else "monte_carlo")
    assert 0 < est.value < 1


@pytest.mark.parametrize("policy,N,n,k,L", [("cyclic", 3, 2, 1, 17), ("uniform", 2, 1, 1, 17)])
def test_exact_walk_past_the_hall_table_length(policy, N, n, k, L):
    # 2^17 subsets overflow a Hall table slice: the uniform walk matches
    # packets, and the cyclic one reads arc starts
    est = p_full_throughput_exact(policy, N, n, k, L, exact_only=True)
    assert (est.value, est.method) == (0.0, "exact_enumeration")


def test_exact_walk_past_the_hall_table_masks():
    # 65 MUs do not fit a uint64 mask; arc starts need none
    N, n, k, L = 65, 2, 1, 3
    est = p_full_throughput_exact("cyclic", N, n, k, L, exact_only=True)
    good = sum(hall_full_throughput(instance_from_starts(N, n, (0, a, b), k=k))
               for a in range(N) for b in range(N))
    assert est.method == "exact_enumeration"
    assert est.value == good / N**2 == 0.9997633136094675


@pytest.mark.parametrize("k", [1, 2, 3])
def test_exact_cover_walk_past_64_mus(k):
    # arc starts, not masks: the coverage walk has no 64-MU gate
    N, n, L = 70, 3, 3
    est = p_cover_cyclic(N, n, k, L, exact_only=True)
    starts = np.sort(np.indices((N,) * L).reshape(L, -1).T, axis=1)
    good = np.count_nonzero(analysis._arc_coverage(starts, N, n) >= k * L)
    assert est.method == "exact_enumeration" and est.value == good / N**L


@pytest.mark.parametrize("policy,q,N,n,k,L", [
    pytest.param("cyclic", None, *cell, id="-".join(map(str, cell)))
    for cell in [(7, 3, 2, 3), (8, 3, 2, 4), (6, 4, 3, 2), (9, 2, 1, 5)]
] + [("design", 2, 7, 3, 2, 3), ("design", 3, 13, 4, 3, 3), ("uniform", None, 6, 3, 2, 3)])
def test_full_tp_cyclic_equals_ordered_enumeration(policy, q, N, n, k, L):
    # reference: solve every ordered tuple (cyclic: start tuples with the
    # first start pinned; otherwise block or n-subset tuples, by the oracle)
    design = build_projective_plane(q) if q else None
    if policy == "cyclic":
        instances = [instance_from_starts(N, n, (0,) + rest, k=k)
                     for rest in product(range(N), repeat=L - 1)]
        good = sum(solve_cyclic(inst).l_star == L for inst in instances)
    else:
        support = design.blocks if design else list(combinations(range(N), n))
        instances = [Instance(N=N, k=k, n=n, packets=packets)
                     for packets in product(support, repeat=L)]
        good = sum(solve_oracle(inst).l_star == L for inst in instances)
    est = p_full_throughput_exact(policy, N, n, k, L, design=design)
    assert (est.value, est.method) == (float(Fraction(good, len(instances))), "exact_enumeration")


def test_full_tp_single_packet():
    for policy in ("uniform", "cyclic"):
        assert p_full_throughput_exact(policy, 6, 3, 2, 1).value == 1.0


def test_full_tp_uniform_small_equals_coverage():
    # pairs of 3-subsets of 5 at k=2: the coverage bound is tight here
    est = p_full_throughput_exact("uniform", 5, 3, 2, 2)
    assert est.method == "exact_enumeration"
    assert est.value == pytest.approx(0.9)


def test_full_tp_exact_only_raises():
    with pytest.raises(TooLarge):
        p_full_throughput_exact("cyclic", 12, 4, 3, 9, cap=10, exact_only=True)


@pytest.mark.parametrize("policy,cell,rows", [
    ("cyclic", (12, 4, 3, 4), 364),  # arc 0 pinned, 3 free of 12: C(14, 3)
    ("design", (7, 3, 2, 3), 84),  # 3 of the 7 Fano blocks: C(9, 3)
    ("uniform", (6, 3, 2, 2), 210),  # 2 of the 20 3-subsets: C(21, 2)
])
def test_full_tp_cap_counts_the_rows_walked(fano, policy, cell, rows):
    def method(cap):
        return p_full_throughput_exact(policy, *cell, design=fano if policy == "design" else None,
                                       cap=cap, samples=100).method

    assert (method(rows), method(rows - 1)) == ("exact_enumeration", "monte_carlo")


def test_cover_cyclic_cap_counts_the_rows_walked():
    # arc 0 pinned, 5 free of 12: C(16, 5) rows
    assert p_cover_cyclic(12, 4, 2, 6, cap=4368).method == "exact_enumeration"
    assert p_cover_cyclic(12, 4, 2, 6, cap=4367, samples=100).method == "monte_carlo"
    with pytest.raises(TooLarge):
        p_cover_cyclic(12, 4, 2, 6, cap=4367, exact_only=True)


def test_full_tp_uniform_n9_is_exact_within_4_se_of_its_monte_carlo_row():
    # figure 8's uniform N=9 cell walks 341,376 rows, within the default cap;
    # one row less gives the Monte-Carlo row figure 8 printed at 200 trials
    exact = p_full_throughput_exact("uniform", 9, 5, 3, 3)
    mc = p_full_throughput_exact("uniform", 9, 5, 3, 3, cap=341_375, samples=200, seed=5)
    assert (exact.method, mc.method, mc.value) == ("exact_enumeration", "monte_carlo", 0.285)
    assert f"{exact.value:.10g}" == "0.3665910809"
    assert abs(exact.value - mc.value) <= 4 * mc.stderr


def test_full_tp_monte_carlo_agrees_with_exact():
    exact = p_full_throughput_exact("cyclic", 10, 4, 3, 3)
    mc = p_full_throughput_exact("cyclic", 10, 4, 3, 3, cap=1, samples=30_000, seed=3)
    assert mc.method == "monte_carlo"
    assert abs(exact.value - mc.value) <= 3.5 * mc.stderr + 1e-9


def test_full_tp_uniform_bounded_by_coverage():
    for (N, n, k, L) in [(6, 3, 2, 2), (7, 3, 2, 2), (6, 4, 2, 3)]:
        full = p_full_throughput_exact("uniform", N, n, k, L).value
        cover = p_cover_uniform(N, n, k, L).value
        assert full <= cover + 1e-12


def test_full_tp_design_single_packet(fano):
    assert p_full_throughput_exact("design", 7, 3, 2, 1, design=fano).value == 1.0


def test_full_tp_design_outside_guarantee(fano):
    # L=5 at k=2 violates the pairwise bound, where the design solver gives
    # no guarantee; Hall's condition still decides it: kL=10 > 7, so 0
    est = p_full_throughput_exact("design", 7, 3, 2, 5, design=fano, cap=20_000)
    assert est.method == "exact_enumeration"
    assert est.value == 0.0


def test_full_tp_design_beyond_the_oracle_cap_is_the_hall_share():
    # L*n = 30 > 24: the design solver has no guarantee here, and the oracle
    # refuses the cell; the probability is the share of draws that meet Hall
    N, n, k, L, samples = 17, 5, 2, 6, 4000
    packing = build_lexicographic_packing(N, n, 2)
    est = p_full_throughput_exact("design", N, n, k, L, design=packing, samples=samples, seed=3)
    rows = draw_rows("design", N, n, L, samples, PlacementRng(3, 0).generator(), packing)
    hall = sum(hall_full_throughput(Instance(N, k, n, row)) for row in rows.tolist())
    assert (est.value, est.method) == (hall / samples, "monte_carlo")
    assert est.value == 0.989


def test_full_tp_design_requires_matching_geometry(fano):
    with pytest.raises(BadParams):
        p_full_throughput_exact("design", 9, 3, 2, 2, design=fano)


def test_sandwich_property_cyclic_grid():
    points = 0
    for N in (8, 10, 12):
        for n in (2, 3, 4):
            for k in range(1, n + 1):
                L = 3
                if k * L > N:
                    continue
                t_int = floor(t_max(n, k, L))
                lo = p_pair_cyclic(N, n, t_int, L).value
                hi = p_cover_cyclic(N, n, k, L).value
                mid = p_full_throughput_exact("cyclic", N, n, k, L).value
                assert lo - 1e-12 <= mid <= hi + 1e-12
                points += 1
    assert points >= 20


def test_design_family_trend_with_one_redundant_chunk():
    # n = k+1 over a plane with b = k^2+k+1 blocks, three requested packets
    vals = [p_pair_design(k * k + k + 1, 3).value for k in range(2, 8)]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    assert vals[0] == pytest.approx(float(Fraction(7 * 6 * 5, 7**3)))
