"""Acceptance gate: every release criterion at its stated tolerance.

Each test prints one PASS/FAIL line (bypassing capture) so a plain pytest
run shows the per-criterion verdict.  Tolerances and trial counts are
pinned here; nothing is deferred to later calibration.
"""

from __future__ import annotations

import time
from fractions import Fraction
from functools import wraps
from itertools import combinations, product
from math import floor

import numpy as np
import pytest

from codedswitch import (
    BlockDesign,
    ExperimentSpec,
    Instance,
    PlacementRng,
    build_projective_plane,
    cyclic_anchor_order,
    draw_design,
    draw_uniform,
    draw_cyclic,
    instance_from_starts,
    p_cover_cyclic,
    p_cover_uniform,
    p_full_throughput_exact,
    p_pair_cyclic,
    p_pair_design,
    reduce_lsp,
    run_ensemble,
    solve_cyclic,
    solve_design,
    solve_oracle,
    t_max,
    validate_solution,
    verify_packing,
    with_k,
)
from codedswitch.codec import (
    BINARY_CYCLIC,
    MDS,
    CodecConfig,
    cyclic_codebook,
    cyclic_decode_burst,
    cyclic_encode,
    end_to_end_read,
    generator_catalog,
    mds_decode,
    mds_encode,
    store_packets,
)
from codedswitch.solvers import cyclic_rows

from conftest import CONTENTION_PACKETS


RESULTS: list = []  # one line per criterion, echoed in the terminal summary


def criterion(name):
    """Record one pass/fail line per criterion (shown after the test run)."""

    def deco(fn):
        @wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                detail = fn(*args, **kwargs)
            except BaseException:
                RESULTS.append(f"ACCEPTANCE {name}: FAIL")
                raise
            dt = time.perf_counter() - t0
            extra = f" ({detail})" if detail else ""
            RESULTS.append(f"ACCEPTANCE {name}: PASS{extra} [{dt:.1f}s]")

        return wrapper

    return deco


def _canonical_starts(starts, N):
    ss = sorted(starts)
    best = None
    for r in set(ss):
        cand = tuple(sorted((s - r) % N for s in ss))
        if best is None or cand < best:
            best = cand
    return best


# ---------------------------------------------------------------------------
# 1. oracle equivalence of the cyclic solver
# ---------------------------------------------------------------------------

@criterion("oracle-equivalence-cyclic")
def test_cyclic_solver_equals_oracle_everywhere():
    t0 = time.perf_counter()
    oracle_memo: dict = {}

    def oracle_l_star(N, n, k, starts):
        key = (N, n, k, _canonical_starts(starts, N))
        hit = oracle_memo.get(key)
        if hit is None:
            inst = instance_from_starts(N, n, key[3], k=k)
            hit = solve_oracle(inst, cap=64).l_star
            oracle_memo[key] = hit
        return hit

    def check(N, n, k, rows):
        """Mismatches of solve_cyclic, and of one cyclic_rows call, on rows of starts."""
        want = [oracle_l_star(N, n, k, starts) for starts in rows]
        got = [solve_cyclic(instance_from_starts(N, n, starts, k=k)).l_star for starts in rows]
        starts = np.sort(np.array(rows, dtype=np.int64).reshape(len(rows), -1), axis=1)
        by_rows = cyclic_rows(starts, N, n, k)
        return (sum(g != w for g, w in zip(got, want))
                + sum(g != w for g, w in zip(by_rows.tolist(), want)))

    mismatches = 0
    checked = 0
    for N in range(2, 9):
        for n in range(1, N):
            for L in range(1, 5):
                rows = list(product(range(N), repeat=L))
                for k in range(1, n + 1):
                    mismatches += check(N, n, k, rows)
                    checked += len(rows)
    exhaustive = checked
    assert mismatches == 0

    rng = PlacementRng(2026).generator()
    cells = [(n, L) for n in (3, 4, 5, 6) for L in range(1, 7)]
    per_cell = -(-10_000 // len(cells))
    random_checked = 0
    for n, L in cells:
        rows = []
        for _ in range(per_cell):
            if random_checked >= 10_000:
                break
            rows.append(tuple(int(s) for s in rng.integers(0, 12, size=L)))
            random_checked += 1
        if rows:
            mismatches += check(12, n, 3, rows)
    assert mismatches == 0
    elapsed = time.perf_counter() - t0
    assert elapsed < 300, f"runtime {elapsed:.0f}s exceeds the 5 minute budget"
    return (f"{exhaustive} exhaustive + {random_checked} random instances, 0 mismatches "
            "for solve_cyclic and cyclic_rows")


# ---------------------------------------------------------------------------
# 2. worked-example golden values
# ---------------------------------------------------------------------------

@criterion("worked-example-goldens")
def test_worked_example_goldens():
    # three-packet contention instance: l* = 1, 2, 3 for k = 3, 2, 1
    for k, expect in ((3, 1), (2, 2), (1, 3)):
        inst = Instance(N=5, k=k, n=3, packets=CONTENTION_PACKETS)
        assert solve_oracle(inst).l_star == expect

    # anchored packet ordering on the tiled 12-point instance
    inst = instance_from_starts(12, 4, (11, 1, 3, 5, 7, 9), k=2)
    order = cyclic_anchor_order(inst, 0)
    assert [inst.packets[i] for i in order] == [
        (0, 1, 2, 11), (1, 2, 3, 4), (3, 4, 5, 6),
        (5, 6, 7, 8), (7, 8, 9, 10), (0, 9, 10, 11),
    ]

    # design assignment golden, exact sets
    blocks = ((1, 2, 3), (1, 4, 5), (3, 5, 6))
    design = BlockDesign(N=7, n=3, t=2, blocks=blocks, source="file")
    dinst = Instance(N=7, k=2, n=3, packets=blocks, placement="design")
    dsol = solve_design(dinst, design)
    assert dsol.l_star == 3
    assert dsol.assignments == ((2, 3), (1, 4), (5, 6))

    # seven-point plane: exactly 7 blocks, verified Steiner coverage
    fano = build_projective_plane(2)
    assert fano.b == 7
    verify_packing(fano)

    # [4,2] cyclic codebook and all four burst positions
    cfg = CodecConfig(k=2, n=4, B=1, family=BINARY_CYCLIC)
    assert cyclic_codebook(cfg) == {"0000", "0101", "1010", "1111"}
    for msg in range(4):
        data = [bytes([(msg >> d) & 1]) for d in range(2)]
        enc = cyclic_encode(data, cfg)
        for start in range(4):
            keep = [i for i in range(4) if i not in {(start + j) % 4 for j in range(2)}]
            assert cyclic_decode_burst(enc.mask(keep), cfg) == data
    return "contention l*, anchor order, design sets, 7 blocks, [4,2] codebook"


# ---------------------------------------------------------------------------
# 3. design solver serves every packet when the pairwise bound holds
# ---------------------------------------------------------------------------

@criterion("design-serves-all")
def test_design_solver_serves_all_packets():
    fano = build_projective_plane(2)
    q3 = build_projective_plane(3)
    # (design, k, max L): floor(t_max(n, k, L)) >= t-1 = 1 throughout
    configs = []
    for design, k_to_lmax in ((fano, {1: 5, 2: 3}), (q3, {1: 7, 2: 5, 3: 3})):
        for k, lmax in k_to_lmax.items():
            for L in range(2, lmax + 1):
                assert floor(t_max(design.n, k, L)) >= design.t - 1
                configs.append((design, k, L))
    rng = PlacementRng(31337).generator()
    total = 0
    failures = 0
    while total < 10_000:
        design, k, L = configs[total % len(configs)]
        inst = with_k(draw_design(design, L, rng, replace=False), k)
        sol = solve_design(inst, design)
        validate_solution(inst, sol)
        if sol.l_star != L:
            failures += 1
        total += 1
    assert failures == 0
    return f"{total} instances over plane orders 2 and 3, 0 underserved"


# ---------------------------------------------------------------------------
# 4. average-throughput gain of coding under cyclic placement
# ---------------------------------------------------------------------------

@criterion("rho-ratio-cyclic-L4")
def test_average_throughput_ratios():
    t0 = time.perf_counter()
    rho = {}
    for n in (3, 4, 6):
        spec = ExperimentSpec(
            policy="cyclic", N=12, k=3, n=n, L_range=(4,),
            trials=100_000, seed=424242, solver="cyclic_opt",
        )
        rho[n] = run_ensemble(spec).rows[0].rho_bar
    r4 = rho[4] / rho[3]
    r6 = rho[6] / rho[3]
    assert abs(r4 - 1.18) <= 0.06, f"rho(4)/rho(3) = {r4:.4f}"
    assert abs(r6 - 1.52) <= 0.06, f"rho(6)/rho(3) = {r6:.4f}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 120, f"runtime {elapsed:.0f}s exceeds the 2 minute budget"
    return f"ratios {r4:.3f} and {r6:.3f} vs 1.18/1.52 +-0.06"


# ---------------------------------------------------------------------------
# 5. w.h.p. served-packet counts at load 3
# ---------------------------------------------------------------------------

@criterion("whp-lstar-L3")
def test_whp_l_star_integers():
    whp = {}
    for n in (3, 6):
        spec = ExperimentSpec(
            policy="uniform", N=12, k=3, n=n, L_range=(3,),
            trials=100_000, seed=777, solver="oracle",
        )
        whp[n] = run_ensemble(spec).rows[0].whp_l_star
    assert whp[3] == 1
    assert whp[6] == 3
    return f"whp L* = {whp[3]} (n=3) and {whp[6]} (n=6)"


# ---------------------------------------------------------------------------
# 6. probability cross-checks
# ---------------------------------------------------------------------------

def _arc_mask(s, n, N):
    m = 0
    for r in range(n):
        m |= 1 << ((s + r) % N)
    return m


@criterion("probability-cross-checks")
def test_probability_cross_checks():
    # exact pairwise-arc probability vs full enumeration of 12^3 start tuples
    N, n, L = 12, 4, 3
    t_int = floor(t_max(n, 3, L))
    assert t_int == 1
    good = 0
    masks = [_arc_mask(s, n, N) for s in range(N)]
    for starts in product(range(N), repeat=L):
        ok = all(
            bin(masks[starts[i]] & masks[starts[j]]).count("1") <= t_int
            for i in range(L)
            for j in range(i + 1, L)
        )
        good += ok
    enum = good / N**L
    formula = p_pair_cyclic(N, n, t_int, L).value
    assert formula == pytest.approx(enum, rel=1e-10)

    # distinct-block probability vs 1e6 empirical draws
    fano = build_projective_plane(2)
    rng = PlacementRng(606).generator()
    trials = 1_000_000
    idx = rng.integers(0, fano.b, size=(trials, 3))
    distinct = np.mean(
        (idx[:, 0] != idx[:, 1]) & (idx[:, 0] != idx[:, 2]) & (idx[:, 1] != idx[:, 2])
    )
    p = p_pair_design(7, 3).value
    sigma = (p * (1 - p) / trials) ** 0.5
    assert abs(p - distinct) <= 3.5 * sigma

    # uniform coverage vs 1e6 Monte-Carlo unions of two 3-subsets of 5
    gen = PlacementRng(607).generator()
    picks = gen.random((trials, 2, 5)).argsort(axis=-1)[:, :, :3]
    m = (1 << picks).sum(axis=-1)  # 3 distinct bits per draw
    union = m[:, 0] | m[:, 1]
    popcount = np.array([bin(v).count("1") for v in range(32)])
    covered = popcount[union] >= 4
    p_mc = covered.mean()
    p_exact = p_cover_uniform(5, 3, 2, 2).value
    sigma = (p_exact * (1 - p_exact) / trials) ** 0.5
    assert abs(p_exact - p_mc) <= 3.5 * sigma

    # sandwich: pairwise bound <= exact full throughput <= coverage bound
    points = 0
    for N2 in (8, 10, 12):
        for n2 in (2, 3, 4):
            for k2 in range(1, n2 + 1):
                if k2 * 3 > N2:
                    continue
                ti = floor(t_max(n2, k2, 3))
                lo = p_pair_cyclic(N2, n2, ti, 3).value
                mid = p_full_throughput_exact("cyclic", N2, n2, k2, 3).value
                hi = p_cover_cyclic(N2, n2, k2, 3).value
                assert lo - 1e-12 <= mid <= hi + 1e-12
                points += 1
    assert points >= 20
    return f"pair-cyc exact to 1e-10, two 3-sigma MC checks, sandwich at {points} points"


# ---------------------------------------------------------------------------
# 7. design-family trend with one redundant chunk
# ---------------------------------------------------------------------------

@criterion("design-family-trend")
def test_design_family_trend():
    vals = [p_pair_design(k * k + k + 1, 3).value for k in range(2, 8)]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    assert vals[0] == float(Fraction(7 * 6 * 5, 7**3))
    return "strictly increasing over k=2..7, k=2 value exact"


# ---------------------------------------------------------------------------
# 8. set-packing reduction equivalence
# ---------------------------------------------------------------------------

def _canonical_triple_families(max_L, max_elements):
    """Every family of <= max_L 3-sets over <= max_elements elements, one
    representative per relabelling class (elements numbered in order of
    first appearance; feasibility is invariant under relabelling)."""
    seen = set()
    out = []

    def rec(family, used):
        if family:
            key = tuple(sorted(family))
            if key not in seen:
                seen.add(key)
                out.append(list(family))
        if len(family) == max_L:
            return
        for fresh in range(4):
            if used + fresh > max_elements:
                continue
            for old in combinations(range(used), 3 - fresh):
                cand = tuple(sorted(old + tuple(range(used, used + fresh))))
                rec(family + [cand], used + fresh)

    rec([], 0)
    return out


def _max_disjoint(sets) -> int:
    best = 0
    fs = [frozenset(s) for s in sets]
    for mask in range(1 << len(fs)):
        chosen = [fs[i] for i in range(len(fs)) if (mask >> i) & 1]
        if all(a.isdisjoint(b) for i, a in enumerate(chosen) for b in chosen[i + 1:]):
            best = max(best, len(chosen))
    return best


@criterion("set-packing-reduction")
def test_reduction_equivalence_exhaustive():
    families = _canonical_triple_families(max_L=4, max_elements=9)
    mismatch = 0
    for family in families:
        packing = _max_disjoint(family)
        out = reduce_lsp(family, M=1)
        reads = solve_oracle(out.instance, cap=64).l_star
        for M in range(1, len(family) + 1):
            if (packing >= M) != (reads >= 2 * M):
                mismatch += 1
    assert mismatch == 0

    # relabelling invariance spot check: permuted elements give the same verdicts
    rng = np.random.default_rng(11)
    for _ in range(50):
        fam = families[int(rng.integers(0, len(families)))]
        elems = sorted({e for s in fam for e in s})
        perm = dict(zip(elems, rng.permutation(elems).tolist()))
        relabeled = [tuple(sorted(perm[e] for e in s)) for s in fam]
        a = solve_oracle(reduce_lsp(fam, 1).instance, cap=64).l_star
        b = solve_oracle(reduce_lsp(relabeled, 1).instance, cap=64).l_star
        assert a == b
    return f"{len(families)} canonical families, all loads M, 0 mismatches"


# ---------------------------------------------------------------------------
# 9. codec gate
# ---------------------------------------------------------------------------

def _lane_packed_payload(k: int) -> list:
    """Chunk d carries bit d of message m in bit-lane m, for all 2^k messages.

    Encode/decode act lane-wise (pure XOR combinations), so one round trip
    through the decoder checks every message exhaustively.
    """
    msgs = 1 << k
    B = max(1, (msgs + 7) // 8)
    data = []
    for d in range(k):
        buf = bytearray(B)
        for m in range(msgs):
            if (m >> d) & 1:
                buf[m >> 3] |= 1 << (m & 7)
        data.append(bytes(buf))
    return data


@criterion("codec-gate")
def test_codec_gate():
    # exhaustive MDS round trips for every (k, n) with n <= 8
    rng = PlacementRng(4242).generator()
    for n in range(1, 9):
        for k in range(1, n + 1):
            cfg = CodecConfig(k=k, n=n, B=6, family=MDS)
            data = [bytes(rng.integers(0, 256, size=6, dtype=int).tolist()) for _ in range(k)]
            enc = mds_encode(data, cfg)
            for keep in combinations(range(n), k):
                assert mds_decode(enc.mask(keep), cfg) == data

    # exhaustive burst recovery for every catalogued cyclic code with n <= 15,
    # every burst position, every message (messages packed into bit lanes)
    codes = 0
    for n in range(2, 16):
        for r, g in generator_catalog(n).items():
            k = n - r
            if k < 1:
                continue
            data = _lane_packed_payload(k)
            cfg = CodecConfig(k=k, n=n, B=len(data[0]), family=BINARY_CYCLIC, generator=g)
            enc = cyclic_encode(data, cfg)
            for start in range(n):
                erased = {(start + i) % n for i in range(r)}
                keep = [i for i in range(n) if i not in erased]
                assert cyclic_decode_burst(enc.mask(keep), cfg) == data
            codes += 1

    # end-to-end reads: zero decode failures over 1000 solved instances per policy
    from codedswitch.errors import DecodeFailure

    fano = build_projective_plane(2)
    gen = PlacementRng(515).generator()
    decode_failures = 0

    def payloads_for(inst, cfg):
        return [
            [bytes(gen.integers(0, 256, size=cfg.B, dtype=int).tolist()) for _ in range(cfg.k)]
            for _ in range(inst.L)
        ]

    def run_one(inst, sol, cfg):
        nonlocal decode_failures
        pay = payloads_for(inst, cfg)
        try:
            out = end_to_end_read(inst, sol, store_packets(inst, pay, cfg), cfg)
        except DecodeFailure:
            decode_failures += 1
            return
        assert all(r is None or r == p for r, p in zip(out, pay))

    for _ in range(1000):  # uniform policy, MDS, exhaustive-search solver
        inst = with_k(draw_uniform(9, 4, 4, gen), 2)
        run_one(inst, solve_oracle(inst), CodecConfig(k=2, n=4, B=4, family=MDS))

    for _ in range(1000):  # cyclic policy, binary cyclic code, burst decoding
        inst = with_k(draw_cyclic(12, 4, 5, gen), 2)
        run_one(inst, solve_cyclic(inst), CodecConfig(k=2, n=4, B=4, family=BINARY_CYCLIC))

    for _ in range(1000):  # design policy, MDS
        inst = with_k(draw_design(fano, 3, gen), 2)
        run_one(inst, solve_design(inst, fano), CodecConfig(k=2, n=3, B=4, family=MDS))

    assert decode_failures == 0
    return f"{codes} cyclic codes exhaustive, MDS n<=8 exhaustive, 3000 end-to-end reads"
