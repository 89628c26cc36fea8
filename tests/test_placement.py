from __future__ import annotations

from itertools import combinations
from math import comb

import numpy as np
import pytest

from codedswitch import (
    BlockDesign,
    PlacementRng,
    build_lexicographic_packing,
    build_projective_plane,
    draw_cyclic,
    draw_design,
    draw_uniform,
    instance_from_starts,
    uniform_rows,
    validate_instance,
    verify_packing,
)
from codedswitch import placement
from codedswitch.conditions import mu_masks
from codedswitch.errors import (
    BadParams,
    CodedSwitchError,
    CoverageDuplicate,
    CoverageGap,
    EmptyDesign,
    IntersectionTooLarge,
    MalformedFile,
    NotPrime,
)
from codedswitch.model import POLICIES, arc_start

from conftest import CLASSIC_TRIPLE_SYSTEM, arc_design


# -- rng streams ---------------------------------------------------------------

def test_rng_reproducible():
    a = PlacementRng(123, 4).generator().integers(0, 1000, size=16)
    b = PlacementRng(123, 4).generator().integers(0, 1000, size=16)
    assert (a == b).all()


def test_rng_streams_differ():
    a = PlacementRng(123, 0).generator().integers(0, 1000, size=16)
    b = PlacementRng(123, 1).generator().integers(0, 1000, size=16)
    assert not (a == b).all()


@pytest.mark.parametrize("make", [lambda: PlacementRng(-1), lambda: PlacementRng(0, -2),
                                  lambda: placement.draw_cyclic(12, 4, 3, -5)])
def test_negative_seed_raises_bad_params(make):
    with pytest.raises(BadParams, match="seed"):
        make()


# -- uniform draws ---------------------------------------------------------------

def test_uniform_support_is_all_subsets():
    rng = PlacementRng(1).generator()
    seen = set()
    for _ in range(600):
        inst = draw_uniform(5, 3, 1, rng)
        seen.add(inst.packets[0])
    assert seen == set(combinations(range(5), 3))
    assert len(seen) == comb(5, 3) == 10


def test_uniform_full_set():
    rng = PlacementRng(2).generator()
    inst = draw_uniform(4, 4, 3, rng)
    assert all(p == (0, 1, 2, 3) for p in inst.packets)


def test_uniform_frequencies_3sigma():
    rng = PlacementRng(3).generator()
    trials = 100_000
    counts = {}
    for _ in range(trials):
        inst = draw_uniform(5, 3, 1, rng)
        counts[inst.packets[0]] = counts.get(inst.packets[0], 0) + 1
    p = 1 / 10
    sigma = (trials * p * (1 - p)) ** 0.5
    for c in counts.values():
        assert abs(c - trials * p) <= 3.5 * sigma


def test_uniform_bad_params():
    with pytest.raises(BadParams):
        draw_uniform(3, 4, 1, PlacementRng(0).generator())


def _choice_rows(gen, N, n, rows):
    return [sorted(gen.choice(N, n, replace=False).tolist()) for _ in range(rows)]


def _words(N, n, rows):
    """32-bit words a batch of rows takes: one per draw in [0, j], j > 0."""
    return rows * (2 * n - 1 - (N == n))


def _masks_replay(N, n, rows, gen, packets, ref):
    """The masks of ``rows`` uniform rows drawn from ``gen`` are those of
    ``packets``, and leave ``gen`` where ``ref`` is; past 64 MUs the mask
    form is refused."""
    if N > 64:
        with pytest.raises(BadParams):
            uniform_rows(N, n, rows, gen, "masks")
        return
    masks = uniform_rows(N, n, rows, gen, "masks")
    assert masks.dtype == np.uint64 and masks.shape == (rows,)
    assert masks.tolist() == mu_masks(np.asarray(packets, np.int64).reshape(rows, n)).tolist()
    assert gen.bit_generator.state == ref.bit_generator.state


# (10001, 5) still runs Floyd's algorithm in choice; (12000, 241) shuffles the tail;
# (10**6, 6) draws its two-pass row count bound by bound; (2**32 - 1, 3) is
# the largest N batched; (2**33, 4) draws in [0, j] with j >= 2^32; (64, 5)
# sets bit 63 of a mask
@pytest.mark.parametrize("N,n", [(12, 3), (12, 4), (12, 5), (12, 6), (7, 3), (17, 5), (5, 5),
                                 (9, 1), (64, 5), (64, 33), (10001, 5), (12000, 241),
                                 (10**6, 6), (2**32 - 1, 3), (2**33, 4)])
def test_uniform_rows_replay_choice(N, n):
    # fewer than _BATCH_MIN_ROWS rows, n > 32 or N >= 2^32 are drawn by
    # choice itself; _PASS_ROWS + 1 rows take two passes; each row count is
    # drawn as packets and as masks
    least, most = placement._BATCH_MIN_ROWS, placement._PASS_ROWS
    for seed in range(42):
        rows = (1, least - 1, least, 65, 200, most + 1)[seed % 6]
        ref, gen, masked = (PlacementRng(seed, N).generator() for _ in range(3))
        expect = _choice_rows(ref, N, n, rows)
        got = uniform_rows(N, n, rows, gen)
        assert got.dtype == np.int64 and got.shape == (rows, n)
        assert got.tolist() == expect
        assert gen.bit_generator.state == ref.bit_generator.state
        _masks_replay(N, n, rows, masked, expect, ref)


@pytest.mark.parametrize("N,n", [(12, 5), (5, 5), (17, 5)])
def test_uniform_rows_replay_choice_across_passes(N, n):
    # three equal passes
    rows = 2 * placement._PASS_ROWS + n + 1
    ref, gen, masked = (PlacementRng(8, N).generator() for _ in range(3))
    expect = _choice_rows(ref, N, n, rows)
    assert uniform_rows(N, n, rows, gen).tolist() == expect
    assert gen.bit_generator.state == ref.bit_generator.state
    _masks_replay(N, n, rows, masked, expect, ref)


def test_uniform_rows_carry_the_buffered_half():
    # after an odd number of 32-bit words in all, the unused half of a
    # 64-bit output stays buffered for the next draw
    ref, gen = PlacementRng(5).generator(), PlacementRng(5).generator()
    used = 0
    for N, n, rows in ((12, 3, 65), (12, 4, 67), (9, 1, 64), (5, 5, 64), (17, 5, 69), (9, 1, 66)):
        assert uniform_rows(N, n, rows, gen).tolist() == _choice_rows(ref, N, n, rows)
        assert gen.bit_generator.state == ref.bit_generator.state
        used += _words(N, n, rows)
        assert gen.bit_generator.state["has_uint32"] == used % 2
    assert used % 2 == 1
    assert (gen.integers(0, 1000, size=7, dtype=np.uint32).tolist()
            == ref.integers(0, 1000, size=7, dtype=np.uint32).tolist())
    assert gen.random(3).tolist() == ref.random(3).tolist()


_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _next_raw_output_zero(seed):
    """A PCG64 generator whose next 64-bit output is 0.  PCG64 steps its
    state s to s * mult + inc and outputs the XSL-RR of the new state, which
    is its low half when the high half is 0."""
    gen = PlacementRng(seed).generator()
    state = gen.bit_generator.state
    inc = state["state"]["inc"]
    state["state"]["state"] = -inc * pow(_PCG64_MULT, -1, 2**128) % 2**128
    state["has_uint32"] = 0
    gen.bit_generator.state = state
    return gen


def _counted_fallbacks(monkeypatch):
    """The row counts of the passes drawn bound by bound
    (``placement._bounded_columns``)."""
    calls = []
    bounded_columns = placement._bounded_columns
    monkeypatch.setattr(placement, "_bounded_columns",
                        lambda highs, n, rows, gen:
                        calls.append(rows) or bounded_columns(highs, n, rows, gen))
    return calls


def test_uniform_rows_replay_a_rejected_draw(monkeypatch):
    assert _next_raw_output_zero(0).bit_generator.random_raw() == 0
    # the word 0 makes the first draw, in [0, 8], reject: 0 < 2^32 mod 9
    fallbacks = _counted_fallbacks(monkeypatch)
    ref, gen = _next_raw_output_zero(0), _next_raw_output_zero(0)
    expect = _choice_rows(ref, 12, 4, 100)
    assert uniform_rows(12, 4, 100, gen).tolist() == expect
    assert gen.bit_generator.state == ref.bit_generator.state
    assert fallbacks == [100]


def test_uniform_rows_replay_a_rejected_shuffle_word_in_a_later_pass(monkeypatch):
    # two passes of _PASS_ROWS rows, 7 words a row at (12, 4): Floyd's draws
    # in [0, 8..11], then the shuffle's in [0, 3], [0, 2], [0, 1].  Rewound by
    # m outputs, the zero output gives words 2m and 2m + 1; 2m is the draw in
    # [0, 2] of the second pass's second row, and both words reject
    rows = 2 * placement._PASS_ROWS
    m = (7 * placement._PASS_ROWS + 7 + 5) // 2
    for form in ("packets", "masks"):
        fallbacks = _counted_fallbacks(monkeypatch)
        ref, gen = _next_raw_output_zero(0), _next_raw_output_zero(0)
        for g in (ref, gen):
            g.bit_generator.advance(2**128 - m)
        expect = _choice_rows(ref, 12, 4, rows)
        got = uniform_rows(12, 4, rows, gen, form)
        if form == "masks":
            expect = mu_masks(np.array(expect)).tolist()
        assert got.tolist() == expect
        assert gen.bit_generator.state == ref.bit_generator.state
        assert fallbacks == [placement._PASS_ROWS]


class _WordCountingGenerator(np.random.Generator):
    """A generator that counts its ``integers`` calls for 32-bit words."""

    word_draws = 0

    def integers(self, *args, **kwargs):
        self.word_draws += kwargs.get("dtype") is np.uint32
        return super().integers(*args, **kwargs)


def test_uniform_rows_draw_bound_by_bound_where_rejections_are_expected(monkeypatch):
    # at n = 6 a pass of _PASS_ROWS rows expects 5.6 rejected words at N = 10^6
    # (1.4 at 1024 rows), so it draws bound by bound without drawing words
    # first; at N = 12 it expects 2.7e-5 and draws its words
    for N, word_draws, bounded in ((10**6, 0, [placement._PASS_ROWS]), (12, 1, [])):
        fallbacks = _counted_fallbacks(monkeypatch)
        ref = PlacementRng(7).generator()
        gen = _WordCountingGenerator(PlacementRng(7).generator().bit_generator)
        expect = _choice_rows(ref, N, 6, placement._PASS_ROWS)
        assert uniform_rows(N, 6, placement._PASS_ROWS, gen).tolist() == expect
        assert gen.bit_generator.state == ref.bit_generator.state
        assert (gen.word_draws, fallbacks) == (word_draws, bounded)


def test_uniform_rows_other_bit_generators_use_choice():
    # the batch replays choice on any bit generator, not only on PCG64; 101
    # rows take an odd number of 32-bit words, and leave half a word buffered
    for bit_generator in (np.random.MT19937, np.random.Philox, np.random.SFC64,
                          np.random.PCG64DXSM):
        for rows in (100, 101):
            ref, gen, masked = (np.random.Generator(bit_generator(3)) for _ in range(3))
            expect = _choice_rows(ref, 12, 4, rows)
            assert uniform_rows(12, 4, rows, gen).tolist() == expect
            assert (uniform_rows(12, 4, rows, masked, "masks").tolist()
                    == mu_masks(np.array(expect)).tolist())
            after = [(g.integers(0, 1000, size=3, dtype=np.uint32).tolist(),
                      g.integers(0, 2**40, size=9).tolist(), g.random(3).tolist())
                     for g in (gen, masked, ref)]
            assert after[0] == after[1] == after[2]


def test_uniform_rows_batch_only_where_measured_faster(monkeypatch):
    passes = {"_floyd_pass": [], "_floyd_mask_pass": []}
    for name, lens in passes.items():
        monkeypatch.setattr(placement, name,
                            lambda N, n, floyd, out, lens=lens, fill=getattr(placement, name):
                            lens.append(len(out)) or fill(N, n, floyd, out))
    gen = PlacementRng(0).generator()
    least, most = placement._BATCH_MIN_ROWS, placement._PASS_ROWS
    for N, n, rows in ((12, 5, least - 1), (40, 33, 1000), (10001, 5, 1), (2**32, 3, least),
                       (12, 5, least), (40, 32, least), (12, 5, 2 * most + 1)):
        uniform_rows(N, n, rows, gen)
        if N <= 64:
            uniform_rows(N, n, rows, gen, "masks")
    # three equal passes of 2 * _PASS_ROWS + 1 rows
    thirds = [len(part) for part in np.array_split(np.empty(2 * most + 1), 3)]
    assert passes["_floyd_pass"] == passes["_floyd_mask_pass"] == [least, least, *thirds]
    passes["_floyd_pass"].clear()
    uniform_rows(2**32 - 1, 3, least, gen)
    assert passes["_floyd_pass"] == [least]


def test_uniform_rows_bad_params():
    gen = PlacementRng(0).generator()
    for N, n, rows in ((3, 4, 1), (3, 0, 1), (3, 2, -1)):
        with pytest.raises(BadParams):
            uniform_rows(N, n, rows, gen)
    assert uniform_rows(5, 2, 0, gen).shape == (0, 2)
    assert uniform_rows(5, 2, 0, gen, "masks").shape == (0,)


# -- cyclic draws ---------------------------------------------------------------

def test_cyclic_support_is_arcs():
    rng = PlacementRng(4).generator()
    seen = set()
    for _ in range(300):
        seen.add(draw_cyclic(5, 3, 1, rng).packets[0])
    assert seen == {(0, 1, 2), (1, 2, 3), (2, 3, 4), (0, 3, 4), (0, 1, 4)}


def test_cyclic_wraparound_arc():
    # start N-1 wraps to {N-1, 0, .., n-2}
    from codedswitch import instance_from_starts

    inst = instance_from_starts(10, 4, [9])
    assert inst.packets[0] == (0, 1, 2, 9)


def test_cyclic_instances_validate():
    rng = PlacementRng(5).generator()
    for _ in range(200):
        N = int(rng.integers(3, 12))
        n = int(rng.integers(1, N))
        L = int(rng.integers(1, 6))
        inst = draw_cyclic(N, n, L, rng)
        validate_instance(inst)
        assert inst.placement == "cyclic"


def test_cyclic_bad_params():
    with pytest.raises(BadParams):
        draw_cyclic(5, 5, 1, PlacementRng(0).generator())


@pytest.mark.parametrize("policy", POLICIES)
def test_draw_rejects_k_outside_1_to_n_before_drawing(fano, policy):
    # k = 0 would place packets that need no chunk, k = n + 1 ones no read serves
    n = 3
    for k in (0, n + 1):
        gen = PlacementRng(4).generator()
        state = gen.bit_generator.state
        with pytest.raises(BadParams):
            placement.draw(policy, 7, n, k, 4, gen, fano)
        assert gen.bit_generator.state == state


@pytest.mark.parametrize("N,n,L", [(12, 3, 1), (12, 4, 4), (12, 5, 6), (13, 4, 5), (7, 3, 3)])
def test_batched_cyclic_draws_match_per_instance_draws(N, n, L):
    # the ensemble draws a batch of starts in one call; its reports depend on
    # this being the stream that per-instance draws consume
    batched = PlacementRng(21, L).generator().integers(0, N, size=(4096, L))
    gen = PlacementRng(21, L).generator()
    for row in batched:
        assert draw_cyclic(N, n, L, gen).packets == instance_from_starts(N, n, row).packets


def test_packet_table_lists_every_packet(fano):
    # row s is the arc that starts at s, its MUs sorted
    assert placement.packet_table("cyclic", 5, 3).tolist() == [
        [0, 1, 2], [1, 2, 3], [2, 3, 4], [0, 3, 4], [0, 1, 4]]
    assert placement.packet_table("design", 7, 3, fano).tolist() == list(map(list, fano.blocks))
    assert placement.packet_table("uniform", 6, 3).tolist() == list(
        map(list, combinations(range(6), 3)))
    with pytest.raises(BadParams):
        placement.packet_table("design", 7, 3)
    with pytest.raises(BadParams):
        placement.packet_table("custom", 7, 3)
    # the other forms: each packet's mask, and each arc's start
    assert placement.packet_table("cyclic", 5, 3, form="starts").tolist() == list(range(5))
    for policy, N in (("cyclic", 5), ("design", 7), ("uniform", 6)):
        assert (placement.packet_table(policy, N, 3, fano, "masks").tolist()
                == mu_masks(placement.packet_table(policy, N, 3, fano)).tolist())
        with pytest.raises(BadParams):
            placement.packet_table(policy, N, 3, fano, "bits")
    for policy in ("design", "uniform"):
        with pytest.raises(BadParams):
            placement.packet_table(policy, 7, 3, fano, "starts")


@pytest.mark.parametrize("policy", POLICIES)
def test_draw_rows_are_successive_draws(fano, policy):
    # 22 draws of L = 3 packets are 66 uniform rows, past uniform_rows' 64-row
    # gate; N = 64 sets bit 63 of a mask, n = 33 draws uniform rows by choice,
    # and masks do not take N = 65
    k, L = 2, 3
    for N, n in ((7, 3), (64, 3), (64, 33), (65, 3)):
        design = fano if N == 7 else arc_design(N, n, 2)
        for bit_generator in (np.random.PCG64, np.random.MT19937, np.random.Philox):
            for size in (1, 7, 22):
                _check_draw_rows(policy, N, n, k, L, size, bit_generator, design)


def _check_draw_rows(policy, N, n, k, L, size, bit_generator, design):
    """Each form of a draw_rows call is the same stream as ``size`` draw calls."""
    gens = {form: np.random.Generator(bit_generator(size)) for form in placement.FORMS}
    gen = np.random.Generator(bit_generator(size))
    rows = placement.draw_rows(policy, N, n, L, size, gens["packets"], design)
    assert rows.shape == (size, L, n)
    if N > 64:
        with pytest.raises(CodedSwitchError):
            placement.draw_rows(policy, N, n, L, size, gens.pop("masks"), design, "masks")
    else:
        masks = placement.draw_rows(policy, N, n, L, size, gens["masks"], design, "masks")
        assert masks.dtype == np.uint64 and masks.tolist() == mu_masks(rows).tolist()
    if policy == "cyclic":
        starts = placement.draw_rows(policy, N, n, L, size, gens["starts"], design, "starts")
        assert (np.diff(starts, axis=1) >= 0).all()
        assert starts.tolist() == [sorted(arc_start(p, n, N) for p in packets)
                                   for packets in rows.tolist()]
    else:
        with pytest.raises(BadParams):
            placement.draw_rows(policy, N, n, L, size, gens.pop("starts"), design, "starts")
    assert [tuple(map(tuple, packets)) for packets in rows.tolist()] == [
        placement.draw(policy, N, n, k, L, gen, design).packets for _ in range(size)]
    # every form leaves its generator where the draw calls leave theirs
    assert len({(g.random(), g.integers(0, 2**40)) for g in (gen, *gens.values())}) == 1


# -- projective planes ------------------------------------------------------------

def test_plane_q2_is_seven_triples(fano):
    assert fano.b == 7 == fano.N
    assert all(len(b) == 3 for b in fano.blocks)
    verify_packing(fano)  # includes exact pair coverage
    assert fano.b == comb(7, 2) // comb(3, 2)


def test_plane_q3(q3_plane):
    assert q3_plane.b == 13 == q3_plane.N
    assert all(len(b) == 4 for b in q3_plane.blocks)
    # every pair of points in exactly one block
    cover = {}
    for blk in q3_plane.blocks:
        for pair in combinations(blk, 2):
            cover[pair] = cover.get(pair, 0) + 1
    assert all(v == 1 for v in cover.values())
    assert len(cover) == comb(13, 2)


def test_plane_rejects_composite_and_prime_power():
    # 0 and 1 are below the first prime; 9, 15 and 25 are odd composites
    for q in (6, 4, 0, 1, 9, 15, 25):
        with pytest.raises(NotPrime):
            build_projective_plane(q)


# -- lexicographic packings ----------------------------------------------------------

def test_lex_packing_vacuous_keeps_everything():
    d = build_lexicographic_packing(5, 3, 2)
    assert d.b == comb(5, 3)


def test_lex_packing_reproduces_classic_triple_system():
    d = build_lexicographic_packing(7, 3, 1)
    assert d.blocks == CLASSIC_TRIPLE_SYSTEM
    verify_packing(d)


def test_lex_packing_17_5_within_known_maximum(lex_packing_17_5):
    verify_packing(lex_packing_17_5)
    assert lex_packing_17_5.b <= 68


def test_lex_packing_deterministic():
    a = build_lexicographic_packing(9, 4, 2)
    b = build_lexicographic_packing(9, 4, 2)
    assert a.blocks == b.blocks


def test_lex_packing_bad_params():
    with pytest.raises(BadParams):
        build_lexicographic_packing(5, 3, 3)


# -- design draws ---------------------------------------------------------------

def test_design_draw_single_block():
    d = BlockDesign(N=4, n=2, t=2, blocks=((0, 1),), source="file")
    inst = draw_design(d, 5, PlacementRng(6).generator())
    assert all(p == (0, 1) for p in inst.packets)


def test_design_draw_frequencies(fano):
    rng = PlacementRng(7).generator()
    trials = 70_000
    counts = {b: 0 for b in fano.blocks}
    for _ in range(trials):
        inst = draw_design(fano, 1, rng)
        counts[inst.packets[0]] += 1
    p = 1 / fano.b
    sigma = (trials * p * (1 - p)) ** 0.5
    for c in counts.values():
        assert abs(c - trials * p) <= 3.5 * sigma


def test_design_draw_without_replacement(fano):
    rng = PlacementRng(8).generator()
    for _ in range(50):
        inst = draw_design(fano, 7, rng, replace=False)
        assert len(set(inst.packets)) == 7


def test_design_distinct_draws_satisfy_pairwise_bound(fano):
    from codedswitch import pairwise_holds, with_k

    rng = PlacementRng(9).generator()
    for _ in range(100):
        inst = with_k(draw_design(fano, 3, rng, replace=False), 2)
        assert pairwise_holds(inst)


def test_design_draw_empty():
    d = BlockDesign(N=3, n=2, t=2, blocks=(), source="file")
    with pytest.raises(EmptyDesign):
        draw_design(d, 1, PlacementRng(0).generator())


# -- packing verification ----------------------------------------------------------

def test_verify_duplicate_block_detected(fano):
    dup = BlockDesign(
        N=7, n=3, t=2, blocks=fano.blocks + (fano.blocks[0],), source="projective_plane"
    )
    with pytest.raises(CoverageDuplicate):
        verify_packing(dup)


def test_verify_coverage_gap(fano):
    short = BlockDesign(
        N=7, n=3, t=2, blocks=fano.blocks[:-1], source="projective_plane"
    )
    with pytest.raises(CoverageGap):
        verify_packing(short)


def test_verify_intersection_too_large():
    d = BlockDesign(N=4, n=3, t=2, blocks=((0, 1, 2), (1, 2, 3)), source="file")
    with pytest.raises(IntersectionTooLarge):
        verify_packing(d)


# -- design files ---------------------------------------------------------------

def test_design_file_roundtrip(tmp_path, fano):
    path = tmp_path / "fano.blocks"
    fano.save(path)
    again = BlockDesign.load(path)
    assert again.blocks == fano.blocks
    assert (again.N, again.n, again.t) == (fano.N, fano.n, fano.t)
    header = path.read_text().splitlines()[0]
    assert header == "7 3 2"


@pytest.mark.parametrize("text", ["7 3\n0 1 2\n", "", "7 3 2\n0 1 x\n"])
def test_design_file_malformed_is_typed(tmp_path, text):
    path = tmp_path / "bad.blocks"
    path.write_text(text)
    with pytest.raises(MalformedFile):
        BlockDesign.load(path)
