from __future__ import annotations

import os
from itertools import combinations, product

import pytest

from codedswitch import (
    ChunkSet,
    CodecConfig,
    Instance,
    PlacementRng,
    cyclic_codebook,
    cyclic_decode_burst,
    cyclic_encode,
    draw_cyclic,
    draw_design,
    end_to_end_read,
    mds_decode,
    mds_encode,
    solve_cyclic,
    solve_design,
    solve_oracle,
    store_packets,
    with_k,
)
from codedswitch import codec
from codedswitch.codec import (
    BINARY_CYCLIC,
    MDS,
    default_generator,
    factor_xn_minus_1,
    generator_catalog,
    is_cyclic_burst_mask,
    read_chunk_file,
    write_chunk_file,
    _poly_mod,
    _poly_mul,
)
from codedswitch.errors import BadConfig, DecodeFailure, MalformedFile, NotABurst, TooFewChunks


def _payload(k, B, seed=0):
    rng = PlacementRng(seed).generator()
    return [bytes(rng.integers(0, 256, size=B, dtype=int).tolist()) for _ in range(k)]


# -- GF(2) polynomial plumbing -------------------------------------------------

def test_factorisation_recombines():
    for n in (3, 4, 7, 12, 15):
        prod = 1
        for q in factor_xn_minus_1(n):
            prod = _poly_mul(prod, q)
        assert prod == (1 << n) ^ 1


def test_default_generator_for_4_2():
    assert default_generator(4, 2) == 0b101  # x^2 + 1


def test_generator_catalog_divides():
    for n in range(2, 16):
        for r, g in generator_catalog(n).items():
            assert g.bit_length() - 1 == r
            assert _poly_mod((1 << n) ^ 1, g) == 0


def test_missing_code_rejected():
    # x^5 - 1 = (x+1)(x^4+x^3+x^2+x+1): no degree-2 divisor
    with pytest.raises(BadConfig):
        CodecConfig(k=3, n=5, B=4, family=BINARY_CYCLIC)


# -- burst masks ----------------------------------------------------------------

def test_burst_mask_detection():
    assert is_cyclic_burst_mask([], 6, 2)
    assert is_cyclic_burst_mask([2, 3], 6, 2)
    assert is_cyclic_burst_mask([5, 0], 6, 2)  # wraps
    assert not is_cyclic_burst_mask([0, 2], 6, 2)
    assert not is_cyclic_burst_mask([0, 1, 2], 6, 2)  # too long


def _burst_reference(absent, n, max_len):
    # one cyclic run <=> exactly one absent position follows a present one
    absent = set(absent)
    if not absent:
        return True
    if len(absent) > max_len:
        return False
    return sum(1 for i in absent if (i - 1) % n not in absent) == 1


def test_burst_mask_equals_run_count_on_every_absent_set():
    for n in range(1, 13):
        for mask in range(1 << n):
            absent = [i for i in range(n) if mask >> i & 1]
            for max_len in range(n + 1):
                expected = _burst_reference(absent, n, max_len)
                assert is_cyclic_burst_mask(absent, n, max_len) == expected
        assert not is_cyclic_burst_mask(range(n), n, n)  # nothing left to read


# -- MDS ----------------------------------------------------------------------

def test_mds_uncoded_identity():
    cfg = CodecConfig(k=3, n=3, B=5, family=MDS)
    data = _payload(3, 5)
    assert mds_encode(data, cfg).chunks == tuple(data)


def test_mds_repetition_k1():
    cfg = CodecConfig(k=1, n=4, B=6, family=MDS)
    data = _payload(1, 6)
    enc = mds_encode(data, cfg)
    assert all(c == data[0] for c in enc.chunks)


def test_mds_exhaustive_roundtrips_all_small_codes():
    for n in range(1, 9):
        for k in range(1, n + 1):
            cfg = CodecConfig(k=k, n=n, B=4, family=MDS)
            data = _payload(k, 4, seed=n * 10 + k)
            enc = mds_encode(data, cfg)
            for keep in combinations(range(n), k):
                assert mds_decode(enc.mask(keep), cfg) == data


def test_mds_too_few_chunks():
    cfg = CodecConfig(k=3, n=5, B=4, family=MDS)
    enc = mds_encode(_payload(3, 4), cfg)
    with pytest.raises(TooFewChunks):
        mds_decode(enc.mask([0, 1]), cfg)


def test_mds_rejects_large_n():
    with pytest.raises(BadConfig):
        CodecConfig(k=2, n=300, B=4, family=MDS)


# -- binary cyclic codes ---------------------------------------------------------

def test_codebook_4_2_golden():
    cfg = CodecConfig(k=2, n=4, B=1, family=BINARY_CYCLIC)
    assert cyclic_codebook(cfg) == {"0000", "0101", "1010", "1111"}


def test_codebook_4_2_all_bursts_recover():
    cfg = CodecConfig(k=2, n=4, B=1, family=BINARY_CYCLIC)
    for msg in range(4):
        data = [bytes([(msg >> d) & 1]) for d in range(2)]
        enc = cyclic_encode(data, cfg)
        for start in range(4):
            erased = {(start + i) % 4 for i in range(2)}
            keep = [i for i in range(4) if i not in erased]
            assert cyclic_decode_burst(enc.mask(keep), cfg) == data


def test_cyclic_zero_data_decodes_zero():
    cfg = CodecConfig(k=3, n=7, B=4, family=BINARY_CYCLIC)
    data = [bytes(4)] * 3
    enc = cyclic_encode(data, cfg)
    assert all(c == bytes(4) for c in enc.chunks)
    assert cyclic_decode_burst(enc.mask([0, 1, 2]), cfg) == data


def test_cyclic_not_a_burst():
    cfg = CodecConfig(k=2, n=4, B=2, family=BINARY_CYCLIC)
    enc = cyclic_encode(_payload(2, 2), cfg)
    with pytest.raises(NotABurst):
        cyclic_decode_burst(enc.mask([0, 2]), cfg)  # positions 1 and 3 erased


def test_cyclic_exhaustive_bursts_small_catalog():
    # every catalogued code with n <= 9, all bursts, all messages
    for n in range(2, 10):
        for r in generator_catalog(n):
            k = n - r
            if k < 1 or k > 10:
                continue
            cfg = CodecConfig(k=k, n=n, B=1, family=BINARY_CYCLIC)
            for msg in range(1 << k):
                data = [bytes([(msg >> d) & 1]) for d in range(k)]
                enc = cyclic_encode(data, cfg)
                # bursts of every length up to n-k, including none
                for length in range(r + 1):
                    for start in range(n):
                        erased = {(start + i) % n for i in range(length)}
                        keep = [i for i in range(n) if i not in erased]
                        assert cyclic_decode_burst(enc.mask(keep), cfg) == data


def test_cyclic_codewords_match_codebook():
    # every catalogued code with n <= 12: byte lane m of the chunks carries
    # message m, so the lanes of one encode are all 2^k codewords
    for n in range(2, 13):
        for r, g in generator_catalog(n).items():
            k = n - r
            if k < 1:
                continue
            cfg = CodecConfig(k=k, n=n, B=1 << k, family=BINARY_CYCLIC, generator=g)
            data = [bytes((m >> d) & 1 for m in range(1 << k)) for d in range(k)]
            enc = cyclic_encode(data, cfg)
            lanes = {"".join(str(c[m]) for c in enc.chunks) for m in range(1 << k)}
            assert lanes == cyclic_codebook(cfg)


def test_binary_family_never_multiplies(monkeypatch):
    # the binary cyclic matrix and its burst inverses have 0/1 entries only,
    # so the GF(256) multiplication tables are never consulted
    def no_tables(c):
        raise AssertionError(f"GF(256) multiply by {c}")

    monkeypatch.setattr(codec, "_mul_row", no_tables)
    for k, n in ((2, 4), (3, 4), (4, 7), (5, 15)):
        cfg = CodecConfig(k=k, n=n, B=64, family=BINARY_CYCLIC)
        data = _payload(k, 64, seed=n)
        enc = cyclic_encode(data, cfg)
        for start in range(n):
            keep = [(start + n - k + i) % n for i in range(k)]
            assert cyclic_decode_burst(enc.mask(keep), cfg) == data
    # the MDS family does multiply
    cfg = CodecConfig(k=2, n=4, B=8, family=MDS)
    with pytest.raises(AssertionError):
        mds_encode(_payload(2, 8), cfg)


_COEFFS = (0, 1, 2, 0x8E, 255)


def _combine_by_int(coeffs, chunks, tables):
    # the combination on Python integers: each term a whole-buffer XOR
    acc = 0
    for c, chunk in zip(coeffs, chunks):
        if c:
            acc ^= int.from_bytes(chunk if c == 1 else chunk.translate(tables[c]), "little")
    return acc.to_bytes(len(chunks[0]), "little")


@pytest.mark.parametrize("B", [1, 5, 63, 64, 65537])
def test_combine_matches_integer_xor(B):
    tables = {c: bytes(codec.gf_mul(c, b) for b in range(256)) for c in _COEFFS}
    chunks = _payload(5, B, seed=B)
    for size in range(1, 6):
        for coeffs in product(_COEFFS, repeat=size):
            out = codec._combine(coeffs, chunks[:size])
            assert type(out) is bytes
            assert out == _combine_by_int(coeffs, chunks[:size], tables), coeffs


def test_combine_passes_unit_columns_through_and_zero_columns_as_zeros():
    chunks = _payload(4, 33, seed=2)
    for j in range(4):
        column = tuple(int(i == j) for i in range(4))
        assert codec._combine(column, chunks) is chunks[j]
    assert codec._combine((0, 0, 0, 0), chunks) == bytes(33)
    assert type(codec._combine((0, 0, 0, 0), chunks)) is bytes


@pytest.mark.parametrize("family", [MDS, BINARY_CYCLIC])
@pytest.mark.parametrize("length", [3, 5])
def test_decode_rejects_chunk_of_wrong_length(family, length):
    cfg = CodecConfig(k=2, n=4, B=4, family=family)
    encode, decode = ((mds_encode, mds_decode) if family == MDS
                      else (cyclic_encode, cyclic_decode_burst))
    chunks = list(encode(_payload(2, 4), cfg).chunks)
    chunks[3] = chunks[3][:length] + bytes(max(0, length - 4))
    with pytest.raises(BadConfig):
        decode(ChunkSet(chunks=tuple(chunks)).mask([0, 3]), cfg)


def test_cyclic_length_is_capped():
    with pytest.raises(BadConfig):
        CodecConfig(k=1, n=codec.CYCLIC_MAX_N + 1, B=1, family=BINARY_CYCLIC)
    for n in range(16, codec.CYCLIC_MAX_N + 1):
        prod = 1
        for q in factor_xn_minus_1(n):
            prod = _poly_mul(prod, q)
        assert prod == (1 << n) ^ 1


def test_cyclic_bytewise_payloads():
    cfg = CodecConfig(k=4, n=7, B=32, family=BINARY_CYCLIC)
    data = _payload(4, 32, seed=9)
    enc = cyclic_encode(data, cfg)
    assert cyclic_decode_burst(enc.mask([2, 3, 4, 5]), cfg) == data


# -- end to end -----------------------------------------------------------------

def test_end_to_end_uncoded_reads_all_chunks():
    inst = Instance(N=6, k=2, n=2, packets=((0, 1), (2, 3)))
    cfg = CodecConfig(k=2, n=2, B=3, family=MDS)
    payloads = [_payload(2, 3, seed=s) for s in (1, 2)]
    stored = store_packets(inst, payloads, cfg)
    sol = solve_oracle(inst)
    out = end_to_end_read(inst, sol, stored, cfg)
    assert out == payloads


def test_end_to_end_cyclic_policy_burst_decoding():
    rng = PlacementRng(71).generator()
    cfg = CodecConfig(k=2, n=4, B=8, family=BINARY_CYCLIC)
    for _ in range(50):
        inst = with_k(draw_cyclic(12, 4, 5, rng), 2)
        sol = solve_cyclic(inst)
        payloads = [_payload(2, 8, seed=i) for i in range(inst.L)]
        stored = store_packets(inst, payloads, cfg)
        out = end_to_end_read(inst, sol, stored, cfg)
        for i, r in enumerate(out):
            if sol.assignments[i] is None:
                assert r is None
            else:
                assert r == payloads[i]


def test_end_to_end_design_policy_mds(fano):
    rng = PlacementRng(72).generator()
    cfg = CodecConfig(k=2, n=3, B=8, family=MDS)
    for _ in range(50):
        inst = with_k(draw_design(fano, 3, rng, replace=False), 2)
        sol = solve_design(inst, fano)
        payloads = [_payload(2, 8, seed=i + 100) for i in range(inst.L)]
        stored = store_packets(inst, payloads, cfg)
        out = end_to_end_read(inst, sol, stored, cfg)
        assert all(r == p for r, p in zip(out, payloads))


def test_end_to_end_flags_contract_violation():
    inst = Instance(N=8, k=2, n=4, packets=((0, 2, 4, 6),))
    cfg = CodecConfig(k=2, n=4, B=2, family=BINARY_CYCLIC)
    stored = store_packets(inst, [_payload(2, 2)], cfg)
    from codedswitch import Solution

    bad = Solution(assignments=((0, 4),))  # chunk positions 0 and 2: not a burst
    with pytest.raises(DecodeFailure):
        end_to_end_read(inst, bad, stored, cfg)


# -- chunk files -----------------------------------------------------------------

def test_chunk_file_roundtrip(tmp_path):
    cfg = CodecConfig(k=3, n=5, B=16, family=MDS)
    payload = os.urandom(16)
    p = tmp_path / "chunk_002.bin"
    write_chunk_file(p, cfg, 2, payload)
    k, n, B, index, data = read_chunk_file(p)
    assert (k, n, B, index) == (3, 5, 16, 2)
    assert data == payload
    assert p.read_bytes()[:4] == b"CSWC"
    assert len(p.read_bytes()) == 16 + 16  # fixed header plus payload


def test_chunk_file_shorter_than_header_is_typed(tmp_path):
    p = tmp_path / "chunk_000.bin"
    p.write_bytes(b"CSWC\x02\x00")
    with pytest.raises(MalformedFile):
        read_chunk_file(p)


def test_chunk_file_bad_magic_is_typed(tmp_path):
    p = tmp_path / "chunk_000.bin"
    write_chunk_file(p, CodecConfig(k=2, n=3, B=4), 0, bytes(4))
    p.write_bytes(b"XXXX" + p.read_bytes()[4:])
    with pytest.raises(MalformedFile):
        read_chunk_file(p)


def test_chunk_file_bad_payload_length_is_typed(tmp_path):
    p = tmp_path / "chunk_000.bin"
    write_chunk_file(p, CodecConfig(k=2, n=3, B=4), 0, bytes(4))
    p.write_bytes(p.read_bytes() + b"\0")
    with pytest.raises(MalformedFile):
        read_chunk_file(p)


def test_chunk_file_family_is_checked_when_asked(tmp_path):
    p = tmp_path / "chunk_000.bin"
    write_chunk_file(p, CodecConfig(k=2, n=3, B=4, family=BINARY_CYCLIC), 0, bytes(4))
    assert read_chunk_file(p) == read_chunk_file(p, BINARY_CYCLIC) == (2, 3, 4, 0, bytes(4))
    with pytest.raises(MalformedFile, match="encoded as binary_cyclic, not mds"):
        read_chunk_file(p, MDS)
    p.write_bytes(p.read_bytes()[:14] + b"\x00\x00" + p.read_bytes()[16:])  # not recorded
    assert read_chunk_file(p, MDS) == (2, 3, 4, 0, bytes(4))
    p.write_bytes(p.read_bytes()[:14] + b"\x03\x00" + p.read_bytes()[16:])
    with pytest.raises(MalformedFile, match="unknown family code 3"):
        read_chunk_file(p)
