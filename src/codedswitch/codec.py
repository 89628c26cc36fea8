"""Chunk-level erasure codecs wired to solver outputs.

A packet of k data chunks (B bytes each) is encoded into n coded chunks
stored on n distinct MUs.  Two families:

* ``mds``: systematic Reed-Solomon style code over GF(256).  The chunks
  are evaluations of a degree < k polynomial, so any k of the n chunks
  reconstruct the data.
* ``binary_cyclic``: systematic binary cyclic code from a generator
  polynomial g(x) of degree n-k dividing x^n - 1 over GF(2).  Much cheaper
  than MDS (XOR only) and still recovers any cyclic burst of up to n-k
  erasures, which is exactly the erasure shape the cyclic read algorithm
  produces.

Chunks are whole-byte buffers; the binary code applies the same GF(2)
combination to every bit of a chunk, so chunk XOR implements it.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Optional, Sequence

from .errors import BadConfig, DecodeFailure, MalformedFile, NotABurst, TooFewChunks
from .model import Instance, Solution

# -- GF(256) arithmetic, x^8 + x^4 + x^3 + x^2 + 1 --------------------------

_GF_POLY = 0x11D
GF_EXP = [0] * 512
GF_LOG = [0] * 256
_x = 1
for _i in range(255):
    GF_EXP[_i] = _x
    GF_LOG[_x] = _i
    _x <<= 1
    if _x & 0x100:
        _x ^= _GF_POLY
for _i in range(255, 512):
    GF_EXP[_i] = GF_EXP[_i - 255]


def gf_mul(a: int, b: int) -> int:
    if a == 0 or b == 0:
        return 0
    return GF_EXP[GF_LOG[a] + GF_LOG[b]]


def gf_inv(a: int) -> int:
    if a == 0:
        raise ZeroDivisionError("GF(256) inverse of 0")
    return GF_EXP[255 - GF_LOG[a]]


@lru_cache(maxsize=512)
def _mul_row(c: int) -> bytes:
    return bytes(gf_mul(c, b) for b in range(256))


def _scale_xor(acc: bytearray, coeff: int, chunk: bytes) -> None:
    if coeff == 0:
        return
    row = _mul_row(coeff)
    for i, b in enumerate(chunk):
        acc[i] ^= row[b]


# -- configuration and chunk container ---------------------------------------

MDS = "mds"
BINARY_CYCLIC = "binary_cyclic"


@dataclass(frozen=True)
class CodecConfig:
    """Code parameters: k data chunks in, n coded chunks out, B bytes each."""

    k: int
    n: int
    B: int = 64
    family: str = MDS
    generator: Optional[int] = None  # GF(2) polynomial as int, cyclic family only

    def __post_init__(self):
        if not (1 <= self.k <= self.n) or self.B < 1:
            raise BadConfig(f"need 1 <= k <= n and B >= 1, got k={self.k}, n={self.n}, B={self.B}")
        if self.family == MDS:
            if self.n > 255:
                raise BadConfig(f"GF(256) codes support n <= 255, got n={self.n}")
        elif self.family == BINARY_CYCLIC:
            g = self.generator
            if g is None:
                g = default_generator(self.n, self.n - self.k)
                object.__setattr__(self, "generator", g)
            if _poly_deg(g) != self.n - self.k:
                raise BadConfig(f"generator degree {_poly_deg(g)} != n-k = {self.n - self.k}")
            if _poly_mod((1 << self.n) ^ 1, g) != 0:
                raise BadConfig(f"generator {g:#b} does not divide x^{self.n} - 1")
        else:
            raise BadConfig(f"unknown family {self.family!r}")

    @property
    def W(self) -> int:
        return self.k * self.B


@dataclass(frozen=True)
class ChunkSet:
    """n chunk slots of B bytes each; absent chunks are None."""

    chunks: tuple

    def __post_init__(self):
        object.__setattr__(
            self,
            "chunks",
            tuple(None if c is None else bytes(c) for c in self.chunks),
        )

    @property
    def n(self) -> int:
        return len(self.chunks)

    @property
    def present(self) -> tuple:
        return tuple(c is not None for c in self.chunks)

    def present_count(self) -> int:
        return sum(1 for c in self.chunks if c is not None)

    def mask(self, keep: Sequence[int]) -> "ChunkSet":
        keep_set = set(keep)
        return ChunkSet(
            chunks=tuple(
                c if i in keep_set else None for i, c in enumerate(self.chunks)
            )
        )


def _check_payload(data: Sequence[bytes], cfg: CodecConfig) -> list:
    if len(data) != cfg.k:
        raise BadConfig(f"expected {cfg.k} data chunks, got {len(data)}")
    out = [bytes(d) for d in data]
    for d in out:
        if len(d) != cfg.B:
            raise BadConfig(f"chunk length {len(d)} != B = {cfg.B}")
    return out


# -- GF(2) polynomial helpers -------------------------------------------------

def _poly_deg(p: int) -> int:
    return p.bit_length() - 1


def _poly_mod(a: int, m: int) -> int:
    dm = _poly_deg(m)
    while _poly_deg(a) >= dm and a:
        a ^= m << (_poly_deg(a) - dm)
    return a


def _poly_mul(a: int, b: int) -> int:
    out = 0
    while b:
        if b & 1:
            out ^= a
        a <<= 1
        b >>= 1
    return out


def _irreducibles(max_deg: int) -> list:
    """All irreducible GF(2) polynomials of degree 1..max_deg, ascending."""
    out = []
    for p in range(2, 1 << (max_deg + 1)):
        d = _poly_deg(p)
        if d < 1:
            continue
        if all(_poly_mod(p, q) != 0 for q in out if _poly_deg(q) <= d // 2):
            out.append(p)
    return out


@lru_cache(maxsize=None)
def factor_xn_minus_1(n: int) -> tuple:
    """Irreducible factorisation of x^n - 1 over GF(2), with multiplicity."""
    target = (1 << n) ^ 1
    factors = []
    for q in _irreducibles(n):
        while _poly_mod(target, q) == 0:
            factors.append(q)
            # divide target by q
            quotient = 0
            rem = target
            dq = _poly_deg(q)
            while _poly_deg(rem) >= dq and rem:
                shift = _poly_deg(rem) - dq
                quotient ^= 1 << shift
                rem ^= q << shift
            target = quotient
        if target == 1:
            break
    return tuple(factors)


@lru_cache(maxsize=None)
def generator_catalog(n: int) -> dict:
    """For each achievable redundancy r, the smallest degree-r divisor of x^n-1."""
    factors = factor_xn_minus_1(n)
    divisors = {1}
    for q in factors:
        divisors |= {_poly_mul(d, q) for d in divisors}
    by_degree: dict = {}
    for d in sorted(divisors):
        r = _poly_deg(d)
        if r not in by_degree:
            by_degree[r] = d
    return by_degree


def default_generator(n: int, r: int) -> int:
    cat = generator_catalog(n)
    if r not in cat:
        raise BadConfig(f"no binary cyclic [{n}, {n - r}] code exists")
    return cat[r]


def is_cyclic_burst_mask(absent: Sequence[int], n: int, max_len: int) -> bool:
    """True iff the absent positions form one cyclic run of length <= max_len."""
    absent = sorted(set(absent))
    if not absent:
        return True
    if len(absent) > max_len:
        return False
    present = [i for i in range(n) if i not in set(absent)]
    if not present:
        return False
    # a single cyclic run of absences <=> a single cyclic run of presences
    pres = set(present)
    starts = sum(1 for i in present if (i - 1) % n not in pres)
    return starts == 1


# -- MDS encode/decode --------------------------------------------------------

def _lagrange_coeff(xs: Sequence[int], j: int, x: int) -> int:
    num, den = 1, 1
    for m, xm in enumerate(xs):
        if m == j:
            continue
        num = gf_mul(num, x ^ xm)
        den = gf_mul(den, xs[j] ^ xm)
    return gf_mul(num, gf_inv(den))


def mds_encode(data: Sequence[bytes], cfg: CodecConfig) -> ChunkSet:
    """Systematic encode: chunks 0..k-1 are the data, the rest evaluations
    of the interpolating polynomial at further points."""
    if cfg.family != MDS:
        raise BadConfig(f"mds_encode needs an mds config, got {cfg.family}")
    data = _check_payload(data, cfg)
    xs = list(range(cfg.k))
    chunks = list(data)
    for i in range(cfg.k, cfg.n):
        acc = bytearray(cfg.B)
        for j in range(cfg.k):
            _scale_xor(acc, _lagrange_coeff(xs, j, i), data[j])
        chunks.append(bytes(acc))
    return ChunkSet(chunks=tuple(chunks))


def mds_decode(chunks: ChunkSet, cfg: CodecConfig) -> list:
    """Reconstruct the k data chunks from any k present chunks."""
    if cfg.family != MDS:
        raise BadConfig(f"mds_decode needs an mds config, got {cfg.family}")
    if chunks.n != cfg.n:
        raise BadConfig(f"chunk set has {chunks.n} slots, expected {cfg.n}")
    present = [i for i, c in enumerate(chunks.chunks) if c is not None]
    if len(present) < cfg.k:
        raise TooFewChunks(f"{len(present)} chunks present, need {cfg.k}")
    if all(i < cfg.k for i in present[: cfg.k]):
        return [chunks.chunks[i] for i in range(cfg.k)]
    xs = present[: cfg.k]
    out = []
    for target in range(cfg.k):
        acc = bytearray(cfg.B)
        for j, src in enumerate(xs):
            _scale_xor(acc, _lagrange_coeff(xs, j, target), chunks.chunks[src])
        out.append(bytes(acc))
    return out


# -- binary cyclic encode/decode ----------------------------------------------

def _parity_columns(cfg: CodecConfig) -> list:
    """Column d (data position) of the systematic parity map: x^(r+d) mod g."""
    r = cfg.n - cfg.k
    return [_poly_mod(1 << (r + d), cfg.generator) for d in range(cfg.k)]


def cyclic_encode(data: Sequence[bytes], cfg: CodecConfig) -> ChunkSet:
    """Systematic encode: data occupies positions n-k..n-1, parity 0..n-k-1.

    Parity chunk p is the XOR of the data chunks whose generator-remainder
    column has bit p set, applied to whole byte buffers at once.
    """
    if cfg.family != BINARY_CYCLIC:
        raise BadConfig(f"cyclic_encode needs a binary_cyclic config, got {cfg.family}")
    data = _check_payload(data, cfg)
    r = cfg.n - cfg.k
    cols = _parity_columns(cfg)
    parity = [bytearray(cfg.B) for _ in range(r)]
    for d, col in enumerate(cols):
        chunk = data[d]
        for p in range(r):
            if (col >> p) & 1:
                buf = parity[p]
                for i, b in enumerate(chunk):
                    buf[i] ^= b
    return ChunkSet(chunks=tuple(bytes(b) for b in parity) + tuple(data))


def cyclic_codebook(cfg: CodecConfig) -> set:
    """All 2^k codewords as n-character bit strings, position 0 first."""
    if cfg.family != BINARY_CYCLIC:
        raise BadConfig("codebook is defined for the binary_cyclic family")
    if cfg.k > 16:
        raise BadConfig("codebook enumeration is capped at k <= 16")
    r = cfg.n - cfg.k
    words = set()
    for msg in range(1 << cfg.k):
        shifted = msg << r
        cw = shifted ^ _poly_mod(shifted, cfg.generator)
        words.add("".join(str((cw >> i) & 1) for i in range(cfg.n)))
    return words


def cyclic_decode_burst(chunks: ChunkSet, cfg: CodecConfig) -> list:
    """Recover the k data chunks when the absent positions form one cyclic
    burst of length <= n-k.

    Solves the generator parity-check system restricted to the erased
    positions by Gaussian elimination over GF(2); right-hand sides are
    whole-chunk XOR accumulations, so every bit of the buffer is recovered
    in one pass.
    """
    if cfg.family != BINARY_CYCLIC:
        raise BadConfig(f"cyclic_decode_burst needs a binary_cyclic config, got {cfg.family}")
    if chunks.n != cfg.n:
        raise BadConfig(f"chunk set has {chunks.n} slots, expected {cfg.n}")
    r = cfg.n - cfg.k
    absent = [i for i, c in enumerate(chunks.chunks) if c is None]
    if not is_cyclic_burst_mask(absent, cfg.n, r):
        raise NotABurst(f"absent positions {absent} are not a cyclic burst of length <= {r}")

    filled = list(chunks.chunks)
    if absent:
        # column of position i in the parity-check relation: x^i mod g
        col = [_poly_mod(1 << i, cfg.generator) for i in range(cfg.n)]
        rows = []
        for p in range(r):
            acc = bytearray(cfg.B)
            for i, c in enumerate(filled):
                if c is not None and (col[i] >> p) & 1:
                    for b_i, b in enumerate(c):
                        acc[b_i] ^= b
            coeffs = [(col[i] >> p) & 1 for i in absent]
            rows.append([coeffs, acc])

        # Gauss-Jordan over GF(2); unknowns are whole chunks
        pivots: dict = {}
        used_rows: set = set()
        for u in range(len(absent)):
            piv = next(
                (ri for ri, (coeffs, _) in enumerate(rows)
                 if ri not in used_rows and coeffs[u]),
                None,
            )
            if piv is None:
                raise NotABurst("parity system is singular for this erasure pattern")
            used_rows.add(piv)
            pcoeffs, pacc = rows[piv]
            for ri, (coeffs, acc) in enumerate(rows):
                if ri != piv and coeffs[u]:
                    for w in range(len(absent)):
                        coeffs[w] ^= pcoeffs[w]
                    for b_i in range(cfg.B):
                        acc[b_i] ^= pacc[b_i]
            pivots[u] = piv
        for u, piv in pivots.items():
            pcoeffs, pacc = rows[piv]
            filled[absent[u]] = bytes(pacc)
    return [filled[r + d] for d in range(cfg.k)]


# -- instance-level wiring ----------------------------------------------------

def store_packets(inst: Instance, payloads: Sequence[Sequence[bytes]], cfg: CodecConfig) -> list:
    """Encode each packet's payload; chunk j goes to the j-th MU of the
    packet's sorted MU set."""
    if len(payloads) != inst.L:
        raise BadConfig(f"{len(payloads)} payloads for {inst.L} packets")
    if cfg.n != inst.n:
        raise BadConfig(f"codec n={cfg.n} != instance n={inst.n}")
    encode = mds_encode if cfg.family == MDS else cyclic_encode
    return [encode(p, cfg) for p in payloads]


def end_to_end_read(
    inst: Instance,
    sol: Solution,
    stored: Sequence[ChunkSet],
    cfg: CodecConfig,
) -> list:
    """Decode every served packet from exactly the chunks at its assigned MUs.

    Cyclic-family codes decode through the burst decoder (the cyclic read
    algorithm guarantees burst-shaped erasures); MDS decodes from any k.
    Returns one entry per packet: the list of k data chunks, or None if the
    packet was not served.  Decode errors become DecodeFailure since they
    signal a solver/codec contract violation.
    """
    if cfg.k != inst.k or cfg.n != inst.n:
        raise BadConfig(
            f"codec (k={cfg.k}, n={cfg.n}) does not match instance (k={inst.k}, n={inst.n})"
        )
    results: list = []
    for i, assign in enumerate(sol.assignments):
        if assign is None:
            results.append(None)
            continue
        positions = {m: p for p, m in enumerate(inst.packets[i])}
        keep = [positions[m] for m in assign]
        masked = stored[i].mask(keep)
        try:
            if cfg.family == BINARY_CYCLIC:
                results.append(cyclic_decode_burst(masked, cfg))
            else:
                results.append(mds_decode(masked, cfg))
        except (NotABurst, TooFewChunks) as exc:
            raise DecodeFailure(f"packet {i}: {exc}") from exc
    return results


# -- chunk files ----------------------------------------------------------------

CHUNK_MAGIC = b"CSWC"
_HEADER = struct.Struct("<4sHHIHH")  # magic, k, n, B, index, reserved


def write_chunk_file(path, cfg: CodecConfig, index: int, payload: bytes) -> None:
    if len(payload) != cfg.B:
        raise BadConfig(f"chunk payload length {len(payload)} != B = {cfg.B}")
    header = _HEADER.pack(CHUNK_MAGIC, cfg.k, cfg.n, cfg.B, index, 0)
    Path(path).write_bytes(header + payload)


def read_chunk_file(path) -> tuple:
    """Returns (k, n, B, index, payload)."""
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size:
        raise MalformedFile(f"{path}: {len(raw)} bytes, shorter than the {_HEADER.size}-byte header")
    magic, k, n, B, index, _ = _HEADER.unpack(raw[: _HEADER.size])
    if magic != CHUNK_MAGIC:
        raise BadConfig(f"{path}: bad chunk magic {magic!r}")
    payload = raw[_HEADER.size :]
    if len(payload) != B:
        raise BadConfig(f"{path}: payload length {len(payload)} != header B = {B}")
    return k, n, B, index, payload
