"""Chunk-level erasure codecs wired to solver outputs.

A packet of k data chunks (B bytes each) is encoded into n coded chunks
stored on n distinct MUs.  Both families are one GF(256) linear map: a
systematic k x n generator matrix, built once per code, whose column j holds
the coefficients of coded chunk j over the k data chunks.

* ``mds``: Reed-Solomon style code.  Chunk j is the evaluation at x = j of
  the degree < k polynomial through the data chunks at x = 0..k-1, so any k
  of the n chunks reconstruct the data.
* ``binary_cyclic``: systematic binary cyclic code from a generator
  polynomial g(x) of degree n-k dividing x^n - 1 over GF(2).  GF(2) is a
  subfield of GF(256) and the matrix has only 0/1 entries, so this family is
  XOR only, and much cheaper than MDS.  It still recovers any cyclic burst
  of up to n-k erasures, which is exactly the erasure shape the cyclic read
  algorithm produces.

Encoding combines the data chunks by each column.  Decoding returns the
data chunks as they are when all of them are present; otherwise it inverts
the k x k submatrix of k independent present columns by Gauss-Jordan over
GF(256), once per code and erasure pattern, and combines the present chunks
by each row of the inverse.  ``_combine`` is the only routine that touches
chunk bytes.  A column whose one nonzero coefficient is 1 (a systematic
column, or the inverse row of a surviving data chunk) returns that chunk
itself.  Otherwise the chunks are XORed into one numpy uint8 buffer:
coefficient 0 skips a chunk, 1 XORs it in as it is, and any other
coefficient first maps it through its GF(256) multiplication table with
``bytes.translate``.

Errors: a chunk whose length is not B raises BadConfig; fewer than k
present chunks raise TooFewChunks; a cyclic erasure pattern that is not one
burst of length <= n-k raises NotABurst.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .errors import BadConfig, DecodeFailure, MalformedFile, NotABurst, TooFewChunks
from .model import Instance, Solution, arc_start

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


def _combine(coeffs: Sequence[int], chunks: Sequence[bytes]) -> bytes:
    """The GF(256) combination sum_i coeffs[i] * chunks[i] of equal-length chunks.

    A column with one nonzero coefficient, 1, returns that chunk object
    itself: ``bytes`` are immutable, so the result may share it.
    """
    terms = [(c, chunk) for c, chunk in zip(coeffs, chunks) if c]
    if len(terms) == 1 and terms[0][0] == 1:
        return terms[0][1]
    acc = np.zeros(len(chunks[0]), np.uint8)
    for c, chunk in terms:
        if c != 1:
            chunk = chunk.translate(_mul_row(c))
        acc ^= np.frombuffer(chunk, np.uint8)
    return acc.tobytes()


# -- configuration and chunk container ---------------------------------------

MDS = "mds"
BINARY_CYCLIC = "binary_cyclic"
# x^n - 1 is factored by trial division, which takes up to 2^(n/2) steps
CYCLIC_MAX_N = 32


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
            if self.n > CYCLIC_MAX_N:
                raise BadConfig(f"binary cyclic codes support n <= {CYCLIC_MAX_N}, got n={self.n}")
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
    def code(self) -> tuple:
        """(k, n, family, generator): what the linear map depends on, not B."""
        return self.k, self.n, self.family, self.generator


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


def _poly_divmod(a: int, m: int) -> tuple:
    dm = _poly_deg(m)
    q = 0
    while a and _poly_deg(a) >= dm:
        shift = _poly_deg(a) - dm
        q ^= 1 << shift
        a ^= m << shift
    return q, a


def _poly_mod(a: int, m: int) -> int:
    return _poly_divmod(a, m)[1]


def _poly_mul(a: int, b: int) -> int:
    out = 0
    while b:
        if b & 1:
            out ^= a
        a <<= 1
        b >>= 1
    return out


@lru_cache(maxsize=None)
def factor_xn_minus_1(n: int) -> tuple:
    """Irreducible factorisation of x^n - 1 over GF(2), with multiplicity, ascending.

    Trial division in increasing order: the smallest divisor left is
    irreducible, and so is the rest once nothing up to half its degree divides it.
    """
    target = (1 << n) ^ 1
    factors = []
    q = 2
    while 2 * _poly_deg(q) <= _poly_deg(target):
        quotient, rem = _poly_divmod(target, q)
        if rem:
            q += 1
        else:
            factors.append(q)
            target = quotient
    if target != 1:
        factors.append(target)
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
    """True iff the absent positions form one cyclic run of length <= max_len.

    No position absent is the empty burst; all n absent is no burst.
    """
    absent = set(absent)
    return not absent or (len(absent) <= min(max_len, n - 1)
                          and arc_start(absent, len(absent), n) is not None)


# -- the linear map: one encoder, one decoder ---------------------------------

def _lagrange_coeff(k: int, d: int, x: int) -> int:
    """The Lagrange basis polynomial of point d, on the points 0..k-1, at x."""
    num, den = 1, 1
    for m in range(k):
        if m != d:
            num = gf_mul(num, x ^ m)
            den = gf_mul(den, d ^ m)
    return gf_mul(num, gf_inv(den))


@lru_cache(maxsize=256)
def _generator_matrix(k: int, n: int, family: str, generator: Optional[int]) -> tuple:
    """Column j: the k coefficients of coded chunk j over the data chunks."""
    if family == MDS:
        return tuple(tuple(_lagrange_coeff(k, d, j) for d in range(k)) for j in range(n))
    # data at positions r..n-1; parity bit p of data position d is bit p of x^(r+d) mod g
    r = n - k
    parity = [_poly_mod(1 << (r + d), generator) for d in range(k)]
    return tuple(
        tuple((parity[d] >> j) & 1 if j < r else int(d == j - r) for d in range(k))
        for j in range(n)
    )


@lru_cache(maxsize=4096)
def _inverse(k: int, n: int, family: str, generator: Optional[int], present: tuple) -> tuple:
    """(positions, inverse): k independent present positions, and the inverse of
    their coefficient matrix, whose row d combines their chunks into data chunk d.

    Gauss-Jordan on the present columns, each augmented with its unit row to
    record the row operations; a pivot row only takes in other pivot rows.
    """
    cols = _generator_matrix(k, n, family, generator)
    m = len(present)
    rows = [list(cols[p]) + [int(i == j) for j in range(m)] for i, p in enumerate(present)]
    pivots: list = []
    for u in range(k):
        piv = next((i for i in range(m) if i not in pivots and rows[i][u]), None)
        if piv is None:
            raise NotABurst(f"present positions {list(present)} do not determine the data")
        inv = gf_inv(rows[piv][u])
        rows[piv] = [gf_mul(inv, a) for a in rows[piv]]
        for i in range(m):
            f = rows[i][u]
            if i != piv and f:
                rows[i] = [a ^ gf_mul(f, b) for a, b in zip(rows[i], rows[piv])]
        pivots.append(piv)
    positions = tuple(present[i] for i in pivots)
    return positions, tuple(tuple(rows[p][k + i] for i in pivots) for p in pivots)


def _require(cfg: CodecConfig, family: str, caller: str) -> None:
    if cfg.family != family:
        raise BadConfig(f"{caller} needs a {family} config, got {cfg.family}")


def _encode(data: Sequence[bytes], cfg: CodecConfig) -> ChunkSet:
    data = _check_payload(data, cfg)
    return ChunkSet(chunks=tuple(_combine(col, data) for col in _generator_matrix(*cfg.code)))


def _decode(chunks: ChunkSet, cfg: CodecConfig) -> list:
    if chunks.n != cfg.n:
        raise BadConfig(f"chunk set has {chunks.n} slots, expected {cfg.n}")
    present = tuple(i for i, c in enumerate(chunks.chunks) if c is not None)
    for i in present:
        if len(chunks.chunks[i]) != cfg.B:
            raise BadConfig(f"chunk {i} has length {len(chunks.chunks[i])} != B = {cfg.B}")
    if cfg.family == BINARY_CYCLIC:
        absent = [i for i, c in enumerate(chunks.chunks) if c is None]
        if not is_cyclic_burst_mask(absent, cfg.n, cfg.n - cfg.k):
            raise NotABurst(
                f"absent positions {absent} are not a cyclic burst of length <= {cfg.n - cfg.k}"
            )
    if len(present) < cfg.k:
        raise TooFewChunks(f"{len(present)} chunks present, need {cfg.k}")
    start = 0 if cfg.family == MDS else cfg.n - cfg.k  # of the systematic data chunks
    data = chunks.chunks[start : start + cfg.k]
    if None not in data:
        return list(data)
    positions, inverse = _inverse(*cfg.code, present)
    sources = [chunks.chunks[i] for i in positions]
    return [_combine(row, sources) for row in inverse]


def mds_encode(data: Sequence[bytes], cfg: CodecConfig) -> ChunkSet:
    """Systematic encode: chunks 0..k-1 are the data, the rest evaluations
    of the interpolating polynomial at further points."""
    _require(cfg, MDS, "mds_encode")
    return _encode(data, cfg)


def mds_decode(chunks: ChunkSet, cfg: CodecConfig) -> list:
    """Reconstruct the k data chunks from any k present chunks."""
    _require(cfg, MDS, "mds_decode")
    return _decode(chunks, cfg)


def cyclic_encode(data: Sequence[bytes], cfg: CodecConfig) -> ChunkSet:
    """Systematic encode: data occupies positions n-k..n-1, parity 0..n-k-1.

    Parity chunk p is the XOR of the data chunks whose generator-remainder
    x^(n-k+d) mod g has bit p set.
    """
    _require(cfg, BINARY_CYCLIC, "cyclic_encode")
    return _encode(data, cfg)


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
    burst of length <= n-k."""
    _require(cfg, BINARY_CYCLIC, "cyclic_decode_burst")
    return _decode(chunks, cfg)


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
    decode = cyclic_decode_burst if cfg.family == BINARY_CYCLIC else mds_decode
    results: list = []
    for i, assign in enumerate(sol.assignments):
        if assign is None:
            results.append(None)
            continue
        positions = {m: p for p, m in enumerate(inst.packets[i])}
        keep = [positions[m] for m in assign]
        try:
            results.append(decode(stored[i].mask(keep), cfg))
        except (NotABurst, TooFewChunks) as exc:
            raise DecodeFailure(f"packet {i}: {exc}") from exc
    return results


# -- chunk files ----------------------------------------------------------------

CHUNK_MAGIC = b"CSWC"
_HEADER = struct.Struct("<4sHHIHH")  # magic, k, n, B, index, family code
# family of each header family code; 0 = not recorded, as in files from before
_FAMILY_CODES = (None, MDS, BINARY_CYCLIC)


def write_chunk_file(path, cfg: CodecConfig, index: int, payload: bytes) -> None:
    if len(payload) != cfg.B:
        raise BadConfig(f"chunk payload length {len(payload)} != B = {cfg.B}")
    header = _HEADER.pack(CHUNK_MAGIC, cfg.k, cfg.n, cfg.B, index, _FAMILY_CODES.index(cfg.family))
    Path(path).write_bytes(header + payload)


def read_chunk_file(path, family: Optional[str] = None) -> tuple:
    """Returns (k, n, B, index, payload).  MalformedFile if the header
    records a family other than ``family`` (when given)."""
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size:
        raise MalformedFile(f"{path}: {len(raw)} bytes, shorter than the {_HEADER.size}-byte header")
    magic, k, n, B, index, code = _HEADER.unpack(raw[: _HEADER.size])
    if magic != CHUNK_MAGIC:
        raise MalformedFile(f"{path}: bad chunk magic {magic!r}")
    if code >= len(_FAMILY_CODES):
        raise MalformedFile(f"{path}: unknown family code {code}")
    if family is not None and _FAMILY_CODES[code] not in (None, family):
        raise MalformedFile(f"{path}: encoded as {_FAMILY_CODES[code]}, not {family}")
    payload = raw[_HEADER.size :]
    if len(payload) != B:
        raise MalformedFile(f"{path}: payload length {len(payload)} != header B = {B}")
    return k, n, B, index, payload
