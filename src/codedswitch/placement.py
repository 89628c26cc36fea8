"""Packet placement policies and block-design substrates.

Three write-path policies decide which n MUs hold a packet's chunks:

* uniform: any of the C(N, n) n-subsets, drawn uniformly;
* cyclic: one of the N arcs of n cyclically consecutive MUs;
* design: a block of a packing whose pairwise intersections are bounded,
  so that full throughput is guaranteed by construction for suitable L.

``draw`` places one instance; ``draw_rows`` makes many draws of every
policy in one call, on the stream of as many ``draw`` calls, in one of
three forms (``FORMS``): a (size, L, n) packet array, the (size, L) uint64
MU masks of those packets (N <= 64), or the (size, L) arc starts of cyclic
packets.  The form changes what is built from the draws, never the draws.
``packet_table`` lists every packet a policy can place, in any form;
cyclic arcs and design blocks are its rows, picked by one
``Generator.integers`` call, and uniform n-subsets come from
``uniform_rows``.  That replays ``Generator.choice(N, n, replace=False)``
exactly, state included, on any bit generator: ``choice`` runs Floyd's
algorithm on numpy's bounded-integer draws, and one ``integers`` call over
an array of bounds makes the same draws in the same order.  Short requests
and large n call ``choice`` row by row.

Design substrates come from projective planes (Steiner 2-designs) or from
a greedy lexicographic scan equivalent to constant-weight-code packings
with distance d = 2(n - t_max).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from pathlib import Path

import numpy as np

from . import conditions
from .errors import (
    BadParams,
    CoverageDuplicate,
    CoverageGap,
    DuplicateIndex,
    EmptyDesign,
    IntersectionTooLarge,
    MalformedFile,
    NotPrime,
    WrongCardinality,
)
from .model import POLICIES, Instance, mu_bits, muset


@dataclass(frozen=True)
class PlacementRng:
    """Reproducible random stream: identical (seed, stream_id) draws match."""

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        if self.seed < 0 or self.stream_id < 0:
            raise BadParams(f"seed and stream_id must be >= 0, got {self.seed}, {self.stream_id}")

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence([int(self.seed), int(self.stream_id)])
        return np.random.Generator(np.random.PCG64(ss))


def _as_generator(rng) -> np.random.Generator:
    if isinstance(rng, PlacementRng):
        return rng.generator()
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, (int, np.integer)):
        return PlacementRng(int(rng)).generator()
    raise BadParams(f"expected PlacementRng, Generator or seed, got {type(rng)!r}")


@dataclass(frozen=True)
class BlockDesign:
    """A verified packing: b blocks of size n with intersections <= t-1,
    each stored sorted (``model.muset``).

    For ``source='projective_plane'`` the blocks are the lines of PG(2, q),
    a Steiner 2-design: b = q^2+q+1 = N and every pair of points lies in
    exactly one block.
    """

    N: int
    n: int
    t: int
    blocks: tuple
    source: str = "file"

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(map(muset, self.blocks)))

    @property
    def b(self) -> int:
        return len(self.blocks)

    def block_set(self) -> frozenset:
        return frozenset(self.blocks)

    def save(self, path) -> None:
        lines = [f"{self.N} {self.n} {self.t}"]
        lines += [" ".join(str(m) for m in blk) for blk in self.blocks]
        Path(path).write_text("\n".join(lines) + "\n")

    @classmethod
    def load(cls, path) -> "BlockDesign":
        try:
            rows = [r for r in Path(path).read_text().split("\n") if r.strip()]
            N, n, t = (int(x) for x in rows[0].split())
            blocks = tuple(muset(int(x) for x in r.split()) for r in rows[1:])
        except (IndexError, ValueError, DuplicateIndex) as exc:
            raise MalformedFile(f"{path}: malformed block design ({exc})") from exc
        for i, blk in enumerate(blocks):
            if len(blk) != n or blk[0] < 0 or blk[-1] >= N:
                raise MalformedFile(f"{path}: block {i} = {blk} is not {n} MUs in [0, {N})")
        return cls(N=N, n=n, t=t, blocks=blocks, source="file")


def _choice_rows(N: int, n: int, rows: int, gen) -> np.ndarray:
    """``uniform_rows`` by one call of ``gen.choice`` per row."""
    return np.array([np.sort(gen.choice(N, size=n, replace=False)) for _ in range(rows)],
                    dtype=np.int64).reshape(rows, n)


# rows per pass of a batch: a pass holds about 40n bytes of arrays per row,
# so memory stays flat however many rows are asked for
_PASS_ROWS = 1024
# A pass sweeps numpy once per Floyd column, so it costs about 10 µs per
# column however few rows it holds, and compares each value with the n/2
# before it on average.  Measured against row-by-row choice (N from n+1 to
# 2^33), a pass takes 0.07-0.41 of choice's time per row at 64 rows and
# n <= 32, and 0.73-0.92 at 64 rows and n = 64.  Below 64 rows the break-even
# rises with n, from about 4 rows at n = 3 to about 24 at n = 32, so one gate
# at 64 rows is on the batch's side for every n <= 32.  Fewer rows or larger
# n are left to choice; n <= 32 also keeps calls out of choice's tail shuffle.
_BATCH_MIN_ROWS = 64
_BATCH_MAX_N = 32


def _floyd_columns(N: int, n: int, rows: int, gen: np.random.Generator) -> np.ndarray:
    """The draws of ``rows`` successive choice calls, in one ``integers``
    call: an (n, rows) array whose row c holds Floyd's draws in [0, N-n+c].
    The shuffle's draws that follow each call's are made and dropped, as
    a sorted row or a mask does not depend on them."""
    # each call's bounds j+1 of its draws in [0, j]: Floyd's, then the shuffle's
    highs = np.concatenate([np.arange(N - n + 1, N + 1), np.arange(n, 1, -1)])
    draws = gen.integers(0, np.tile(highs, rows)).reshape(rows, -1)
    # one row per column, so that each step works on contiguous values
    return np.ascontiguousarray(draws[:, :n].T)


def _floyd_pass(N: int, n: int, gen: np.random.Generator, taken: np.ndarray) -> None:
    """Fill ``taken`` with the sorted rows of len(taken) successive choice
    calls, in one pass (see ``uniform_rows``)."""
    floyd = _floyd_columns(N, n, len(taken), gen)
    # the membership test reduces over the short axis; row c becomes the taken value
    for c, j in enumerate(range(N - n, N)):
        floyd[c] = np.where((floyd[:c] == floyd[c]).any(axis=0), j, floyd[c])
    taken[:] = floyd.T
    taken.sort(axis=1)


def _floyd_mask_pass(N: int, n: int, gen: np.random.Generator, masks: np.ndarray) -> None:
    """OR into the zeroed ``masks`` the MU masks of len(masks) successive
    choice calls, in one pass: a draw v in [0, j] takes bit j if bit v is
    already set, else bit v, so the membership test is one AND and no row
    is sorted."""
    one = np.uint64(1)
    for j, v in zip(range(N - n, N), _floyd_columns(N, n, len(masks), gen)):
        bit = one << v.astype(np.uint64)
        masks |= np.where(masks & bit, one << np.uint64(j), bit)


def uniform_rows(N: int, n: int, rows: int, gen: np.random.Generator,
                 form: str = "packets") -> np.ndarray:
    """``rows`` independent uniform n-subsets of {0..N-1}: a sorted (rows, n)
    array, or in ``form="masks"`` their (rows,) uint64 MU masks (N <= 64).

    Row i is ``sorted(gen.choice(N, n, replace=False))`` of the i-th of
    ``rows`` successive calls, and ``gen`` is left in the state those calls
    leave.  For n <= 32 and at least 64 rows the calls are replayed in
    passes of up to ``_PASS_ROWS`` rows.  ``choice`` runs Floyd's algorithm
    there: a draw v in [0, j] for j = N-n..N-1, taking j if v is taken, then
    a shuffle of the n values by a draw in [0, i] for i = n-1..1.  It makes
    each draw with numpy's bounded-integer routine, which
    ``Generator.integers`` also calls once per element of an array of
    bounds, in order; so one ``integers`` call makes a pass's draws on any
    bit generator.  A mask pass runs Floyd's test on the bits of the masks
    (``_floyd_mask_pass``).  Fewer rows and larger n go to ``choice`` row by
    row (see ``_BATCH_MIN_ROWS``).
    """
    if not (1 <= n <= N) or rows < 0:
        raise BadParams(f"need 1 <= n <= N and rows >= 0, got N={N}, n={n}, rows={rows}")
    _check_form("uniform", N, form)
    if rows < _BATCH_MIN_ROWS or n > _BATCH_MAX_N:
        taken = _choice_rows(N, n, rows, gen)
        return conditions.mu_masks(taken) if form == "masks" else taken
    if form == "masks":
        out, fill = np.zeros(rows, dtype=np.uint64), _floyd_mask_pass
    else:
        out, fill = np.empty((rows, n), dtype=np.int64), _floyd_pass
    # equal passes, so that none holds fewer than _BATCH_MIN_ROWS rows
    for part in np.array_split(out, -(-rows // _PASS_ROWS)):
        fill(N, n, gen, part)
    return out


def draw_uniform(N: int, n: int, L: int, rng) -> Instance:
    """L independent uniform n-subsets of {0..N-1}, with replacement."""
    if not (1 <= n <= N) or L < 1:
        raise BadParams(f"need 1 <= n <= N and L >= 1, got N={N}, n={n}, L={L}")
    packets = uniform_rows(N, n, L, _as_generator(rng)).tolist()
    return Instance(N=N, k=n, n=n, packets=packets, placement="uniform")


def draw_cyclic(N: int, n: int, L: int, rng) -> Instance:
    """L independent arcs {s..s+n-1 mod N} with uniform starts, replacement allowed."""
    if not (1 <= n < N) or L < 1:
        raise BadParams(f"need 1 <= n < N and L >= 1, got N={N}, n={n}, L={L}")
    return instance_from_starts(N, n, _as_generator(rng).integers(0, N, size=L))


def instance_from_starts(N: int, n: int, starts, k: int | None = None) -> Instance:
    """Cyclic instance from explicit arc starts."""
    packets = tuple(tuple(sorted((int(s) + r) % N for r in range(n))) for s in starts)
    return Instance(N=N, k=n if k is None else k, n=n, packets=packets, placement="cyclic")


def with_k(inst: Instance, k: int) -> Instance:
    """Same placement, different chunk requirement k."""
    return Instance(N=inst.N, k=k, n=inst.n, packets=inst.packets, placement=inst.placement)


def draw_design(design: BlockDesign, L: int, rng, replace: bool = True) -> Instance:
    """L packets drawn uniformly from the design blocks (balls into bins).

    ``replace=False`` conditions on distinct blocks, for experiments that
    study the distinct-block regime directly.
    """
    if design.b == 0:
        raise EmptyDesign("design has no blocks")
    if L < 1:
        raise BadParams(f"need L >= 1, got {L}")
    gen = _as_generator(rng)
    if replace:
        idx = gen.integers(0, design.b, size=L)
    else:
        if L > design.b:
            raise BadParams(f"cannot draw {L} distinct blocks from {design.b}")
        idx = gen.choice(design.b, size=L, replace=False)
    packets = tuple(design.blocks[int(i)] for i in idx)
    return Instance(
        N=design.N, k=design.n, n=design.n, packets=packets, placement="design"
    )


def check_design(design: BlockDesign | None, N: int, n: int) -> None:
    """BadParams unless a design-policy experiment has a design on (N, n),
    EmptyDesign if it has no blocks to draw."""
    if design is None:
        raise BadParams("design policy needs a block design (design_source in a spec)")
    if design.b == 0:
        raise EmptyDesign("design has no blocks")
    if design.N != N or design.n != n:
        raise BadParams(f"design is on (N={design.N}, n={design.n}), asked for (N={N}, n={n})")


def check_cell(policy: str, N: int, n: int, k: int) -> None:
    """BadParams unless draws of ``policy`` can place packets of n chunks,
    k of them needed, on N MUs: 1 <= k <= n <= N, and n < N for cyclic arcs."""
    if policy not in POLICIES:
        raise BadParams(f"unknown policy {policy!r}")
    if not (1 <= k <= n <= N) or (policy == "cyclic" and n == N):
        raise BadParams(f"need 1 <= k <= n <= N, and n < N for cyclic arcs, "
                        f"got {policy} N={N}, n={n}, k={k}")


def draw(policy: str, N: int, n: int, k: int, L: int, rng,
         design: BlockDesign | None = None) -> Instance:
    """L packets placed by one policy, each needing k of its n chunks.

    The design policy draws from ``design``, which must be on (N, n).
    """
    if policy == "uniform":
        inst = draw_uniform(N, n, L, rng)
    elif policy == "cyclic":
        inst = draw_cyclic(N, n, L, rng)
    elif policy == "design":
        check_design(design, N, n)
        inst = draw_design(design, L, rng)
    else:
        raise BadParams(f"unknown policy {policy!r}")
    return with_k(inst, k)


# what a row of L drawn packets is handed over as (``draw_rows``)
FORMS = ("packets", "masks", "starts")


def _check_form(policy: str, N: int, form: str) -> None:
    """BadParams unless ``policy``'s packets on N MUs can be given in ``form``:
    masks are uint64, and only arcs have a start."""
    if form not in FORMS:
        raise BadParams(f"form must be one of {FORMS}, got {form!r}")
    if form == "masks" and N > conditions.MASK_MAX_N:
        raise BadParams(f"MU masks are uint64 and take N <= {conditions.MASK_MAX_N}, got N={N}")
    if form == "starts" and policy != "cyclic":
        raise BadParams(f"only cyclic arcs have starts, got policy {policy!r}")


def packet_table(policy: str, N: int, n: int, design: BlockDesign | None = None,
                 form: str = "packets") -> np.ndarray:
    """Every packet ``policy`` can place, as an (s, n) array of sorted rows:
    for cyclic the N arcs, row s starting at MU s; for design the blocks of
    ``design``; for uniform the C(N, n) n-subsets in lexicographic order.
    ``form="masks"`` gives their (s,) ``conditions.mu_masks``,
    ``form="starts"`` the (N,) arc starts."""
    if policy not in POLICIES:
        raise BadParams(f"unknown policy {policy!r}")
    _check_form(policy, N, form)
    if policy == "cyclic":
        if form == "starts":
            return np.arange(N)
        table = np.sort((np.arange(N)[:, None] + np.arange(n)) % N, axis=1)
    elif policy == "design":
        check_design(design, N, n)
        table = np.array(design.blocks)
    else:
        table = np.array(list(combinations(range(N), n)))
    return conditions.mu_masks(table) if form == "masks" else table


def draw_rows(policy: str, N: int, n: int, L: int, size: int, gen: np.random.Generator,
              design: BlockDesign | None = None, form: str = "packets") -> np.ndarray:
    """``size`` draws of L packets, on the stream of ``size`` ``draw`` calls
    with the Generator ``gen``, in ``form``: a (size, L, n) packet array, or
    the (size, L) masks or arc starts of its packets (``FORMS``).  Cyclic and
    design packets are rows of ``packet_table`` in that form, picked by one
    ``Generator.integers`` call (row s is the arc that starts at s, so
    cyclic starts are the picks themselves); uniform ones come from
    ``uniform_rows``, sorted or as masks.  The packets are those of the
    ``draw`` calls, and the form leaves the draws and the state of ``gen``
    as they are."""
    if policy == "uniform":
        rows = uniform_rows(N, n, size * L, gen, form)
        return rows.reshape(size, L, *rows.shape[1:])
    table = packet_table(policy, N, n, design, form)
    return table[gen.integers(0, len(table), size=(size, L))]


def is_prime(q: int) -> bool:
    if q < 2:
        return False
    if q % 2 == 0:
        return q == 2
    f = 3
    while f * f <= q:
        if q % f == 0:
            return False
        f += 2
    return True


def build_projective_plane(q: int) -> BlockDesign:
    """Lines of PG(2, q) as a 2-(q^2+q+1, q+1, 1) Steiner design, q prime.

    Points are normalised homogeneous triples over GF(q); a point lies on a
    line [a,b,c] iff ax + by + cz = 0 (mod q).  Produces b = q^2+q+1 blocks
    of size q+1 on as many points.
    """
    if not is_prime(q):
        raise NotPrime(f"projective plane order must be prime, got {q}")

    def normalised_triples():
        # last non-zero coordinate scaled to 1: one representative per point
        for x in range(q):
            for y in range(q):
                yield (x, y, 1)
        for x in range(q):
            yield (x, 1, 0)
        yield (1, 0, 0)

    points = list(normalised_triples())
    index = {p: i for i, p in enumerate(points)}
    assert len(points) == q * q + q + 1

    blocks = []
    for line in points:  # lines share the same normalised coordinates
        a, b, c = line
        blk = [
            index[(x, y, z)]
            for (x, y, z) in points
            if (a * x + b * y + c * z) % q == 0
        ]
        blocks.append(tuple(sorted(blk)))
    blocks.sort()
    return BlockDesign(
        N=len(points), n=q + 1, t=2, blocks=tuple(blocks), source="projective_plane"
    )


def build_lexicographic_packing(N: int, n: int, t_max: int) -> BlockDesign:
    """Greedy lexicographic scan keeping n-subsets that intersect all kept
    blocks in at most t_max elements.

    Deterministic for fixed parameters; yields a valid packing, not
    necessarily a maximum one.  Equivalent to the support of a constant
    weight code with minimum distance 2(n - t_max).
    """
    if not (0 <= t_max < n <= N):
        raise BadParams(f"need 0 <= t_max < n <= N, got N={N}, n={n}, t_max={t_max}")
    kept_masks: list[int] = []
    kept: list[tuple] = []
    for cand in combinations(range(N), n):
        cm = mu_bits(cand)
        if all((cm & km).bit_count() <= t_max for km in kept_masks):
            kept_masks.append(cm)
            kept.append(cand)
    return BlockDesign(
        N=N, n=n, t=t_max + 1, blocks=tuple(kept), source="lexicographic_packing"
    )


def verify_packing(design: BlockDesign) -> None:
    """Check block sizes and the pairwise intersection bound t-1.

    For Steiner sources (projective planes) additionally require that every
    t-subset of points is covered exactly once.
    """
    for i, blk in enumerate(design.blocks):
        if len(blk) != design.n:
            raise WrongCardinality(f"block {i} has size {len(blk)}, expected {design.n}")
    if design.source == "projective_plane":
        cover: dict[tuple, int] = {}
        for blk in design.blocks:
            for sub in combinations(blk, design.t):
                cover[sub] = cover.get(sub, 0) + 1
        for sub in combinations(range(design.N), design.t):
            c = cover.get(sub, 0)
            if c == 0:
                raise CoverageGap(f"{sub} lies in no block")
            if c > 1:
                raise CoverageDuplicate(f"{sub} lies in {c} blocks")
    masks = [mu_bits(blk) for blk in design.blocks]
    for i in range(len(masks)):
        for j in range(i + 1, len(masks)):
            inter = (masks[i] & masks[j]).bit_count()
            if inter > design.t - 1:
                raise IntersectionTooLarge(
                    f"blocks {i} and {j} intersect in {inter} > t-1 = {design.t - 1}"
                )
