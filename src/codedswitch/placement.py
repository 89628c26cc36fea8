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
packets, each row ascending.  The form changes what is built from the
draws, never the draws.  Only this module orders starts: every reader of
the starts form takes its rows as given.
``packet_table`` lists every packet a policy can place, in any form;
cyclic arcs and design blocks are its rows, picked by one
``Generator.integers`` call, and uniform n-subsets come from
``uniform_rows``.  That replays ``Generator.choice(N, n, replace=False)``
exactly, state included, on any bit generator: ``choice`` runs Floyd's
algorithm on draws made by Lemire's method from the generator's 32-bit
words, so a pass draws its words in one ``integers`` call and maps them to
the same draws in bulk; a pass in which numpy would have rejected a word,
or would expect to reject half a word or more, is drawn by one
``integers`` call over its bounds.  Short requests, large n and N >= 2^32
call ``choice`` row by row.

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


# Rows per pass of a batch.  Beside the rows it fills, a pass holds about 16n
# bytes per row: its 2n - 1 32-bit words twice over (drawn and transposed, or
# words and their products), or its words and its uint64 Floyd columns; for
# 4096 rows 0.4 MB at n = 6 and 2.1 MB at n = 32, however many rows are asked for.
# On sim_uniform (N = 12, n = 3..6, 800L rows a call) 4096-row passes read
# 1.11x the trials/s of 1024-row ones, 6 of 6 pairs of 10 s runs.
_PASS_ROWS = 4096
# A pass of one row takes 40-85 µs at n <= 12 and 165-175 µs at n = 32, and
# choice 8-10 µs per row (N = 64, timeit minimum of 5, PCG64).  Measured per
# row against choice (``uniform_rows`` with the gate moved, N from n+1 to
# 2^32-1), a pass of 24 rows takes 0.15-0.33 of choice's time at n <= 6,
# 0.34-0.44 at n = 12 and 0.57-0.96 at n = 32, in either form; the first row
# count at which a pass wins is 4-8 at n <= 6, 8-12 at n = 12, and 12 for
# masks and 24 for packets at n = 32.  So one gate at 24 rows is on the
# batch's side for every n <= 32.  Larger n is left to choice, which also
# keeps calls out of its tail shuffle.
_BATCH_MIN_ROWS = 24
_BATCH_MAX_N = 32


def _bounded_columns(highs: np.ndarray, n: int, rows: int,
                     gen: np.random.Generator) -> np.ndarray:
    """The Floyd draws of ``rows`` successive choice calls whose draws have
    the bounds ``highs``, by one ``integers`` call over the tiled bounds:
    numpy's bounded-integer routine, which choice calls once per draw, runs
    once per bound in order, rejections and all.  An (n, rows) uint64 array,
    as ``_floyd_columns``."""
    draws = gen.integers(0, np.tile(highs, rows)).reshape(rows, -1)
    return np.ascontiguousarray(draws[:, :n].T, dtype=np.uint64)


def _floyd_columns(N: int, n: int, rows: int, gen: np.random.Generator) -> np.ndarray:
    """The Floyd draws of ``rows`` successive choice calls, N < 2^32: an (n,
    rows) uint64 array whose row c holds the draws in [0, N-n+c].

    choice makes a draw in [0, j], 0 < j < 2^32 - 1, by Lemire's method on the
    next 32-bit word x of the generator: x is rejected, and the next word
    tried, if the low half of x(j+1) is below 2^32 mod (j+1), and else the
    draw is the high half.  A draw in [0, 0] takes no word.  So the pass's
    words are drawn in one call and mapped to the draws in bulk; the
    shuffle's words that follow each call's are checked and dropped, as a
    sorted row or a mask does not depend on them.  A pass in which numpy
    would have rejected a word is rewound and drawn by ``_bounded_columns``,
    and so at once is a pass that expects half a rejected word or more."""
    # each call's bounds j+1 of its draws in [0, j]: Floyd's, then the shuffle's
    highs = np.concatenate([np.arange(N - n + 1, N + 1), np.arange(n, 1, -1)])
    rejected_below = 2**32 % highs
    # A word rejects with probability rejected_below / 2^32, so rows * sum / 2^32
    # words of a pass are expected to reject, and from about half a word on
    # so many passes are drawn twice that drawing bound by bound is faster:
    # at n = 6, 24,576 rows took 3.7-3.8 ms through the words and 4.0-4.1 ms
    # bound by bound at N = 10^5 (0.33 expected), 4.2-4.6 against 4.0-4.1 at
    # 2*10^5 (0.5) and 5.0-6.2 against 4.0-4.4 from 4*10^5 to 3*10^6 (1.1-11).
    if 2 * rows * rejected_below.sum() >= 2**32:
        return _bounded_columns(highs, n, rows, gen)
    state = gen.bit_generator.state
    words = gen.integers(0, 2**32, size=(rows, len(highs) - (N == n)), dtype=np.uint32)
    if N == n:
        # word 0 gives the draw in [0, 0], and is never rejected
        words = np.pad(words, ((0, 0), (1, 0)))
    # one row per bound, so that each step works on contiguous words
    words = np.ascontiguousarray(words.T)
    if ((words * highs.astype(np.uint32)[:, None]).min(axis=1) < rejected_below).any():
        gen.bit_generator.state = state
        return _bounded_columns(highs, n, rows, gen)
    floyd = np.multiply(words[:n], highs[:n, None].astype(np.uint64), dtype=np.uint64)
    floyd >>= 32
    return floyd


def _floyd_pass(N: int, n: int, floyd: np.ndarray, taken: np.ndarray) -> None:
    """Fill ``taken`` with the sorted rows that Floyd's algorithm takes from
    the draws ``floyd`` (``_floyd_columns``)."""
    # the membership test reduces over the short axis; row c becomes the taken value
    for c, j in enumerate(range(N - n, N)):
        floyd[c] = np.where((floyd[:c] == floyd[c]).any(axis=0), j, floyd[c])
    taken[:] = floyd.T
    taken.sort(axis=1)


def _floyd_mask_pass(N: int, n: int, floyd: np.ndarray, masks: np.ndarray) -> None:
    """OR into the zeroed ``masks`` the MU masks that Floyd's algorithm takes
    from the draws ``floyd``: a draw v in [0, j] takes bit j if bit v is
    already set, else bit v, so the membership test is one AND and no row
    is sorted."""
    one = np.uint64(1)
    for j, v in zip(range(N - n, N), floyd):
        bit = one << v
        masks |= np.where(masks & bit, one << np.uint64(j), bit)


def uniform_rows(N: int, n: int, rows: int, gen: np.random.Generator,
                 form: str = "packets") -> np.ndarray:
    """``rows`` independent uniform n-subsets of {0..N-1}: a sorted (rows, n)
    array, or in ``form="masks"`` their (rows,) uint64 MU masks (N <= 64).

    Row i is ``sorted(gen.choice(N, n, replace=False))`` of the i-th of
    ``rows`` successive calls, and ``gen`` is left in the state those calls
    leave.  For n <= 32, N < 2^32 and at least ``_BATCH_MIN_ROWS`` rows the
    calls are replayed in passes of up to ``_PASS_ROWS`` rows.  ``choice``
    runs Floyd's algorithm there: a draw v in [0, j] for j = N-n..N-1, taking
    j if v is taken, then a shuffle of the n values by a draw in [0, i] for
    i = n-1..1.  It makes each draw by Lemire's method on the generator's
    next 32-bit word, so a pass draws its words in one
    ``Generator.integers`` call, on any bit generator, and maps them to the
    draws in bulk (``_floyd_columns``).  A pass in which numpy would have
    rejected a word, or would expect to reject half a word or more, is
    drawn by one ``integers`` call over its bounds (``_bounded_columns``).
    A mask pass runs Floyd's test on the bits of the masks
    (``_floyd_mask_pass``).  Fewer rows, larger n and N >= 2^32 go to
    ``choice`` row by row.
    """
    if not (1 <= n <= N) or rows < 0:
        raise BadParams(f"need 1 <= n <= N and rows >= 0, got N={N}, n={n}, rows={rows}")
    _check_form("uniform", N, form)
    if rows < _BATCH_MIN_ROWS or n > _BATCH_MAX_N or N >= 2**32:
        taken = _choice_rows(N, n, rows, gen)
        return conditions.mu_masks(taken) if form == "masks" else taken
    if form == "masks":
        out, fill = np.zeros(rows, dtype=np.uint64), _floyd_mask_pass
    else:
        out, fill = np.empty((rows, n), dtype=np.int64), _floyd_pass
    # equal passes, so that none holds fewer than _BATCH_MIN_ROWS rows
    for part in np.array_split(out, -(-rows // _PASS_ROWS)):
        fill(N, n, _floyd_columns(N, n, len(part), gen), part)
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
    check_cell(policy, N, n, k)
    if policy == "uniform":
        inst = draw_uniform(N, n, L, rng)
    elif policy == "cyclic":
        inst = draw_cyclic(N, n, L, rng)
    else:
        check_design(design, N, n)
        inst = draw_design(design, L, rng)
    return with_k(inst, k)


# what a row of L drawn packets is handed over as (``draw_rows``); a row of
# starts is ascending
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
    cyclic starts are the picks themselves, then sorted in each row);
    uniform ones come from ``uniform_rows``, sorted or as masks.  The
    packets are those of the ``draw`` calls, and the form leaves the draws
    and the state of ``gen`` as they are."""
    if policy == "uniform":
        rows = uniform_rows(N, n, size * L, gen, form)
        return rows.reshape(size, L, *rows.shape[1:])
    table = packet_table(policy, N, n, design, form)
    rows = table[gen.integers(0, len(table), size=(size, L))]
    if form == "starts":
        rows.sort(axis=1)
    return rows


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
