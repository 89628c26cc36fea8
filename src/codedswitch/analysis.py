"""Probability analysis of full-throughput behaviour under random placement.

For an ensemble of random instances (N, n, k, L fixed, packets drawn by a
placement policy) the central quantity is Pr(all L packets servable).
Closed forms and bounds:

* ``p_cover_uniform``  exact probability that L uniform n-subsets cover at
  least kL points, via a Markov chain on union cardinality; an upper bound
  on full throughput for uniform placement.
* ``p_pair_cyclic``    exact probability that L uniform arcs pairwise
  intersect within a threshold; a lower bound for cyclic placement.
* ``p_pair_design``    exact probability that L uniform block draws are
  distinct (balls into bins); equals full-throughput probability when a
  block cannot serve two packets (k > n/2).
* ``p_cover_cyclic``   coverage probability for arcs, by exact enumeration
  or Monte Carlo; an upper bound for cyclic placement.
* ``p_full_throughput_exact``  Pr(L* = L) itself, the probability that
  the extended Hall condition holds (``conditions.arc_hall_rows`` on the
  sorted arc starts of cyclic rows; ``conditions.hall_rows``, a reader of
  the Hall subset-union table, on other rows), by enumerating the
  placement support, or Monte Carlo beyond the cap.

The last two share one walk, ``_probability``, and differ only in the
form their rows come in (``placement.FORMS``: sorted arc starts for cyclic
rows; otherwise MU masks inside the Hall table's gate, packets past it)
and their test of a batch of rows of L packets in that form.  The walk
visits multisets of ``placement.packet_table`` rows weighted by their
numbers of orderings (``multisets``; cyclic placement also pins its first
packet to arc 0) when it takes at most ``ENUMERATION_CAP`` rows, and
gathers each slice's rows by index from the table in that form, which it
builds once; otherwise it draws ``BATCH``-row ``draw_rows`` batches in
that form.  Either way it holds one ``BATCH``-row slice at a time.
No read solver runs here: rows are solved only in ``ensemble``.

Exact quantities are counted in integers (the walk's weights, the union
chain's draws) or kept as Fractions, and divided and converted to float
only at the boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, perm, sqrt

import numpy as np

from .conditions import arc_hall_rows, hall_rows, hall_table_takes
from .errors import BadParams, TooLarge
from .placement import (
    BlockDesign,
    PlacementRng,
    _as_generator,
    check_cell,
    check_design,
    draw_rows,
    packet_table,
)

# most rows an exact walk visits (``_probability``)
ENUMERATION_CAP = 10**6
MC_DEFAULT_SAMPLES = 10**6
# rows per draw_rows call or walked support slice; in _probability this only
# bounds memory, as the walk holds one slice at a time, but
# ensemble.run_ensemble seeds each batch of trials on its own (seed, policy,
# L, batch index), so BATCH is part of every report
BATCH = 4096

CLOSED_FORM = "closed_form"
EXACT_ENUMERATION = "exact_enumeration"
MONTE_CARLO = "monte_carlo"


@dataclass(frozen=True)
class ProbabilityEstimate:
    """A probability in [0,1] with its computation method and stderr (0 if exact)."""

    value: float
    method: str
    stderr: float = 0.0


def _exact(value: Fraction) -> ProbabilityEstimate:
    return ProbabilityEstimate(value=float(value), method=CLOSED_FORM, stderr=0.0)


# ---------------------------------------------------------------------------
# union-cardinality Markov chain (uniform coverage)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UnionModelMatrix:
    """Transition matrix on the union cardinality of repeated uniform n-subsets.

    Entry (i, j) is the probability that the union of a fixed i-set and a
    fresh uniform n-subset of an N-element ground set has exactly j
    elements, ``_union_counts(N, n, i)[j - i]`` of the C(N, n) subsets.
    Rows are exact rationals summing to one, supported on
    max(i, n) <= j <= min(i+n, N).
    """

    N: int
    n: int
    gamma: tuple  # (N+1) x (N+1) nested tuples of Fraction


def _check_subset_size(N: int, n: int) -> None:
    """BadParams unless an n-subset of N elements exists with n >= 1."""
    if not (1 <= n <= N):
        raise BadParams(f"need 1 <= n <= N, got n={n}, N={N}")


def _union_counts(N: int, n: int, i: int) -> list:
    """Entry d: the n-subsets of an N-element ground set whose union with a
    fixed i-set has exactly i+d elements.  Such a subset takes d elements
    outside the i-set and n-d inside it, so there are C(N-i, d) C(i, n-d) of
    them (hypergeometric); the entries sum to C(N, n)."""
    return [comb(N - i, d) * comb(i, n - d) for d in range(min(n, N - i) + 1)]


def union_model_matrix(N: int, n: int) -> UnionModelMatrix:
    _check_subset_size(N, n)
    denom, rows = comb(N, n), []
    for i in range(N + 1):
        row = [Fraction(0)] * (N + 1)
        for d, c in enumerate(_union_counts(N, n, i)):
            row[i + d] = Fraction(c, denom)
        rows.append(tuple(row))
    return UnionModelMatrix(N=N, n=n, gamma=tuple(rows))


def _union_cardinality_counts(N: int, n: int, L: int) -> list:
    """Entry j: the ordered draws of L n-subsets, of C(N, n)^L, whose union
    has exactly j elements (the union-cardinality chain in integer counts)."""
    _check_subset_size(N, n)
    if L < 0:
        raise BadParams(f"need L >= 0, got L={L}")
    row = [1] + [0] * N
    for _ in range(L):
        nxt = [0] * (N + 1)
        for i, c in enumerate(row):
            if c:
                for d, step in enumerate(_union_counts(N, n, i)):
                    nxt[i + d] += c * step
        row = nxt
    return row


def union_cardinality_distribution(N: int, n: int, L: int):
    """Exact distribution of |union of L uniform n-subsets| as Fractions."""
    denom = comb(N, n) ** L
    return [Fraction(c, denom) for c in _union_cardinality_counts(N, n, L)]


def _check_coverage(N: int, n: int, k: int, L: int) -> None:
    """BadParams unless L packets of n chunks can cover kL of N points."""
    if k * L > N:
        raise BadParams(f"coverage needs kL <= N, got kL={k * L}, N={N}")
    if not (1 <= k <= n <= N) or L < 1:
        raise BadParams(f"bad parameters N={N}, n={n}, k={k}, L={L}")


def p_cover_uniform(N: int, n: int, k: int, L: int) -> ProbabilityEstimate:
    """Pr(|union of L uniform n-subsets| >= kL), exact."""
    _check_coverage(N, n, k, L)
    counts = _union_cardinality_counts(N, n, L)
    return _exact(Fraction(sum(counts[k * L:]), comb(N, n) ** L))


# ---------------------------------------------------------------------------
# cyclic pairwise probability
# ---------------------------------------------------------------------------

def p_pair_cyclic(N: int, n: int, t_max_int: int, L: int) -> ProbabilityEstimate:
    """Pr(max pairwise arc intersection <= t_max_int) for L uniform arcs.

    Exact product form: each placed arc forbids the next starts from its
    first n - t positions, leaving N - L(n - t) free slots distributed as
    gaps.  Zero when a factor is non-positive (no legal placement); one for
    L = 1 or a vacuous threshold t >= n.
    """
    if L < 1 or N < 1 or not (0 < n <= N) or t_max_int < 0:
        raise BadParams(f"bad parameters N={N}, n={n}, t={t_max_int}, L={L}")
    if L == 1 or t_max_int >= n:
        return _exact(Fraction(1))
    span = L * (n - t_max_int)
    num = Fraction(1)
    for i in range(1, L):
        factor = N - span + i
        if factor <= 0:
            return _exact(Fraction(0))
        num *= factor
    return _exact(num / Fraction(N) ** (L - 1))


# ---------------------------------------------------------------------------
# design distinct-block probability (balls into bins)
# ---------------------------------------------------------------------------

def p_pair_design(b: int, L: int) -> ProbabilityEstimate:
    """Pr(L uniform draws from b blocks are all distinct): b!/(b-L)! of the
    b^L ordered draws."""
    if b < 1 or L < 1:
        raise BadParams(f"need b >= 1 and L >= 1, got b={b}, L={L}")
    return _exact(Fraction(perm(b, L), b**L))


# ---------------------------------------------------------------------------
# the support walk, and cyclic coverage
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def _multiset_tables(size: int, r: int) -> tuple:
    """``multisets``' orderings dtype and its read-only tables, built once
    per (size, r)."""
    dtype = np.int64 if size**r < 2**63 else object
    # C(size+t-1, t) multisets of t indices, C(size-v+t-1, t) of them from v up
    below = np.array([[comb(size + t - 1, t) - comb(size - v + t - 1, t) if t else 0
                       for v in range(size + 1)] for t in range(r + 1)], dtype)
    binom = np.array([[comb(a, b) for b in range(r + 1)] for a in range(r + 1)], dtype)
    below.flags.writeable = binom.flags.writeable = False
    return dtype, below, binom


def multisets(size: int, r: int):
    """Multisets of r indices from range(size), lexicographic, in ``BATCH``-row
    slices: a sorted (M, r) int64 index array and each row's number of
    orderings r!/prod(m_i!), which sum to size^r.  The orderings are int64
    when size^r < 2^63 and exact Python ints otherwise.

    Each slice unranks its consecutive ranks one column at a time (the
    combinatorial number system).  ``below[t][v]`` counts the multisets of t
    indices whose least index is below v, so ``searchsorted`` finds a
    column's index v, and the rank then moves to the multisets that fill the
    other t-1 columns from v up.  A row's orderings gain the factor
    C(j, run) when a run of equal indices ends at column j - 1 (C(r, run)
    for the last run); each partial product counts the orderings of a
    prefix, so none exceeds size^r.
    """
    dtype, below, binom = _multiset_tables(size, r)
    total = comb(size + r - 1, r)
    for lo in range(0, total, BATCH):
        m = min(BATCH, total - lo)
        rank = np.arange(lo, lo + m).astype(dtype, copy=False)
        idx = np.empty((m, r), np.int64)
        orders, run = np.ones(m, dtype), np.ones(m, np.int64)
        for j in range(r):
            # rank: below[t][u] plus the rank among the multisets of t
            # indices from u up, u the index of column j - 1 (0 at j = 0)
            t = r - j
            v = np.searchsorted(below[t], rank, "right") - 1
            rank -= below[t][v] - below[t - 1][v]
            idx[:, j] = v
            if j:
                same = v == idx[:, j - 1]
                # C(j, run) where a run ended at column j - 1, else C(j, 0) = 1
                orders *= binom[j, run * ~same]
                run = run * same + 1
        if r:
            orders *= binom[r, run]
        yield idx, orders


def _arc_coverage(starts, N: int, n: int) -> np.ndarray:
    """|union of arcs| for each row of sorted starts: each start covers
    min(gap to the next start, n) points."""
    gaps = np.diff(starts, axis=1)
    wrap = starts[:, 0] + N - starts[:, -1]
    return np.minimum(gaps, n).sum(axis=1) + np.minimum(wrap, n)


def _probability(policy: str, N: int, n: int, L: int, design: BlockDesign | None, cap: int,
                 samples: int, rng, form: str, test,
                 exact_only: bool = False) -> ProbabilityEstimate:
    """Pr(``test``) over L packets placed by ``policy``.  ``test`` maps at
    most ``BATCH`` rows of L packets in ``form``, as ``draw_rows`` gives
    them, to a bool array and must not depend on the packet order.  The
    walk builds the ``packet_table`` in that form once and gathers each
    slice's rows by index; Monte Carlo draws each batch in that form.
    Rows of arc starts reach ``test`` sorted: walked rows are, and each
    drawn batch is sorted once.

    Exact when the walk over multisets of ``packet_table`` rows visits at
    most ``cap`` rows: C(s+r-1, r) for s table rows and r free packets.  All
    L packets are free, except for cyclic placement, whose test must also not
    change when the MUs are rotated: its first packet is pinned to arc 0.
    Else, unless ``exact_only``, ``samples`` draws from ``rng``.
    """
    pinned = int(policy == "cyclic")
    size = comb(N, n) if policy == "uniform" else (N if pinned else design.b)
    free = L - pinned
    if comb(size + free - 1, free) <= cap:
        table = packet_table(policy, N, n, design, form)
        # cyclic rows get the pinned arc 0 as their first column
        pin = np.zeros((BATCH, pinned), np.int64)
        good = sum(int(orders[test(table[np.concatenate((pin[:len(idx)], idx), axis=1)])].sum())
                   for idx, orders in multisets(size, free))
        return ProbabilityEstimate(float(Fraction(good, size**free)), EXACT_ENUMERATION, 0.0)
    if exact_only:
        raise TooLarge(f"walking the {policy} support takes more than {cap} rows")
    gen = _as_generator(rng)
    good = 0
    for lo in range(0, samples, BATCH):
        rows = draw_rows(policy, N, n, L, min(BATCH, samples - lo), gen, design, form)
        if form == "starts":
            rows.sort(axis=1)
        good += int(np.count_nonzero(test(rows)))
    p = good / samples
    return ProbabilityEstimate(p, MONTE_CARLO, sqrt(max(p * (1 - p), 1e-300) / samples))


def p_cover_cyclic(
    N: int,
    n: int,
    k: int,
    L: int,
    cap: int = ENUMERATION_CAP,
    samples: int = MC_DEFAULT_SAMPLES,
    rng=None,
    exact_only: bool = False,
) -> ProbabilityEstimate:
    """Pr(L uniform arcs of length n cover at least kL of N circle points).

    Exact enumeration, up to rotation and order, when the walk fits the cap
    (``_probability``), otherwise Monte Carlo with a normal-approximation
    stderr unless ``exact_only`` is set.
    """
    _check_coverage(N, n, k, L)
    if samples < 1:
        raise BadParams(f"need samples >= 1, got {samples}")
    return _probability("cyclic", N, n, L, None, cap, samples,
                        rng if rng is not None else PlacementRng(0, 0), "starts",
                        lambda starts: _arc_coverage(starts, N, n) >= k * L, exact_only)


# ---------------------------------------------------------------------------
# exact full-throughput probability
# ---------------------------------------------------------------------------

def p_full_throughput_exact(
    policy: str,
    N: int,
    n: int,
    k: int,
    L: int,
    design: BlockDesign | None = None,
    cap: int = ENUMERATION_CAP,
    samples: int = MC_DEFAULT_SAMPLES,
    seed: int = 0,
    exact_only: bool = False,
) -> ProbabilityEstimate:
    """Pr(L* = L) under the policy's drawing distribution.

    All L packets can be served iff every packet subset J covers at least
    k|J| MUs (Hall's theorem for k-fold demands), so each row is tested
    rather than solved: cyclic rows by ``arc_hall_rows`` on their sorted arc
    starts, at any N and L, others by ``hall_rows``.  The condition depends
    neither on the packet order nor, for arcs, on a rotation of the MUs, so
    the whole placement support is walked as weighted multisets when the
    walk fits the cap (``_probability``); otherwise Monte Carlo, unless
    ``exact_only`` is set.
    """
    check_cell(policy, N, n, k)
    if L < 1 or samples < 1:
        raise BadParams(f"need L >= 1 and samples >= 1, got L={L}, samples={samples}")
    if policy == "design":
        check_design(design, N, n)
    if policy == "cyclic":
        form, test = "starts", lambda starts: arc_hall_rows(starts, N, n, k)
    else:  # the Hall table reads MU masks; past its gate hall_rows matches packets
        form, test = ("masks" if hall_table_takes(N, L) else "packets",
                      lambda rows: hall_rows(rows, N, k))
    return _probability(policy, N, n, L, design, cap, samples, PlacementRng(seed, 0), form, test,
                        exact_only)
