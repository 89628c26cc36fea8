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
  over start tuples or Monte Carlo; an upper bound for cyclic placement.
* ``p_full_throughput_exact``  Pr(L* = L) itself, by enumerating the
  placement support with an optimal solver, or Monte Carlo beyond the cap.

Exact enumerations walk multisets of packets weighted by their numbers of
orderings (``multisets``); cyclic start tuples also pin the first start at
0 (``cyclic_support``), and ``cyclic_l_stars`` solves one instance per
rotation class.  ``sample_l_stars`` is the one Monte-Carlo draw-and-solve
loop, shared by ``p_full_throughput_exact`` and ``ensemble.run_ensemble``.

Binomial-heavy quantities are computed in exact rational arithmetic and
converted to float only at the boundary.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import comb, factorial, prod, sqrt

import numpy as np

from .errors import BadParams, ConditionViolated, TooLarge
from .model import Instance
from .placement import (
    BlockDesign,
    PlacementRng,
    _as_generator,
    check_cell,
    check_design,
    cyclic_class_keys,
    draw,
    instance_from_starts,
    uniform_rows,
)
from .solvers import OPTIMAL, SOLVERS, solve_oracle

ENUMERATION_CAP = 10**8
SOLVE_ENUMERATION_CAP = 10**6
MC_DEFAULT_SAMPLES = 10**6
# instances drawn per call on the Monte-Carlo paths; the stream is the same
# for any batching, this only bounds memory
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

    def within(self, other: float, sigmas: float = 3.0, atol: float = 1e-12) -> bool:
        return abs(self.value - other) <= sigmas * self.stderr + atol


def _exact(value: Fraction) -> ProbabilityEstimate:
    return ProbabilityEstimate(value=float(value), method=CLOSED_FORM, stderr=0.0)


def _estimate(good: int, total: int, exact: bool) -> ProbabilityEstimate:
    """``good`` of ``total`` weighted support points, or of ``total`` draws."""
    if exact:
        return ProbabilityEstimate(float(Fraction(good, total)), EXACT_ENUMERATION, 0.0)
    p = good / total
    return ProbabilityEstimate(p, MONTE_CARLO, sqrt(max(p * (1 - p), 1e-300) / total))


# ---------------------------------------------------------------------------
# union-cardinality Markov chain (uniform coverage)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UnionModelMatrix:
    """Transition matrix on the union cardinality of repeated uniform n-subsets.

    Entry (i, j) is the probability that the union of a fixed i-set and a
    fresh uniform n-subset of an N-element ground set has exactly j
    elements; rows are exact rationals summing to one, supported on
    max(i, n) <= j <= min(i+n, N).
    """

    N: int
    n: int
    gamma: tuple  # (N+1) x (N+1) nested tuples of Fraction


def _intersection_count(N: int, m: int, i: int, n: int) -> int:
    """Number of (i-set, n-set) pairs from N elements meeting in exactly m."""
    total = 0
    for j in range(0, min(i, n) - m + 1):
        nu = comb(N, m + j) * comb(N - (m + j), i - (m + j)) * comb(N - (m + j), n - (m + j))
        total += (-1) ** j * nu * comb(m + j, m)
    return total


def union_model_matrix(N: int, n: int) -> UnionModelMatrix:
    if not (1 <= n <= N):
        raise BadParams(f"need 1 <= n <= N, got n={n}, N={N}")
    denom = comb(N, n)
    rows = []
    for i in range(N + 1):
        d = comb(N, i) * denom
        row = [Fraction(0)] * (N + 1)
        for j in range(max(i, n), min(i + n, N) + 1):
            m = i + n - j
            row[j] = Fraction(_intersection_count(N, m, i, n), d)
        rows.append(tuple(row))
    return UnionModelMatrix(N=N, n=n, gamma=tuple(rows))


def union_cardinality_distribution(N: int, n: int, L: int):
    """Exact distribution of |union of L uniform n-subsets| as Fractions."""
    gamma = union_model_matrix(N, n).gamma
    row = [Fraction(0)] * (N + 1)
    row[0] = Fraction(1)
    for _ in range(L):
        nxt = [Fraction(0)] * (N + 1)
        for i, pi in enumerate(row):
            if pi == 0:
                continue
            gi = gamma[i]
            for j in range(max(i, n), min(i + n, N) + 1):
                nxt[j] += pi * gi[j]
        row = nxt
    return row


def p_cover_uniform(N: int, n: int, k: int, L: int) -> ProbabilityEstimate:
    """Pr(|union of L uniform n-subsets| >= kL), exact."""
    if k * L > N:
        raise BadParams(f"coverage needs kL <= N, got kL={k * L}, N={N}")
    if not (1 <= k <= n <= N) or L < 1:
        raise BadParams(f"bad parameters N={N}, n={n}, k={k}, L={L}")
    dist = union_cardinality_distribution(N, n, L)
    return _exact(1 - sum(dist[: k * L], Fraction(0)))


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
    """Pr(L uniform draws from b blocks are all distinct)."""
    if b < 1 or L < 1:
        raise BadParams(f"need b >= 1 and L >= 1, got b={b}, L={L}")
    if L > b:
        return _exact(Fraction(0))
    surjections = sum((-1) ** j * comb(L, j) * (L - j) ** L for j in range(L + 1))
    return _exact(Fraction(comb(b, L) * surjections, b**L))


# ---------------------------------------------------------------------------
# cyclic coverage probability
# ---------------------------------------------------------------------------

def multisets(size: int, r: int) -> tuple:
    """Multisets of r indices from range(size), with their numbers of orderings.

    Returns a sorted (M, r) index array and the weights r!/prod(m_i!) as
    Python ints; the weights sum to size^r.
    """
    rows = list(combinations_with_replacement(range(size), r))
    weights = [factorial(r) // prod(map(factorial, Counter(row).values())) for row in rows]
    return np.array(rows, dtype=np.int64), weights


def cyclic_support(N: int, L: int) -> tuple:
    """Start tuples of L arcs up to rotation and order, with their weights.

    The first start is pinned at 0 (rotation invariance) and the other L-1
    are ``multisets(N, L-1)``.  Returns an (M, L) start array and the
    weights as Python ints; the weights sum to N^(L-1).
    """
    rests, weights = multisets(N, L - 1)
    return np.insert(rests, 0, 0, axis=1), weights


def cyclic_l_stars(starts, N: int, n: int, k: int, solve, cache: dict) -> np.ndarray:
    """L* of every row of a (B, L) array of arc starts, one solve per rotation class.

    ``solve`` maps an Instance to its L* and must give equal values on
    instances that differ by a rotation of the MUs and a reordering of the
    packets (true of ``solve_cyclic`` and of every exact solver).  ``cache``
    maps class keys to L*; it is filled in place and may be shared across
    calls with the same (N, n, k, L).
    """
    keys, first, inverse = np.unique(
        cyclic_class_keys(starts, N), return_index=True, return_inverse=True
    )
    ls = np.empty(len(keys), dtype=np.int64)
    for j, (key, row) in enumerate(zip(keys.tolist(), first.tolist())):
        hit = cache.get(key)
        if hit is None:
            hit = cache[key] = solve(instance_from_starts(N, n, starts[row], k=k))
        ls[j] = hit
    return ls[inverse]


def sample_l_stars(policy: str, N: int, n: int, k: int, L: int, size: int, gen, solve,
                   design: BlockDesign | None = None, cache: dict | None = None) -> np.ndarray:
    """L* of ``size`` instances drawn by ``policy`` from the Generator ``gen``.

    ``solve`` maps an Instance to its L*.  Without a cache every draw is
    solved.  A cache, for a deterministic ``solve``, is filled in place and
    shared by the calls of one (policy, N, n, k, L) cell.  With it, each
    packet tuple is solved once, and cyclic draws take the ``size`` rows of
    arc starts in one call and solve one instance per rotation class
    (``cyclic_l_stars``): L* does not change when the MUs are rotated or
    the packets reordered, and the batched draw yields the same stream as
    per-instance draws.  Uniform draws take the ``size * L`` packets in one
    ``uniform_rows`` call, on the same stream as per-instance draws too.
    Either way the values are those of solving every draw.
    """
    if cache is not None and policy == "cyclic":
        return cyclic_l_stars(gen.integers(0, N, size=(size, L)), N, n, k, solve, cache)
    if policy == "uniform":
        rows = uniform_rows(N, n, size * L, gen).reshape(size, L, n)
        insts = (Instance(N, k, n, packets.tolist(), policy) for packets in rows)
    else:
        insts = [draw(policy, N, n, k, L, gen, design) for _ in range(size)]
    if cache is None:
        return np.array([solve(inst) for inst in insts], dtype=np.int64)
    ls = []
    for inst in insts:
        if inst.packets not in cache:
            cache[inst.packets] = solve(inst)
        ls.append(cache[inst.packets])
    return np.array(ls, dtype=np.int64)


def _arc_coverage(starts, N: int, n: int) -> np.ndarray:
    """|union of arcs| for each row of starts, via sorted gaps: each start
    covers min(gap to the next start, n) points."""
    ss = np.sort(starts, axis=1)
    gaps = np.diff(ss, axis=1)
    wrap = ss[:, 0] + N - ss[:, -1]
    return np.minimum(gaps, n).sum(axis=1) + np.minimum(wrap, n)


def _weighted_hits(weights, hits) -> int:
    return sum(w for w, hit in zip(weights, hits.tolist()) if hit)


def p_cover_cyclic(
    N: int,
    n: int,
    k: int,
    L: int,
    cap: int = ENUMERATION_CAP,
    samples: int = MC_DEFAULT_SAMPLES,
    rng=None,
) -> ProbabilityEstimate:
    """Pr(L uniform arcs of length n cover at least kL of N circle points).

    Exact enumeration over the N^L start tuples when that fits the cap
    (walked up to rotation and order, see ``cyclic_support``), otherwise
    Monte Carlo with a normal-approximation stderr.
    """
    if k * L > N:
        raise BadParams(f"coverage needs kL <= N, got kL={k * L}, N={N}")
    if not (1 <= k <= n <= N) or L < 1:
        raise BadParams(f"bad parameters N={N}, n={n}, k={k}, L={L}")
    if samples < 1:
        raise BadParams(f"need samples >= 1, got {samples}")
    need = k * L
    if N**L <= cap:
        starts, weights = cyclic_support(N, L)
        good = _weighted_hits(weights, _arc_coverage(starts, N, n) >= need)
        return _estimate(good, N ** (L - 1), True)
    gen = _as_generator(rng if rng is not None else PlacementRng(0, 0))
    good = 0
    for lo in range(0, samples, BATCH):
        starts = gen.integers(0, N, size=(min(BATCH, samples - lo), L))
        good += int(np.count_nonzero(_arc_coverage(starts, N, n) >= need))
    return _estimate(good, samples, False)


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
    cap: int = SOLVE_ENUMERATION_CAP,
    samples: int = MC_DEFAULT_SAMPLES,
    seed: int = 0,
    exact_only: bool = False,
) -> ProbabilityEstimate:
    """Pr(L* = L) under the policy's drawing distribution.

    Enumerates the whole placement support when its ordered tuples (N^(L-1)
    start tuples, b^L block or C(N,n)^L n-subset tuples) fit the cap,
    otherwise falls back to Monte Carlo unless ``exact_only`` is set.  L*
    does not depend on the packet order, so every policy walks weighted
    multisets (``multisets``, ``cyclic_support``), solving each one once
    with the policy's optimal solver.
    """
    check_cell(policy, N, n, k)
    if L < 1 or samples < 1:
        raise BadParams(f"need L >= 1 and samples >= 1, got L={L}, samples={samples}")
    if policy == "design":
        check_design(design, N, n)
    solve = SOLVERS[OPTIMAL[policy]]

    def l_star(inst) -> int:
        # outside its guarantee the design solver falls back to the oracle:
        # the question is still well defined there
        try:
            return solve(inst, design, None).l_star
        except ConditionViolated:
            return solve_oracle(inst).l_star

    if policy == "cyclic":
        total = N ** (L - 1)  # first start pinned by rotation invariance
    else:
        # every packet is one of the design blocks or one of the n-subsets
        size = design.b if policy == "design" else comb(N, n)
        total = size**L
    if total <= cap:
        if policy == "cyclic":
            starts, weights = cyclic_support(N, L)
            hits = cyclic_l_stars(starts, N, n, k, l_star, {}) == L
        else:
            support = design.blocks if policy == "design" else tuple(combinations(range(N), n))
            rows, weights = multisets(size, L)
            insts = (Instance(N, k, n, [support[i] for i in row], policy) for row in rows.tolist())
            hits = np.array([l_star(inst) == L for inst in insts])
        return _estimate(_weighted_hits(weights, hits), total, True)

    if exact_only:
        raise TooLarge(f"support of {policy} policy exceeds the cap {cap}")

    gen = PlacementRng(seed, 0).generator()
    cache = {} if policy == "cyclic" else None
    good = 0
    for lo in range(0, samples, BATCH):
        ls = sample_l_stars(policy, N, n, k, L, min(BATCH, samples - lo), gen, l_star,
                            design, cache)
        good += int(np.count_nonzero(ls == L))
    return _estimate(good, samples, False)
