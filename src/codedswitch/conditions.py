"""Full-throughput condition checkers.

A full-throughput read cycle serves all L requested packets.  Three
checks of increasing precision:

* coverage: |union of all packet sets| >= k*L, necessary;
* pairwise: max_{i!=j} |S_i intersect S_j| <= 2(n-k)/(L-1), sufficient;
* extended Hall: |union over J| >= k*|J| for every packet subset J,
  necessary and sufficient (L* = L); decided by matching k copies of every
  packet to distinct MUs (``hall_full_throughput``).

For many rows at once, one table holds the MU-mask unions of all packet
subsets of each row; a subset J is short when its union has fewer than k|J|
MUs.  ``hall_rows`` (non-cyclic Pr(L* = L) in ``analysis``) and
``hall_l_stars`` (the non-cyclic optimal cells of ``ensemble``) read it,
from packet rows or the (B, L) ``mu_masks`` of their packets, which
``placement.draw_rows`` draws in its ``masks`` form and ``analysis``
gathers by index.  Arcs need no table: ``arc_hall_rows`` decides the
condition from sorted arc starts alone, as only windows of cyclically
consecutive arcs can be short.

The pairwise bound is kept as an exact rational; integer set-cardinality
comparisons use its floor.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import chain, combinations
from math import floor

import numpy as np

from .errors import DegenerateL, TooLarge
from .model import Instance, mu_bits


@dataclass(frozen=True)
class IntersectionStats:
    """Pairwise intersections of an instance's MU sets.

    ``max_pairwise`` is the largest |S_i intersect S_j| over i != j (0 for
    fewer than two packets).  ``pairwise[i][j] = |S_i intersect S_j|``
    (diagonal = n) is built on first use.  ``phi(s, members)`` is the sum of
    |intersection over I| for all s-subsets I of ``members``, the quantity
    driving the inclusion-exclusion form of the Hall condition.
    """

    max_pairwise: int
    n: int
    _masks: tuple

    @cached_property
    def pairwise(self) -> np.ndarray:
        masks = self._masks
        pair = np.array([[(a & b).bit_count() for b in masks] for a in masks],
                        dtype=np.int64).reshape(len(masks), len(masks))
        np.fill_diagonal(pair, self.n)
        return pair

    def phi(self, s: int, members=None) -> int:
        if members is None:
            members = range(len(self._masks))
        members = list(members)
        total = 0
        for idx in combinations(members, s):
            inter = self._masks[idx[0]]
            for i in idx[1:]:
                inter &= self._masks[i]
            total += inter.bit_count()
        return total


def intersection_stats(inst: Instance) -> IntersectionStats:
    masks = tuple(map(mu_bits, inst.packets))
    mx = max(((a & b).bit_count() for a, b in combinations(masks, 2)), default=0)
    return IntersectionStats(max_pairwise=mx, n=inst.n, _masks=masks)


def coverage_holds(inst: Instance) -> bool:
    """Necessary condition: the packets cover at least k*L distinct MUs."""
    return mu_bits(chain.from_iterable(inst.packets)).bit_count() >= inst.k * inst.L


def t_max(n: int, k: int, L: int) -> Fraction:
    """Largest tolerable pairwise intersection, 2(n-k)/(L-1), exact.

    Integer cardinality comparisons should use floor(t_max(...)).  A single
    packet imposes no pairwise constraint, so L < 2 is rejected.
    """
    if L < 2:
        raise DegenerateL(f"pairwise bound needs L >= 2, got L={L}")
    return Fraction(2 * (n - k), L - 1)


def pairwise_holds(inst: Instance) -> bool:
    """Sufficient condition: all pairwise intersections within floor(t_max)."""
    if inst.L < 2:
        raise DegenerateL(f"pairwise bound needs L >= 2, got L={inst.L}")
    return intersection_stats(inst).max_pairwise <= floor(t_max(inst.n, inst.k, inst.L))


def max_matching(demands) -> dict:
    """Maximum matching of demands (MU index sets) to MUs of capacity one.

    A depth-first augmenting-path search per demand in index order, trying
    MUs in the demand's order, on an explicit stack (no recursion limit).
    Returns {mu: index of the demand matched to it}.
    """
    owner: dict = {}
    for root in range(len(demands)):
        banned: set = set()
        # the path: each demand, its untried MUs, the MU it yields to its parent
        path = [(root, iter(demands[root]), None)]
        while path:
            m = next((m for m in path[-1][1] if m not in banned), None)
            if m is None:  # dead end: the parent tries its next MU
                path.pop()
            elif m in owner:
                banned.add(m)
                path.append((owner[m], iter(demands[owner[m]]), m))
            else:  # m is free: shift every MU on the path one demand up
                owner[m] = path[-1][0]
                for (i, _, _), (_, _, mu) in zip(path, path[1:]):
                    owner[mu] = i
                break
    return owner


def hall_full_throughput(inst: Instance) -> bool:
    """Exact full-throughput test: every packet subset J covers >= k|J| MUs.

    By Hall's theorem for k-fold demands this holds iff k copies of every
    packet can be matched to distinct MUs, which ``max_matching`` decides in
    polynomial time.
    """
    demands = [p for p in inst.packets for _ in range(inst.k)]
    return len(max_matching(demands)) == len(demands)


def arc_hall_rows(starts: np.ndarray, N: int, n: int, k: int) -> np.ndarray:
    """``hall_full_throughput`` of each row of a (B, L) array of sorted arc
    starts (arcs of n MUs on N), at any N and L.

    A short packet set's union splits into circular runs of MUs, and one
    run C is short.  If C is the whole circle, L*k > N.  Else the arcs
    inside C are cyclically consecutive and their union is C, exactly their
    start span plus n.  So a row passes iff L*k <= N and every window of
    cyclically consecutive arcs i..j covers them: with t_i = s_i - i*k,
    t_j - t_i >= k - n for i < j, and t_i - t_j <= N - (L+1)*k + n for
    j < i, the window that wraps from arc i past MU 0 to arc j.  One step
    per arc, on the running max and min of t before it.
    """
    B, L = starts.shape
    if L * k > N:
        return np.zeros(B, dtype=bool)
    t = np.ascontiguousarray((starts - k * np.arange(L)).T)
    ok = np.ones(B, dtype=bool)
    hi, lo = t[0].copy(), t[0].copy()
    for tj in t[1:]:
        ok &= (tj - hi >= k - n) & (tj - lo <= N - (L + 1) * k + n)
        np.maximum(hi, tj, out=hi)
        np.minimum(lo, tj, out=lo)
    return ok


# Unions in one slice of the Hall table: rows x 2^L packet subsets
_SLICE_ENTRIES = 2**16


def hall_table_takes(N: int, L: int) -> bool:
    """Whether the Hall table takes rows of L packets on N MUs: the masks
    are uint64, and a slice holds one row's 2^L unions at least."""
    return N <= MASK_MAX_N and 2**L <= _SLICE_ENTRIES


def hall_rows(rows: np.ndarray, N: int, k: int) -> np.ndarray:
    """``hall_full_throughput`` of each row of a (B, L, n) packet array, or of
    a (B, L) array of their ``mu_masks``: a row passes iff none of its packet
    subsets is short in the Hall table.  Past ``hall_table_takes`` packet
    rows are matched one by one."""
    if rows.ndim == 3 and not hall_table_takes(N, rows.shape[1]):
        _, _, n = rows.shape
        return np.array([hall_full_throughput(Instance(N, k, n, row)) for row in rows.tolist()],
                        dtype=bool)
    return np.concatenate([~short.any(axis=0) for short in _short_subsets(_row_masks(rows, N), k)])


def hall_l_stars(rows: np.ndarray, N: int, k: int) -> np.ndarray:
    """``solvers.solve_oracle``'s L* of each row of a (B, L, n) packet array,
    or of a (B, L) array of their ``mu_masks``, as an int64 array, where
    ``hall_table_takes(N, L)``.

    By Hall's theorem for k-fold demands, a packet set J can be served iff
    none of its subsets is short.  So the short marks are closed upward, one
    pass per packet, and L* is the size of the largest subset left unmarked.
    """
    masks = _row_masks(rows, N)
    L = masks.shape[1]
    sizes = np.bitwise_count(np.arange(1 << L, dtype=np.uint16))[:, None]  # uint8
    l_stars = []
    for short in _short_subsets(masks, k):
        for i in range(L):
            halves = short.reshape(-1, 2, short.shape[1] << i)
            halves[:, 1] |= halves[:, 0]
        l_stars.append((sizes * ~short).max(axis=0))
    return np.concatenate(l_stars).astype(np.int64)


# MU masks are uint64: they hold MUs 0..63, so they take N <= MASK_MAX_N
MASK_MAX_N = 64


def mu_masks(packets: np.ndarray) -> np.ndarray:
    """The uint64 MU bit mask of each packet of an (..., n) packet array on
    at most ``MASK_MAX_N`` MUs, reducing the last axis: an (s, n) packet
    table gives (s,) masks, which a walk gathers by index, and a (B, L, n)
    array (B, L).  One OR per column: ``np.bitwise_or.reduce`` over the
    short last axis took 8x as long at (2500, 6, 6)."""
    masks = np.zeros(packets.shape[:-1], dtype=np.uint64)
    for j in range(packets.shape[-1]):
        masks |= np.uint64(1) << packets[..., j].astype(np.uint64)
    return masks


def _row_masks(rows: np.ndarray, N: int) -> np.ndarray:
    """The (B, L) masks of a (B, L, n) packet array, or the (B, L) masks
    given; TooLarge unless ``hall_table_takes(N, L)``."""
    L = rows.shape[1]
    if not hall_table_takes(N, L):
        raise TooLarge(f"the Hall table takes N <= {MASK_MAX_N}, 2^L <= {_SLICE_ENTRIES}; "
                       f"got N={N}, L={L}")
    return mu_masks(rows) if rows.ndim == 3 else rows


def _short_subsets(masks: np.ndarray, k: int):
    """The Hall table of a (B, L) array of packet masks, in slices of at most
    ``_SLICE_ENTRIES`` unions (one empty slice if B = 0): short[s, r] says
    that subset s (of the packets i whose bit i is set in s) of the slice's
    row r covers fewer than k|s| MUs."""
    B, L = masks.shape
    need = k * np.bitwise_count(np.arange(1 << L, dtype=np.uint16)).astype(np.int16)[:, None]
    step = _SLICE_ENTRIES >> L
    for lo in range(0, max(B, 1), step):
        part = masks[lo:lo + step].T
        union = np.zeros((1 << L, part.shape[1]), dtype=np.uint64)
        for i in range(L):  # the subsets holding packet i: those below, each with packet i
            np.bitwise_or(union[:1 << i], part[i], out=union[1 << i:2 << i])
        yield np.bitwise_count(union) < need
