"""Read algorithms: given an instance, serve as many packets as possible.

An optimal read algorithm returns the maximum number of packets servable
with pairwise disjoint k-subsets.  The general problem is NP-hard once
3 <= k <= n (see ``reduce_lsp`` for an executable reduction from l-set
packing), so this module provides:

* ``solve_oracle``   exhaustive branch-and-bound, exact on any instance
                     small enough to enumerate; the reference for tests.
                     ``conditions.hall_l_stars`` gives the same L* for a
                     whole (B, L, n) array of packet rows (Hall's theorem);
* ``solve_greedy``   the natural baseline, optimal only by luck;
                     ``greedy_rows`` replays it on a whole batch of rows,
                     by bit operations on their MU masks or by a table of
                     used MUs for packet rows past 64 MUs;
* ``solve_matching_k1`` / ``solve_matching_k2n2``
                     polynomial special cases via bipartite matching and
                     general-graph (blossom) matching;
* ``solve_cyclic``   optimal for cyclic placements via anchored sweeps,
                     assigning each served packet k cyclically consecutive
                     MUs so the unread chunks form one cyclic erasure burst.
                     ``cyclic_rows`` gives its L* for a (B, L) array of arc
                     starts, at any N and L;
* ``solve_design``   optimal for design placements via exclusive-MU pools
                     and a balanced orientation splitting shared MUs.

All solvers are pure functions of their inputs and deterministic (greedy
given its generator); the documented tie-breaking rules make outputs
reproducible.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from itertools import combinations
from math import floor

import numpy as np

from .conditions import intersection_stats, max_matching, t_max
from .errors import (
    BadParams,
    BlockNotInDesign,
    ConditionViolated,
    TooLarge,
    UnequalCardinality,
    WrongParams,
)
from .model import Instance, Solution, arc_start, empty_solution, mu_bits
from .placement import BlockDesign, _as_generator

DEFAULT_ORACLE_CAP = 24


# ---------------------------------------------------------------------------
# exhaustive oracle
# ---------------------------------------------------------------------------

def solve_oracle(inst: Instance, cap: int = DEFAULT_ORACLE_CAP) -> Solution:
    """Provably maximal solution by branch-and-bound over packets.

    Each packet is either skipped or assigned one k-subset of its still
    free MUs; subproblem values are memoised on (packet index, used MUs
    restricted to the future packets' span).  Search order is fixed for
    reproducibility: packets by index, k-subsets in lexicographic order,
    the skip branch last.  Refuses instances with L*n > cap.
    """
    L, n, k = inst.L, inst.n, inst.k
    if L * n > cap:
        raise TooLarge(f"L*n = {L * n} exceeds the oracle cap {cap}")
    if L == 0:
        return empty_solution(inst)

    # per packet: list of (mask, mus) in lexicographic order
    options = [[(mu_bits(sub), sub) for sub in combinations(p, k)] for p in inst.packets]
    future = [0] * (L + 1)
    for i in range(L - 1, -1, -1):
        future[i] = future[i + 1] | mu_bits(inst.packets[i])

    memo: dict = {}

    def best(idx: int, used: int) -> int:
        if idx == L:
            return 0
        used &= future[idx]
        key = (idx, used)
        hit = memo.get(key)
        if hit is not None:
            return hit
        rem = L - idx
        b = 0
        for om, _ in options[idx]:
            if om & used:
                continue
            v = 1 + best(idx + 1, used | om)
            if v > b:
                b = v
                if b == rem:
                    break
        if b < rem:
            v = best(idx + 1, used)
            if v > b:
                b = v
        memo[key] = b
        return b

    best(0, 0)

    assignments: list = [None] * L
    used = 0
    for idx in range(L):
        target = best(idx, used)
        chosen = None
        for om, mus in options[idx]:
            if om & used:
                continue
            if 1 + best(idx + 1, used | om) == target:
                chosen = (om, mus)
                break
        if chosen is not None:
            assignments[idx] = chosen[1]
            used |= chosen[0]
    # ``best`` refers to itself: unbind it so that its memo is freed on
    # return, not when the cyclic garbage collector next runs
    best = None
    return Solution(assignments=tuple(assignments))


# Entries of one slice of ``greedy_rows``' table of used MUs: rows x N
_SLICE_ENTRIES = 2**16


# ---------------------------------------------------------------------------
# greedy baseline
# ---------------------------------------------------------------------------

def solve_greedy(inst: Instance, rng) -> Solution:
    """Visit packets in the order of one ``permutation(L)`` call of the
    generator; serve any packet that still has k free MUs, taking its first
    k free MUs (the k lowest-index ones, as validated packets are sorted).
    Valid but not optimal."""
    used: set = set()
    assignments: list = [None] * inst.L
    for i in _as_generator(rng).permutation(inst.L).tolist():
        free = [m for m in inst.packets[i] if m not in used]
        if len(free) >= inst.k:
            assignments[i] = tuple(free[:inst.k])
            used.update(assignments[i])
    return Solution(assignments=tuple(assignments))


def greedy_rows(rows: np.ndarray, N: int, k: int, gen: np.random.Generator) -> np.ndarray:
    """``solve_greedy`` on every row of a (B, L) array of uint64 MU masks
    (N <= 64) or of a (B, L, n) packet array: a (B, L) bool array marking
    the packets served.

    Row b visits its packets in the order of the b-th of B successive
    ``gen.permutation(L)`` calls, drawn by one ``gen.permuted`` call that
    makes the same draws and leaves ``gen`` in the same state.  Each visit
    is one numpy step over all rows.  On masks, a visited packet's free MUs
    are ``mask & ~used``; it is served if at least k bits are free, and
    takes the k lowest (a sorted packet's first k free MUs), which clearing
    the lowest set bit k times (``x & (x - 1)``) leaves out.  Packet rows
    take each packet's first k free MUs in its listed order, from a
    (rows, N) bool table of used MUs, in slices of at most
    ``_SLICE_ENTRIES`` entries; they alone serve N > 64.
    """
    B, L = rows.shape[:2]
    orders = gen.permuted(np.tile(np.arange(L), (B, 1)), axis=1)
    served = np.empty((B, L), dtype=bool)
    if rows.ndim == 2:
        # column c: the c-th packet each row visits
        visits = np.ascontiguousarray(np.take_along_axis(rows, orders, axis=1).T)
        got = np.empty((L, B), dtype=bool)
        used, one = np.zeros(B, dtype=np.uint64), np.uint64(1)
        for mask, ok in zip(visits, got):
            free = mask & ~used
            np.greater_equal(np.bitwise_count(free), k, out=ok)
            rest = free
            for _ in range(k):
                rest = rest & (rest - one)
            used |= (free ^ rest) * ok
        np.put_along_axis(served, orders, got.T, axis=1)
        return served
    step = max(1, _SLICE_ENTRIES // N)
    for lo in range(0, B, step):
        part, part_served = rows[lo:lo + step], served[lo:lo + step]
        idx = np.arange(len(part))
        used = np.zeros((len(part), N), dtype=bool)
        for visit in orders[lo:lo + step].T:
            mus = part[idx, visit]
            free = ~used[idx[:, None], mus]
            count = np.cumsum(free, axis=1)
            ok = count[:, -1] >= k
            used[idx[:, None], mus] = ~free | (free & (count <= k) & ok[:, None])
            part_served[idx, visit] = ok
    return served


# ---------------------------------------------------------------------------
# matching special cases
# ---------------------------------------------------------------------------

def solve_matching_k1(inst: Instance) -> Solution:
    """k=1: a maximum bipartite packet/MU matching is an optimal read."""
    if inst.k != 1:
        raise WrongParams(f"matching_k1 requires k=1, got k={inst.k}")
    assignments: list = [None] * inst.L
    for m, i in max_matching(inst.packets).items():
        assignments[i] = (m,)
    return Solution(assignments=tuple(assignments))


def _blossom_matching(n: int, adj: list) -> list:
    """Maximum matching on a general graph (blossom contraction, O(V^3)).

    ``adj[v]`` lists neighbours in a fixed order; returns match[v] = partner
    or -1.  Classic base/parent arrays formulation.
    """
    match = [-1] * n
    parent = [-1] * n
    base = list(range(n))
    in_queue = [False] * n
    in_blossom = [False] * n

    def lca(a: int, b: int) -> int:
        on_path = [False] * n
        x = a
        while True:
            x = base[x]
            on_path[x] = True
            if match[x] == -1:
                break
            x = parent[match[x]]
        y = b
        while True:
            y = base[y]
            if on_path[y]:
                return y
            y = parent[match[y]]

    def mark_path(v: int, b: int, child: int) -> None:
        while base[v] != b:
            in_blossom[base[v]] = True
            in_blossom[base[match[v]]] = True
            parent[v] = child
            child = match[v]
            v = parent[match[v]]

    def find_augmenting(root: int) -> bool:
        for i in range(n):
            parent[i] = -1
            base[i] = i
            in_queue[i] = False
        in_queue[root] = True
        q = deque([root])
        while q:
            v = q.popleft()
            for to in adj[v]:
                if base[v] == base[to] or match[v] == to:
                    continue
                if to == root or (match[to] != -1 and parent[match[to]] != -1):
                    cur = lca(v, to)
                    for i in range(n):
                        in_blossom[i] = False
                    mark_path(v, cur, to)
                    mark_path(to, cur, v)
                    for i in range(n):
                        if in_blossom[base[i]]:
                            base[i] = cur
                            if not in_queue[i]:
                                in_queue[i] = True
                                q.append(i)
                elif parent[to] == -1:
                    parent[to] = v
                    if match[to] == -1:
                        u = to
                        while u != -1:
                            pv = parent[u]
                            nxt = match[pv]
                            match[u] = pv
                            match[pv] = u
                            u = nxt
                        return True
                    else:
                        if not in_queue[match[to]]:
                            in_queue[match[to]] = True
                            q.append(match[to])
        return False

    for v in range(n):
        if match[v] == -1:
            find_augmenting(v)
    return match


def solve_matching_k2n2(inst: Instance) -> Solution:
    """k=n=2: MUs become graph vertices, each packet an edge between its two
    MUs; a maximum matching picks the largest set of disjoint pairs."""
    if not (inst.k == 2 and inst.n == 2):
        raise WrongParams(f"matching_k2n2 requires k=n=2, got k={inst.k}, n={inst.n}")
    pair_packets: dict = {}
    for i, p in enumerate(inst.packets):
        pair_packets.setdefault(p, []).append(i)
    neighbours: list = [[] for _ in range(inst.N)]
    for (a, b) in pair_packets:
        neighbours[a].append(b)
        neighbours[b].append(a)
    for lst in neighbours:
        lst.sort()
    match = _blossom_matching(inst.N, neighbours)

    assignments: list = [None] * inst.L
    for a in range(inst.N):
        b = match[a]
        if b > a:
            i = pair_packets[(a, b)][0]  # lowest-index packet on this pair
            assignments[i] = (a, b)
    return Solution(assignments=tuple(assignments))


# ---------------------------------------------------------------------------
# cyclic placement: anchored sweep
# ---------------------------------------------------------------------------

def cyclic_starts(inst: Instance) -> list:
    """Arc start of every packet; WrongParams if any packet is not an arc."""
    if inst.n >= inst.N:
        raise WrongParams(f"cyclic solver needs n < N, got n={inst.n}, N={inst.N}")
    starts = [arc_start(p, inst.n, inst.N) for p in inst.packets]
    if None in starts:
        i = starts.index(None)
        raise WrongParams(f"packet {i} = {inst.packets[i]} is not a cyclic arc")
    return list(map(int, starts))


def _sweeps(starts: list) -> dict:
    """Distinct arc start -> packets by start clockwise from it, ties broken
    by index, keyed in order of first appearance.  Each order is the one
    (start, index) sort rotated to begin at that start."""
    order = sorted(range(len(starts)), key=starts.__getitem__)  # stable: ties by index
    sorted_starts = [starts[i] for i in order]
    positions = {s0: bisect_left(sorted_starts, s0) for s0 in starts}
    return {s0: order[pos:] + order[:pos] for s0, pos in positions.items()}


def cyclic_anchor_order(inst: Instance, anchor: int) -> list:
    """Packets sorted by arc start clockwise from the anchor's start,
    ties broken by packet index."""
    starts = cyclic_starts(inst)
    return _sweeps(starts)[starts[anchor]]


def solve_cyclic(inst: Instance) -> Solution:
    """Optimal read for cyclic placements.

    For every anchor packet, sweep the packets in clockwise start order and
    serve each packet whose arc still contains k consecutive free MUs,
    taking the earliest such run (clockwise within the arc).  The best
    anchor wins; the first anchor reaching the maximum is kept.  Anchors
    with equal starts sweep identically, so each distinct start is swept
    once, in order of first appearance.  The used MUs are one int bit mask,
    so a packet costs at most n-k+1 ANDs and the sweeps O(L^2 (n-k+1)) mask
    operations after one sort.  ``cyclic_starts`` gives the starts, or
    WrongParams for n >= N and then for the first packet that is no arc.
    Each arc's k-run masks are built once per call; a sweep keeps each
    served packet's run offset, and only the winning sweep's runs become
    MU tuples.

    Serving consecutive runs means the n-k unread chunk positions of every
    served packet form a single cyclic burst, which is what lets cheap
    binary cyclic codes replace MDS codes on the write path.
    """
    # Python ints: numpy ints would overflow the masks past 63 MUs
    N, n, k, L = int(inst.N), int(inst.n), int(inst.k), inst.L
    starts = cyclic_starts(inst)
    full, run = (1 << N) - 1, (1 << k) - 1
    # a run at t < 2N wraps by folding its bits past MU N - 1 onto MU 0
    windows = [[(run << t | run << t >> N) & full for t in range(s, s + n - k + 1)]
               for s in starts]

    best: dict = {}
    for order in _sweeps(starts).values():
        used = 0
        taken: dict = {}
        for i in order:
            for offset, window in enumerate(windows[i]):
                if not used & window:
                    used |= window
                    taken[i] = offset
                    break
        if len(taken) > len(best):
            best = taken
            if len(best) == L:
                break

    return Solution(assignments=tuple(
        None if i not in best else sorted((starts[i] + best[i] + r) % N for r in range(k))
        for i in range(L)))


# Entries of one block of ``cyclic_rows``' arcs: L arcs x anchors x rows.
# One call, best of 7 on a 2-core Xeon, at B = 2500, N = 12, n = 6, k = 3
# and L = 6 / 12 / 24 took 0.18 / 0.60 / 3.4 ms at 2^16, 0.14 / 0.37 / 1.3
# at 2^18, 0.14 / 0.29 / 0.95 at 2^20 and 0.15 / 0.30 / 0.81 at 2^22.  At
# B = 4096, N = 1000, n = 20, k = 5, L = 100 it took 57 ms and peaked at
# 5.9 MB under tracemalloc at 2^20; at 2^22, 42 ms, but one block of its
# arcs alone takes 8 MB.
_ARC_BLOCK_ENTRIES = 2**20


def cyclic_rows(starts, N: int, n: int, k: int) -> np.ndarray:
    """``solve_cyclic``'s L* of each row of a (B, L) array of arc starts
    (``draw_rows``' ``starts`` form), as an int64 array.

    Each sorted start in turn anchors a sweep of all L arcs clockwise from
    it.  Measured from the anchor, an arc at r is served at the frontier
    max(r, f) if k MUs from there stay inside the arc and below N, and the
    frontier moves past them, so every count is a feasible read.  A start
    repeated later in the sweep sits at N and is never served; the anchor
    at its first copy serves it.  L* is the best count over the anchors:
    checked against ``solve_oracle`` on the acceptance gate's start tuples,
    against ``hall_l_stars`` on every multiset of starts with N <= 13,
    L <= 6, and, as L* = L iff ``conditions.arc_hall_rows``, on every
    multiset of starts at N = 65, 66, L <= 3 and on random rows at
    L = 17..24.

    The anchors sweep together: step j moves the sweep of every anchor in
    every row one arc on, so a block of anchors takes L numpy steps over its
    (anchor, row) pairs, and a block holds at most ``_ARC_BLOCK_ENTRIES``
    arcs.  The frontier update has no masked copy: a run starts at or past
    the frontier, so the new frontier is the larger of the old one and the
    run's end, zeroed where the arc is not served.
    """
    # every position lies in [0, 2N + n): the smallest unsigned type holds it
    s = np.sort(starts, axis=1).T.astype(np.min_scalar_type(2 * N + n), order="C")
    L, B = s.shape
    best = np.zeros(B, dtype=np.int64)
    if L == 0 or B == 0:
        return best
    doubled = np.concatenate([s, s + N])
    step = max(1, _ARC_BLOCK_ENTRIES // (L * B))
    for lo in range(0, L, step):
        anchors = s[lo:lo + step]
        # rel[j, a*B + b]: the j-th arc clockwise from anchor lo + a in row b
        rel = doubled[np.add.outer(np.arange(L), np.arange(lo, lo + len(anchors)))]
        rel -= anchors
        rel = rel.reshape(L, -1)
        frontier = np.zeros(rel.shape[1], dtype=s.dtype)
        # ufuncs of two arrays take the SIMD loops: against a scalar 8x slower
        last_start = np.full_like(frontier, N - n)
        stop, served = np.empty_like(frontier), np.empty_like(frontier, dtype=np.uint8)
        count = np.zeros_like(frontier, dtype=np.min_scalar_type(L))
        for pos in rel:
            np.minimum(pos, last_start, out=stop)
            stop += n - k  # the last position a run may take
            np.maximum(pos, frontier, out=pos)
            # 0 or 1 as uint8: adding and multiplying bool casts it first
            np.less_equal(pos, stop, out=served.view(bool))
            count += served
            pos += k
            pos *= served
            np.maximum(frontier, pos, out=frontier)
        np.maximum(best, count.reshape(len(anchors), B).max(axis=0), out=best)
    return best


# ---------------------------------------------------------------------------
# design placement: exclusive pools plus balanced splits
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OrientedBalanceGraph:
    """Orientation of an undirected multigraph with |in - out| <= 1 per vertex."""

    vertices: tuple
    directed_edges: tuple  # one (u, v) per input edge, in input order


def balanced_orientation(edges) -> OrientedBalanceGraph:
    """Orient edges so every vertex's in/out degrees differ by at most one.

    Odd-degree vertices are paired through an auxiliary vertex, making all
    degrees even; an Euler circuit of each component then orients the real
    edges along the walk.  Linear in the number of edges.
    """
    edges = [tuple(e) for e in edges]
    for (u, v) in edges:
        if u == v:
            raise BadParams("self-loops cannot be balanced")
    n_real = len(edges)
    adj: dict = {}
    degree: dict = {}
    all_edges = list(edges)

    def add(u, v, eid):
        adj.setdefault(u, []).append((eid, v))
        adj.setdefault(v, []).append((eid, u))
        degree[u] = degree.get(u, 0) + 1
        degree[v] = degree.get(v, 0) + 1

    for eid, (u, v) in enumerate(edges):
        add(u, v, eid)
    aux = ("aux",)  # cannot collide with caller vertex labels of other types
    odd = sorted(v for v in degree if degree[v] % 2 == 1 and v != aux)
    for v in odd:
        eid = len(all_edges)
        all_edges.append((aux, v))
        add(aux, v, eid)

    for v in adj:
        adj[v].sort(key=lambda t: (t[1] == aux, str(t[1]), t[0]))

    used = [False] * len(all_edges)
    ptr = {v: 0 for v in adj}
    oriented: list = [None] * n_real

    real_vertices = sorted(v for v in adj if v != aux)
    for seed in real_vertices:
        if ptr[seed] >= len(adj[seed]):
            continue
        stack = [(seed, -1)]
        popped = []
        while stack:
            v, ein = stack[-1]
            lst = adj[v]
            i = ptr[v]
            while i < len(lst) and used[lst[i][0]]:
                i += 1
            ptr[v] = i
            if i == len(lst):
                popped.append((v, ein))
                stack.pop()
            else:
                eid, w = lst[i]
                used[eid] = True
                stack.append((w, eid))
        walk = popped[::-1]
        for (x, _), (y, ey) in zip(walk, walk[1:]):
            if ey < n_real:
                oriented[ey] = (x, y)

    assert all(o is not None for o in oriented)
    return OrientedBalanceGraph(
        vertices=tuple(real_vertices), directed_edges=tuple(oriented)
    )


def solve_design(inst: Instance, design: BlockDesign) -> Solution:
    """Optimal read for design placements.

    Works on the packets stored in distinct blocks (first occurrence by
    packet index; duplicates stay unserved, which is optimal when k > n/2
    since a block cannot serve two packets; with duplicates and k <= n/2
    ``solve_oracle`` at its default cap is used instead).  Each packet
    receives all MUs exclusive to it, half of every evenly shared pair
    pool, and a floor/ceil split of every odd pool according to a balanced
    orientation; the resulting pool is truncated to the k lowest indices.

    Shared pools are split deterministically: for packets i < j, i takes a
    prefix of the sorted pool and j the complementary suffix.
    """
    block_set = design.block_set()
    for i, p in enumerate(inst.packets):
        if p not in block_set:
            raise BlockNotInDesign(f"packet {i} = {p} is not a design block")

    first: dict = {}
    sub: list = []
    duplicates = False
    for i, p in enumerate(inst.packets):
        if p in first:
            duplicates = True
        else:
            first[p] = i
            sub.append(i)

    if duplicates and 2 * inst.k <= inst.n:
        return solve_oracle(inst)

    Lp = len(sub)
    assignments: list = [None] * inst.L
    if Lp == 0:
        return Solution(assignments=tuple(assignments))

    if Lp >= 2:
        bound = floor(t_max(inst.n, inst.k, Lp))
        distinct = inst
        if duplicates:
            distinct = Instance(inst.N, inst.k, inst.n, [inst.packets[i] for i in sub])
        worst = intersection_stats(distinct).max_pairwise
        if worst > bound:
            raise ConditionViolated(
                f"max pairwise intersection {worst} exceeds floor(t_max) = {bound} "
                f"for {Lp} distinct blocks"
            )

    owners: dict = {}
    for i in sub:
        for m in inst.packets[i]:
            owners.setdefault(m, []).append(i)

    pools: dict = {i: [] for i in sub}
    shared: dict = {}
    for m in sorted(owners):
        os = owners[m]
        if len(os) == 1:
            pools[os[0]].append(m)
        elif len(os) == 2:
            shared.setdefault((os[0], os[1]), []).append(m)
        # MUs shared by three or more packets are never needed

    pairs = sorted(shared)
    odd_pairs = [pr for pr in pairs if len(shared[pr]) % 2 == 1]
    orientation = balanced_orientation(odd_pairs)
    towards: dict = {
        pr: head for pr, (_, head) in zip(odd_pairs, orientation.directed_edges)
    }

    for (i, j) in pairs:
        mus = shared[(i, j)]  # already sorted ascending
        h = len(mus) // 2
        if len(mus) % 2 == 0:
            cut = h
        else:
            cut = h + 1 if towards[(i, j)] == i else h
        pools[i].extend(mus[:cut])
        pools[j].extend(mus[cut:])

    for i in sub:
        pool = sorted(pools[i])
        if len(pool) >= inst.k:
            assignments[i] = tuple(pool[: inst.k])
    return Solution(assignments=tuple(assignments))


# ---------------------------------------------------------------------------
# l-set packing reduction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReductionOutput:
    """Read instance equivalent to an l-set-packing question.

    The packing instance has M pairwise disjoint sets iff the read
    instance can serve at least ``threshold`` = 2M packets with k = l and
    n = l + 1.  Elements are re-indexed: original element e becomes
    ``element_index[e]``, its mirror ``element_index[e] + mirror_offset``,
    and ``theta_index`` is the one fresh element shared by every packet.
    """

    instance: Instance
    threshold: int
    element_index: dict
    mirror_offset: int
    theta_index: int


def reduce_lsp(sets, M: int) -> ReductionOutput:
    """Transform l-set packing (l >= 3) into an equivalent read instance.

    Every input set A over elements {a_j} yields two packets: A plus a
    fresh element theta, and the mirror copy {b_j : a_j in A} plus theta.
    Serving 2M packets with k = l forces M disjoint original sets.
    """
    sets = [tuple(sorted(s)) for s in sets]
    if not sets:
        raise BadParams("need at least one set")
    l = len(sets[0])
    for s in sets:
        if len(set(s)) != len(s) or len(s) != l:
            raise UnequalCardinality(f"all sets must have {l} distinct elements")
    if l < 3:
        raise BadParams(f"reduction applies to set size >= 3, got {l}")
    if M < 1:
        raise BadParams(f"need M >= 1, got {M}")

    elements = sorted({e for s in sets for e in s})
    index = {e: i for i, e in enumerate(elements)}
    s_count = len(elements)
    theta = 2 * s_count

    packets = []
    for s in sets:
        packets.append(tuple(sorted([index[e] for e in s] + [theta])))
    for s in sets:
        packets.append(tuple(sorted([index[e] + s_count for e in s] + [theta])))

    inst = Instance(
        N=2 * s_count + 1, k=l, n=l + 1, packets=tuple(packets), placement="custom"
    )
    return ReductionOutput(
        instance=inst,
        threshold=2 * M,
        element_index=index,
        mirror_offset=s_count,
        theta_index=theta,
    )


# ---------------------------------------------------------------------------
# solver table
# ---------------------------------------------------------------------------

# Spec solver name -> solve(inst, design, gen).  Each entry looks its solver
# up by name when called, so rebinding a name in this module (as a tracer
# does) reaches every caller of the table.
SOLVERS = {
    "oracle": lambda inst, design, gen: solve_oracle(inst),
    "greedy": lambda inst, design, gen: solve_greedy(inst, gen),
    "matching_k1": lambda inst, design, gen: solve_matching_k1(inst),
    "matching_k2n2": lambda inst, design, gen: solve_matching_k2n2(inst),
    "cyclic_opt": lambda inst, design, gen: solve_cyclic(inst),
    "design_opt": lambda inst, design, gen: solve_design(inst, design),
}
# ``solve --algo`` name -> spec solver name
CLI_NAMES = {
    "oracle": "oracle",
    "greedy": "greedy",
    "k1": "matching_k1",
    "k2n2": "matching_k2n2",
    "cyclic": "cyclic_opt",
    "design": "design_opt",
}
