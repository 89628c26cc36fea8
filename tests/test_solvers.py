from __future__ import annotations

import hashlib
from itertools import combinations_with_replacement

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codedswitch import (
    BlockDesign,
    Instance,
    PlacementRng,
    Solution,
    balanced_orientation,
    build_lexicographic_packing,
    cyclic_anchor_order,
    draw_cyclic,
    draw_design,
    draw_uniform,
    instance_from_starts,
    reduce_lsp,
    solve_cyclic,
    solve_design,
    solve_greedy,
    solve_matching_k1,
    solve_matching_k2n2,
    solve_oracle,
    validate_solution,
    with_k,
)
from codedswitch.errors import (
    BadParams,
    BlockNotInDesign,
    ConditionViolated,
    TooLarge,
    UnequalCardinality,
    WrongParams,
)
from codedswitch.solvers import SOLVERS

from conftest import CONTENTION_PACKETS, brute_force_l_star


def _contention(k):
    return Instance(N=5, k=k, n=3, packets=CONTENTION_PACKETS)


@pytest.mark.parametrize("name", SOLVERS)
def test_every_solver_serves_nothing_on_an_empty_instance(fano, name):
    inst = Instance(N=7, k=1 if name == "matching_k1" else 2, n=2, packets=())
    assert SOLVERS[name](inst, fano, PlacementRng(0).generator()) == Solution(())


# -- oracle ---------------------------------------------------------------------

def test_oracle_contention_l_star_by_k():
    assert solve_oracle(_contention(3)).l_star == 1
    assert solve_oracle(_contention(2)).l_star == 2
    assert solve_oracle(_contention(1)).l_star == 3


def test_oracle_solution_valid():
    for k in (1, 2, 3):
        inst = _contention(k)
        sol = solve_oracle(inst)
        validate_solution(inst, sol)


def test_oracle_deterministic():
    inst = _contention(2)
    assert solve_oracle(inst) == solve_oracle(inst)


def test_oracle_cap():
    rng = PlacementRng(0).generator()
    inst = draw_uniform(12, 5, 5, rng)
    with pytest.raises(TooLarge):
        solve_oracle(inst)  # L*n = 25 over the default cap
    solve_oracle(inst, cap=25)


def test_oracle_matches_independent_brute_force():
    rng = np.random.default_rng(17)
    for _ in range(150):
        N = int(rng.integers(4, 9))
        n = int(rng.integers(1, N + 1))
        k = int(rng.integers(1, n + 1))
        L = int(rng.integers(1, 5))
        packets = tuple(
            tuple(sorted(rng.choice(N, size=n, replace=False).tolist()))
            for _ in range(L)
        )
        inst = Instance(N=N, k=k, n=n, packets=packets)
        sol = solve_oracle(inst, cap=64)
        validate_solution(inst, sol)
        assert sol.l_star == brute_force_l_star(packets, k)


# -- greedy ---------------------------------------------------------------------

def test_greedy_contention_k1_always_three():
    for seed in range(20):
        sol = solve_greedy(_contention(1), PlacementRng(seed).generator())
        assert sol.l_star == 3


def test_greedy_contention_k3_always_one():
    for seed in range(20):
        sol = solve_greedy(_contention(3), PlacementRng(seed).generator())
        assert sol.l_star == 1


def test_greedy_disjoint_packets_serves_all():
    inst = Instance(N=6, k=2, n=2, packets=((0, 1), (2, 3), (4, 5)))
    sol = solve_greedy(inst, PlacementRng(0).generator())
    assert sol.l_star == 3


def test_greedy_never_beats_oracle_and_sometimes_loses():
    rng = np.random.default_rng(23)
    strict = False
    for trial in range(200):
        N = int(rng.integers(4, 9))
        n = int(rng.integers(2, min(N, 5) + 1))
        k = int(rng.integers(1, n + 1))
        L = int(rng.integers(2, 6))
        packets = tuple(
            tuple(sorted(rng.choice(N, size=n, replace=False).tolist()))
            for _ in range(L)
        )
        inst = Instance(N=N, k=k, n=n, packets=packets)
        opt = solve_oracle(inst, cap=64).l_star
        g = solve_greedy(inst, PlacementRng(trial).generator())
        validate_solution(inst, g)
        assert g.l_star <= opt
        if g.l_star < opt:
            strict = True
    assert strict, "expected at least one instance where greedy is suboptimal"


def _seeded_greedy_cases():
    """(instance, rng) pairs: two seeded draws per (N, n, k, L), N = 1..10,
    n <= min(N, 5), k <= n, L = 0..7; every other packet lists its MUs in
    draw order, not sorted.  The rng is a seed, a PlacementRng or a
    Generator on one of five bit generators, in turn."""
    gen = np.random.default_rng(20151)
    bit_generators = (np.random.PCG64, np.random.MT19937, np.random.Philox,
                      np.random.SFC64, np.random.PCG64DXSM)
    turn = 0
    for N in range(1, 11):
        for n in range(1, min(N, 5) + 1):
            for k in range(1, n + 1):
                for L in range(8):
                    for _ in range(2):
                        packets = [gen.choice(N, n, replace=False).tolist() for _ in range(L)]
                        packets = [p if i % 2 else sorted(p) for i, p in enumerate(packets)]
                        turn += 1
                        rng = (turn if turn % 3 == 0 else PlacementRng(turn) if turn % 3 == 1
                               else np.random.Generator(bit_generators[turn % 5](turn)))
                        yield Instance(N=N, k=k, n=n, packets=packets), rng


def test_greedy_solutions_and_streams_pinned():
    # greedy's documented rule: one gen.permutation(L) visit order, then the
    # first k free MUs of each visited packet, in the packet's listed order;
    # a Generator is left where that permutation leaves it
    digest = hashlib.sha256()
    count = 0
    for inst, rng in _seeded_greedy_cases():
        count += 1
        digest.update(solve_greedy(inst, rng).to_json().encode())
        if isinstance(rng, np.random.Generator):
            digest.update(repr(rng.integers(0, 2**32, size=2).tolist()).encode())
    assert count == 1760
    assert digest.hexdigest() == (
        "17411199def2318bc479a8b5b473488ab3f5ef01b141ca1c525a13aa1272e56a")


def test_greedy_suboptimal_witness():
    # chain {0,1},{1,2},{2,3}: starting in the middle blocks both ends
    inst = Instance(N=4, k=2, n=2, packets=((0, 1), (1, 2), (2, 3)))
    results = set()
    for seed in range(30):
        results.add(solve_greedy(inst, PlacementRng(seed).generator()).l_star)
    assert results == {1, 2}


# -- bipartite matching (k=1) -------------------------------------------------------

def test_matching_k1_contention():
    assert solve_matching_k1(_contention(1)).l_star == 3


def test_matching_k1_identical_packets():
    packets = ((0, 1, 2),) * 5
    inst = Instance(N=5, k=1, n=3, packets=packets)
    assert solve_matching_k1(inst).l_star == 3  # min(L, n)


def test_matching_k1_wrong_params():
    with pytest.raises(WrongParams):
        solve_matching_k1(_contention(2))


def test_matching_k1_equals_oracle_random():
    rng = np.random.default_rng(31)
    for _ in range(200):
        N = int(rng.integers(3, 10))
        n = int(rng.integers(1, N + 1))
        L = int(rng.integers(1, 7))
        packets = tuple(
            tuple(sorted(rng.choice(N, size=n, replace=False).tolist()))
            for _ in range(L)
        )
        inst = Instance(N=N, k=1, n=n, packets=packets)
        sol = solve_matching_k1(inst)
        validate_solution(inst, sol)
        assert sol.l_star == brute_force_l_star(packets, 1)


# -- general matching (k=n=2) --------------------------------------------------------

def test_matching_k2n2_path():
    inst = Instance(N=4, k=2, n=2, packets=((0, 1), (1, 2), (2, 3)))
    sol = solve_matching_k2n2(inst)
    validate_solution(inst, sol)
    assert sol.l_star == 2


def test_matching_k2n2_disjoint_pairs():
    inst = Instance(N=4, k=2, n=2, packets=((0, 1), (2, 3)))
    assert solve_matching_k2n2(inst).l_star == 2


def test_matching_k2n2_parallel_packets():
    inst = Instance(N=2, k=2, n=2, packets=((0, 1),) * 4)
    sol = solve_matching_k2n2(inst)
    assert sol.l_star == 1
    assert sol.assignments[0] == (0, 1)  # lowest packet index served


def test_matching_k2n2_wrong_params():
    with pytest.raises(WrongParams):
        solve_matching_k2n2(_contention(2))


def test_matching_k2n2_equals_oracle_random():
    rng = np.random.default_rng(37)
    for _ in range(300):
        N = int(rng.integers(2, 10))
        L = int(rng.integers(1, 8))
        packets = tuple(
            tuple(sorted(rng.choice(N, size=2, replace=False).tolist()))
            for _ in range(L)
        )
        inst = Instance(N=N, k=2, n=2, packets=packets)
        sol = solve_matching_k2n2(inst)
        validate_solution(inst, sol)
        assert sol.l_star == brute_force_l_star(packets, 2)


def test_matching_k2n2_odd_cycle_needs_blossom():
    # 5-cycle: maximum matching is 2, bipartite-style reasoning would fail
    packets = ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4))
    inst = Instance(N=5, k=2, n=2, packets=packets)
    assert solve_matching_k2n2(inst).l_star == 2


# -- cyclic solver --------------------------------------------------------------

TILED_STARTS = (11, 1, 3, 5, 7, 9)  # six arcs of four MUs tiling a 12-point circle


def test_cyclic_anchor_order_golden():
    inst = instance_from_starts(12, 4, TILED_STARTS, k=2)
    order = cyclic_anchor_order(inst, 0)
    arcs_in_order = [inst.packets[i] for i in order]
    assert arcs_in_order == [
        (0, 1, 2, 11),
        (1, 2, 3, 4),
        (3, 4, 5, 6),
        (5, 6, 7, 8),
        (7, 8, 9, 10),
        (0, 9, 10, 11),
    ]


def test_cyclic_tiled_instance_full_throughput():
    inst = instance_from_starts(12, 4, TILED_STARTS, k=2)
    sol = solve_cyclic(inst)
    validate_solution(inst, sol)
    assert sol.l_star == 6
    assert solve_oracle(inst, cap=48).l_star == 6


def test_cyclic_single_packet_first_k():
    inst = instance_from_starts(10, 5, [7], k=3)
    sol = solve_cyclic(inst)
    assert sol.assignments[0] == (7, 8, 9)


def test_cyclic_rejects_non_arcs():
    inst = Instance(N=5, k=1, n=3, packets=((0, 2, 4),))
    with pytest.raises(WrongParams):
        solve_cyclic(inst)


def test_cyclic_packet_listed_out_of_order():
    # a packet's start is found from its MUs in any listed order
    sorted_inst = Instance(N=12, k=2, n=3, packets=((0, 1, 11), (1, 2, 3)))
    listed = Instance(N=12, k=2, n=3, packets=((11, 0, 1), (3, 1, 2)))
    for _ in range(2):  # a second call sees no state left by the first
        assert solve_cyclic(listed) == solve_cyclic(sorted_inst)
    assert solve_cyclic(listed).assignments == ((0, 11), (1, 2))
    with pytest.raises(WrongParams, match=r"packet 1 = \(0, 2, 4\) is not a cyclic arc"):
        solve_cyclic(Instance(N=12, k=2, n=3, packets=((11, 0, 1), (0, 2, 4))))
    with pytest.raises(WrongParams, match="needs n < N"):
        solve_cyclic(Instance(N=3, k=1, n=3, packets=()))


def test_cyclic_tables_hold_python_ints():
    # numpy ints solved first must not leak into the output or later
    # calls (N = 70 masks overflow int64; JSON takes no numpy int)
    first = Instance(N=np.int64(70), k=np.int64(2), n=np.int64(3),
                     packets=[np.array([68, 69, 0]), np.array([1, 2, 3])])
    later = Instance(N=70, k=2, n=3, packets=((0, 68, 69), (1, 2, 3)))
    assert solve_cyclic(first) == solve_cyclic(later)
    assert solve_cyclic(later).to_json() == '{"assignments":[[68,69],[1,2]]}'


def test_cyclic_l_star_equal_on_mirror_image():
    # a reflection m -> -m relabels the MUs and maps the arc at s onto the
    # arc at -s-n+1, so L* must not change; every multiset of starts, the
    # mirror image listed in the same packet order
    for N in range(2, 10):
        for L in range(1, 5):
            for starts in combinations_with_replacement(range(N), L):
                for n in range(1, N):
                    mirror = [(-s - n + 1) % N for s in starts]
                    for k in range(1, n + 1):
                        assert (solve_cyclic(instance_from_starts(N, n, starts, k=k)).l_star
                                == solve_cyclic(instance_from_starts(N, n, mirror, k=k)).l_star)


def _is_circle_run(mus, N):
    s = set(mus)
    if len(s) == N:
        return True
    for m in mus:
        if (m - 1) % N not in s:
            return all((m + r) % N in s for r in range(len(mus)))
    return False


def test_cyclic_assignments_are_consecutive_runs():
    rng = PlacementRng(41).generator()
    for _ in range(400):
        N = int(rng.integers(4, 13))
        n = int(rng.integers(1, N))
        k = int(rng.integers(1, n + 1))
        L = int(rng.integers(1, 7))
        inst = with_k(draw_cyclic(N, n, L, rng), k)
        sol = solve_cyclic(inst)
        validate_solution(inst, sol)
        for a in sol.assignments:
            if a is not None:
                assert _is_circle_run(a, N)


def test_cyclic_equals_oracle_random():
    rng = PlacementRng(43).generator()
    for _ in range(300):
        N = int(rng.integers(4, 10))
        n = int(rng.integers(1, N))
        k = int(rng.integers(1, n + 1))
        L = int(rng.integers(1, 5))
        inst = with_k(draw_cyclic(N, n, L, rng), k)
        assert solve_cyclic(inst).l_star == solve_oracle(inst, cap=64).l_star


def test_cyclic_scales_quadratically():
    # L anchored sweeps of L packets each: time should fit a quadratic
    # envelope (smoke check; dense load so no early full-throughput exit)
    import time

    def solve_time(L):
        rng = PlacementRng(1000 + L).generator()
        inst = with_k(draw_cyclic(max(4, (12 * L) // 10), 4, L, rng), 2)
        t0 = time.perf_counter()
        solve_cyclic(inst)
        return time.perf_counter() - t0

    solve_time(50)  # warm-up
    t250 = solve_time(250)
    t1000 = solve_time(1000)
    # quadratic prediction from the smaller point, with generous slack
    assert t1000 <= 6 * t250 * (1000 / 250) ** 2 + 0.05


def _seeded_cyclic_instances():
    """Six seeded arc instances per (N, n, k, L), N = 2..14, n < N, k <= n,
    L = 0..7; about one packet in four lists its arc in reverse order."""
    gen = np.random.default_rng(20141)
    for N in range(2, 15):
        for n in range(1, N):
            for k in range(1, n + 1):
                for L in range(8):
                    for _ in range(6):
                        starts = gen.integers(0, N, L).tolist()
                        flips = (gen.random(L) < 0.25).tolist()
                        packets = [sorted((s + r) % N for r in range(n))[::-1 if f else 1]
                                   for s, f in zip(starts, flips)]
                        yield Instance(N=N, k=k, n=n, packets=packets, placement="cyclic")


CYCLIC_DIGEST = "cd12116d53b33670021b2586f53ca17e149e27736af201a749ff3e7a22bb1741"


def _cyclic_digest(outputs):
    """SHA-256 over the per-instance outputs, then the pinned errors."""
    digest = hashlib.sha256()
    count = 0
    for out in outputs:
        count += 1
        digest.update(out)
    bad = [Instance(N=6, k=1, n=3, packets=((1, 2, 3), (0, 2, 4))),
           Instance(N=6, k=1, n=3, packets=((5, 0, 1), (4, 3, 1))),
           Instance(N=6, k=1, n=3, packets=((1, 1, 2),)),
           Instance(N=6, k=1, n=2, packets=((5, 6),)),
           Instance(N=6, k=1, n=6, packets=((0, 1, 2, 3, 4, 5),)),
           Instance(N=5, k=2, n=7, packets=())]
    for inst in bad:
        with pytest.raises(WrongParams) as err:
            solve_cyclic(inst)
        digest.update(str(err.value).encode())
    assert count == 21840
    return digest.hexdigest()


def _cyclic_outputs(inst):
    out = solve_cyclic(inst).to_json().encode()
    if inst.L:
        out += repr(cyclic_anchor_order(inst, inst.L - 1)).encode()
    return out


def test_cyclic_solutions_and_errors_pinned():
    # which window each packet gets, under the documented tie rules: sweep
    # anchors in order of first appearance, (start, index) sweep order, the
    # earliest free k-run of each arc, the first anchor reaching the maximum
    assert _cyclic_digest(map(_cyclic_outputs, _seeded_cyclic_instances())) == CYCLIC_DIGEST


def test_cyclic_solutions_do_not_depend_on_call_history():
    # the instances solved last to first: the same digest
    outputs = [_cyclic_outputs(inst) for inst in reversed(list(_seeded_cyclic_instances()))]
    assert _cyclic_digest(reversed(outputs)) == CYCLIC_DIGEST


# -- balanced orientation ----------------------------------------------------------

def test_orientation_triangle_golden():
    ob = balanced_orientation([(0, 1), (1, 2), (0, 2)])
    assert ob.directed_edges == ((0, 1), (1, 2), (2, 0))


def test_orientation_single_edge():
    ob = balanced_orientation([(3, 7)])
    assert set(ob.directed_edges[0]) == {3, 7}


def test_orientation_rejects_self_loop():
    with pytest.raises(BadParams):
        balanced_orientation([(1, 1)])


def _check_balance(edges, directed):
    from collections import Counter

    indeg, outdeg = Counter(), Counter()
    for (u, v), (a, b) in zip(edges, directed):
        assert {a, b} == {u, v}
        outdeg[a] += 1
        indeg[b] += 1
    for v in set(indeg) | set(outdeg):
        assert abs(indeg[v] - outdeg[v]) <= 1


@given(
    st.lists(
        st.tuples(st.integers(0, 25), st.integers(0, 25)).filter(lambda e: e[0] != e[1]),
        min_size=1,
        max_size=200,
    )
)
@settings(max_examples=150, deadline=None)
def test_orientation_balance_property(edges):
    ob = balanced_orientation(edges)
    _check_balance(edges, ob.directed_edges)


def test_orientation_large_random_graphs():
    rng = np.random.default_rng(47)
    for _ in range(20):
        m = int(rng.integers(50, 201))
        edges = []
        while len(edges) < m:
            u, v = rng.integers(0, 40, size=2)
            if u != v:
                edges.append((int(u), int(v)))
        ob = balanced_orientation(edges)
        _check_balance(edges, ob.directed_edges)


# -- design solver --------------------------------------------------------------

WORKED_BLOCKS = ((1, 2, 3), (1, 4, 5), (3, 5, 6))
WORKED_DESIGN = BlockDesign(N=7, n=3, t=2, blocks=WORKED_BLOCKS, source="file")


def test_design_worked_assignment_exact():
    inst = Instance(N=7, k=2, n=3, packets=WORKED_BLOCKS, placement="design")
    sol = solve_design(inst, WORKED_DESIGN)
    validate_solution(inst, sol)
    assert sol.l_star == 3
    assert sol.assignments == ((2, 3), (1, 4), (5, 6))


def test_design_single_packet():
    inst = Instance(N=7, k=2, n=3, packets=(WORKED_BLOCKS[0],), placement="design")
    sol = solve_design(inst, WORKED_DESIGN)
    assert sol.assignments == ((1, 2),)


def test_design_splits_an_even_shared_pool():
    # the blocks share MUs 0 and 1: each packet takes one of them
    d = build_lexicographic_packing(8, 4, 2)
    inst = Instance(N=8, k=2, n=4, packets=((0, 1, 2, 3), (0, 1, 4, 5)), placement="design")
    sol = solve_design(inst, d)
    validate_solution(inst, sol)
    assert sol.assignments == ((0, 2), (1, 4))
    assert sol.l_star == solve_oracle(inst).l_star


def test_design_disjoint_blocks():
    d = BlockDesign(N=6, n=3, t=1, blocks=((0, 1, 2), (3, 4, 5)), source="file")
    inst = Instance(N=6, k=2, n=3, packets=d.blocks, placement="design")
    sol = solve_design(inst, d)
    assert sol.assignments == ((0, 1), (3, 4))


def test_design_block_not_in_design():
    inst = Instance(N=7, k=2, n=3, packets=((0, 1, 2),), placement="design")
    with pytest.raises(BlockNotInDesign):
        solve_design(inst, WORKED_DESIGN)


def test_design_from_unsorted_blocks_stores_them_sorted():
    d = BlockDesign(N=7, n=3, t=2, blocks=((3, 2, 1), (5, 1, 4), (6, 5, 3)), source="file")
    assert d.blocks == WORKED_BLOCKS
    # a drawn instance read back from JSON names each block by its sorted MUs
    inst = with_k(draw_design(d, 3, PlacementRng(0).generator(), replace=False), 2)
    sol = solve_design(Instance.from_json(inst.to_json()), d)
    assert sol.l_star == 3 and set(inst.packets) == set(WORKED_BLOCKS)


def test_design_condition_violated():
    # five distinct triple-system blocks at k=2: floor(t_max)=floor(2/4)=0 < 1
    from conftest import CLASSIC_TRIPLE_SYSTEM

    d = BlockDesign(N=7, n=3, t=2, blocks=CLASSIC_TRIPLE_SYSTEM, source="file")
    inst = Instance(N=7, k=2, n=3, packets=CLASSIC_TRIPLE_SYSTEM[:5], placement="design")
    with pytest.raises(ConditionViolated):
        solve_design(inst, d)


def test_design_duplicates_high_rate_first_served(fano):
    # k > n/2: a block serves at most one packet; duplicates stay unserved
    packets = (fano.blocks[0], fano.blocks[0], fano.blocks[3])
    inst = Instance(N=7, k=2, n=3, packets=packets, placement="design")
    sol = solve_design(inst, fano)
    assert sol.l_star == 2
    assert sol.assignments[0] is not None
    assert sol.assignments[1] is None
    assert sol.l_star == solve_oracle(inst, cap=64).l_star


def test_design_duplicates_low_rate_falls_back_to_oracle(fano):
    # k = 1 <= n/2: one block can serve several packets
    packets = (fano.blocks[0], fano.blocks[0], fano.blocks[0])
    inst = Instance(N=7, k=1, n=3, packets=packets, placement="design")
    sol = solve_design(inst, fano)
    validate_solution(inst, sol)
    assert sol.l_star == 3


def test_design_serves_all_random(fano, q3_plane):
    rng = PlacementRng(53).generator()
    for design, k_choices in ((fano, {2: 3, 1: 5}), (q3_plane, {3: 3, 2: 5})):
        for k, L_max in k_choices.items():
            for _ in range(100):
                L = int(rng.integers(1, L_max + 1))
                inst = with_k(draw_design(design, L, rng, replace=False), k)
                sol = solve_design(inst, design)
                validate_solution(inst, sol)
                assert sol.l_star == L


# -- set packing reduction -----------------------------------------------------------

def test_reduction_disjoint_pair():
    out = reduce_lsp([(0, 1, 2), (3, 4, 5)], M=2)
    assert out.instance.k == 3 and out.instance.n == 4
    assert out.instance.L == 4 and out.threshold == 4
    assert solve_oracle(out.instance, cap=64).l_star >= 4


def test_reduction_single_set():
    out = reduce_lsp([(0, 1, 2)], M=1)
    assert out.instance.L == 2
    # both packets share only the fresh element
    a, b = out.instance.packets
    assert set(a) & set(b) == {out.theta_index}
    assert solve_oracle(out.instance, cap=64).l_star == 2


def test_reduction_identical_sets_infeasible():
    out = reduce_lsp([(0, 1, 2), (0, 1, 2)], M=2)
    assert solve_oracle(out.instance, cap=64).l_star < 4


def test_reduction_rejects_mixed_sizes():
    with pytest.raises(UnequalCardinality):
        reduce_lsp([(0, 1, 2), (3, 4)], M=1)


def test_reduction_rejects_small_sets():
    with pytest.raises(BadParams):
        reduce_lsp([(0, 1), (2, 3)], M=1)


def _brute_3sp(sets, M):
    sets = [frozenset(s) for s in sets]
    best = 0
    for mask in range(1 << len(sets)):
        chosen = [sets[i] for i in range(len(sets)) if (mask >> i) & 1]
        if all(a.isdisjoint(b) for i, a in enumerate(chosen) for b in chosen[i + 1:]):
            best = max(best, len(chosen))
    return best >= M


def test_reduction_soundness_random():
    rng = np.random.default_rng(59)
    for _ in range(120):
        L = int(rng.integers(1, 5))
        sets = [
            tuple(sorted(rng.choice(8, size=3, replace=False).tolist()))
            for _ in range(L)
        ]
        out = reduce_lsp(sets, M=1)
        reads = solve_oracle(out.instance, cap=64).l_star
        for M in range(1, L + 1):
            assert _brute_3sp(sets, M) == (reads >= 2 * M)
