"""Row solvers: the Hall table's ``hall_l_stars``, ``cyclic_rows`` and
``greedy_rows`` against the per-instance solvers, and the ensemble cells that
run them."""

from __future__ import annotations

import tracemalloc
from itertools import combinations_with_replacement

import numpy as np
import pytest

from codedswitch import (
    ExperimentSpec,
    Instance,
    instance_from_starts,
    run_ensemble,
    solve_cyclic,
    solve_greedy,
    solve_oracle,
)
from codedswitch import conditions, ensemble, solvers
from codedswitch.conditions import arc_hall_rows, hall_l_stars, hall_table_takes
from codedswitch.ensemble import ORACLE_TABLE_MAX_L, l_stars
from codedswitch.errors import ConditionViolated, TooLarge
from codedswitch.placement import (
    build_lexicographic_packing,
    build_projective_plane,
    draw_rows,
)
from codedswitch.solvers import SOLVERS, cyclic_rows, greedy_rows

from conftest import arc_design, oracle_l_stars

BIT_GENERATORS = (np.random.PCG64, np.random.MT19937, np.random.Philox,
                  np.random.SFC64, np.random.PCG64DXSM)


def _cells():
    """(policy, N, n, design) of the hall_l_stars equivalence: uniform and
    cyclic rows on 6, 8, 12, 20 and 64 MUs, and three designs."""
    for N in (6, 8, 12, 20, 64):
        for n in (1, 3, 5):
            yield "uniform", N, n, None
            yield "cyclic", N, n, None
    yield "design", 7, 3, build_projective_plane(2)
    yield "design", 13, 4, build_projective_plane(3)
    yield "design", 17, 5, build_lexicographic_packing(17, 5, 2)


# -- hall_l_stars -----------------------------------------------------------------

@pytest.mark.parametrize("policy,N,n,design", list(_cells()),
                         ids=lambda v: getattr(v, "source", v))
def test_oracle_rows_equal_solve_oracle(policy, N, n, design):
    gen = np.random.default_rng([N, n, len(policy)])
    for k in range(1, n + 1):
        for L in range(1, ORACLE_TABLE_MAX_L + 1):
            # the oracle's search grows fast with n*L: fewer rows for long ones
            rows = draw_rows(policy, N, n, L, 12 if n * L <= 24 else 3, gen, design)
            assert hall_l_stars(rows, N, k).tolist() == oracle_l_stars(rows, N, k), (k, L)


def test_oracle_rows_use_mu_63():
    rows = np.array([[[61, 62, 63], [62, 63, 0]], [[63, 1, 2], [60, 61, 62]]])
    assert hall_l_stars(rows, 64, 2).tolist() == [2, 2]
    assert hall_l_stars(rows, 64, 3).tolist() == [1, 2]


def test_oracle_rows_slices(monkeypatch):
    rows = draw_rows("uniform", 12, 4, 5, 300, np.random.default_rng(3))
    whole = hall_l_stars(rows, 12, 2)
    monkeypatch.setattr(conditions, "_SLICE_ENTRIES", 7 * 2**5)
    assert hall_l_stars(rows, 12, 2).tolist() == whole.tolist() == oracle_l_stars(rows, 12, 2)


def test_hall_l_stars_refuse_past_the_gate():
    # uint64 masks, and a 2^16-union slice holds one row of L <= 16 packets
    assert hall_table_takes(64, 16)
    assert hall_l_stars(np.zeros((1, 16, 1), dtype=np.int64), 64, 1).tolist() == [1]
    assert not hall_table_takes(65, 1) and not hall_table_takes(64, 17)
    with pytest.raises(TooLarge):
        hall_l_stars(np.zeros((1, 2, 1), dtype=np.int64), 65, 1)
    with pytest.raises(TooLarge):
        hall_l_stars(np.zeros((1, 17, 1), dtype=np.int64), 12, 1)


# one packet a row past the table's gate: at n = 2 an oracle cell with L > 12
# passes the oracle's cap and goes to greedy
@pytest.mark.parametrize("N,n,k,L,by_rows", [
    (12, 2, 2, ORACLE_TABLE_MAX_L, True),
    (64, 2, 1, 3, True),
    (65, 2, 1, 3, False),
    (12, 1, 1, ORACLE_TABLE_MAX_L + 1, False),
])
def test_oracle_cells_past_the_gate_run_solve_oracle_with_the_cache(monkeypatch, N, n, k, L,
                                                                    by_rows):
    solved, batches = [], []

    def counted(inst, cap=solvers.DEFAULT_ORACLE_CAP):
        solved.append(inst)
        return solve_oracle(inst, cap)

    def spied(policy, N, n, k, rows, solve):
        batches.append(len(rows))
        return l_stars(policy, N, n, k, rows, solve)

    monkeypatch.setattr(solvers, "solve_oracle", counted)
    monkeypatch.setattr(ensemble, "l_stars", spied)
    spec = ExperimentSpec(policy="uniform", N=N, k=k, n=n, L_range=(L,), trials=300, seed=4)
    assert run_ensemble(spec).rows[0].solver == "oracle"
    if by_rows:
        assert solved == [] and batches == []
    else:
        # one solve per row of the cell's one batch
        assert batches == [300] and len(solved) == 300


# -- cyclic_rows ------------------------------------------------------------------

@pytest.mark.parametrize("N", [65, 100])
def test_cyclic_rows_equal_solve_cyclic(N):
    # past the Hall table's 64 MUs and 16 packets; half the rows repeat a start
    gen = np.random.default_rng(N)
    for L in range(1, 13):
        for n in sorted({1, 2, N // 3, N - 1}):
            k = int(gen.integers(1, n + 1))
            starts = gen.integers(0, N, size=(20, L))
            starts[:10, -1] = starts[:10, 0]
            starts.sort(axis=1)
            assert cyclic_rows(starts, N, n, k).tolist() == [
                solve_cyclic(instance_from_starts(N, n, row, k=k)).l_star
                for row in starts.tolist()], (L, n, k)


def test_cyclic_rows_edge_shapes():
    assert cyclic_rows(np.zeros((0, 3), dtype=np.int64), 7, 3, 2).tolist() == []
    assert cyclic_rows([[3], [6]], 7, 3, 2).tolist() == [1, 1]
    assert cyclic_rows([[3], [6]], 7, 3, 3).tolist() == [1, 1]
    # positions past 2^16: arcs that meet across MU 0
    starts = [[0, 3, 69_998, 69_999], [5, 5, 5, 69_999]]
    assert cyclic_rows(starts, 70_000, 3, 2).tolist() == [
        solve_cyclic(instance_from_starts(70_000, 3, row, k=2)).l_star for row in starts]


# blocks of anchors by entry budget (L, B -> budget): one anchor per block,
# blocks of L // 2 + 1 anchors that leave a shorter last block, the default
_BLOCK_BUDGETS = {
    "one-anchor": lambda L, B: 1,
    "uneven": lambda L, B: (L // 2 + 2) * L * B - 1,
    "default": lambda L, B: solvers._ARC_BLOCK_ENTRIES,
}


@pytest.mark.parametrize("budget", _BLOCK_BUDGETS.values(), ids=_BLOCK_BUDGETS.keys())
def test_cyclic_rows_equal_solve_cyclic_in_any_blocks(monkeypatch, budget):
    # positions lie below 2N + n: these (N, n) put it at 255 / 256 and
    # 65535 / 65536, the last value of uint8 and uint16 and one past it
    gen = np.random.default_rng(26)
    for N, n in [(125, 5), (125, 6), (86, 83), (86, 84), (32765, 5), (32765, 6)]:
        for L in (1, 2, 3, 5, 7, 12):
            for k in sorted({1, 2, n - 1, n}):
                starts = gen.integers(0, N, size=(16, L))
                starts[:8, -1] = starts[:8, 0]
                starts.sort(axis=1)
                with monkeypatch.context() as patch:
                    patch.setattr(solvers, "_ARC_BLOCK_ENTRIES", budget(L, len(starts)))
                    got = cyclic_rows(starts, N, n, k).tolist()
                assert got == [solve_cyclic(instance_from_starts(N, n, row, k=k)).l_star
                               for row in starts.tolist()], (N, n, L, k)


def test_cyclic_rows_hold_one_block_of_arcs():
    # an unblocked (L, L*B) array of uint16 positions would take 82 MB; the
    # anchor-by-anchor loop this sweep replaced peaked at 9.4 MB
    starts = np.random.default_rng(5).integers(0, 1000, size=(4096, 100))
    tracemalloc.start()
    try:
        cyclic_rows(starts, 1000, 20, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 9.4e6


@pytest.mark.parametrize("N", [65, 66])
def test_cyclic_rows_full_iff_arc_hall_on_every_multiset_past_64_mus(N):
    # no Hall table reaches N > 64; arc_hall_rows decides Hall's condition
    for L in (1, 2, 3):
        starts = np.array(list(combinations_with_replacement(range(N), L)))
        for n, k in [(1, 1), (2, 1), (5, 3), (21, 20), (N - 1, 22)]:
            assert ((cyclic_rows(starts, N, n, k) == L).tolist()
                    == arc_hall_rows(starts, N, n, k).tolist()), (L, n, k)


@pytest.mark.parametrize("L", range(17, 25))
def test_cyclic_rows_full_iff_arc_hall_past_16_packets(L):
    gen = np.random.default_rng(L)
    full = []
    for N, n, k in [(2 * L + 3, 3, 2), (3 * L + 2, 4, 3), (90, 9, 4), (5 * L + 1, 7, 5)]:
        # uniform rows, and evenly spaced rows whose starts each move by 0
        # or the row's nudge, one or two MUs
        starts = gen.integers(0, N, size=(40, L))
        starts[20:] = (np.arange(L) * (N // L)
                       + gen.integers(0, 2, size=(20, L)) * gen.integers(1, 3, size=(20, 1)))
        starts.sort(axis=1)
        full += (cyclic_rows(starts, N, n, k) == L).tolist()
        assert full[-40:] == arc_hall_rows(starts, N, n, k).tolist(), (N, n, k)
    assert set(full) == {False, True}


# -- greedy_rows ------------------------------------------------------------------

def _greedy_by_permutation(inst, gen):
    """The per-instance greedy rule, by one gen.permutation call: the
    first k free MUs of each visited packet."""
    used = set()
    assignments = [None] * inst.L
    for i in gen.permutation(inst.L).tolist():
        free = [m for m in inst.packets[i] if m not in used]
        if len(free) >= inst.k:
            assignments[i] = tuple(free[:inst.k])
            used.update(free[:inst.k])
    return assignments


@pytest.mark.parametrize("bit_generator", BIT_GENERATORS, ids=lambda b: b.__name__)
@pytest.mark.parametrize("L", [1, 2, 3, 6, 9])
@pytest.mark.parametrize("n", [1, 3, 5, 6])
def test_greedy_rows_replay_solve_greedy(bit_generator, L, n):
    N, B = 12, 150
    rows = draw_rows("uniform", N, n, L, B, np.random.default_rng([L, n]))
    for k in sorted({1, (n + 1) // 2, n}):
        gen, masked, one, ref = (np.random.Generator(bit_generator(L * 100 + n * 10 + k))
                                 for _ in range(4))
        served = greedy_rows(rows, N, k, gen)
        assert served.dtype == bool and served.shape == (B, L)
        assert greedy_rows(conditions.mu_masks(rows), N, k, masked).tolist() == served.tolist()
        instances = [Instance(N, k, n, row) for row in rows.tolist()]
        solutions = [solve_greedy(inst, one) for inst in instances]
        assert [list(sol.assignments) for sol in solutions] == [
            _greedy_by_permutation(inst, ref) for inst in instances]
        assert served.tolist() == [[a is not None for a in sol.assignments] for sol in solutions]
        # each generator is left where B permutation calls leave it
        after = [(g.random(), g.integers(0, 2**40)) for g in (gen, masked, one, ref)]
        assert after[0] == after[1] == after[2] == after[3]


@pytest.mark.parametrize("policy,N,n", [
    ("uniform", 12, 5), ("cyclic", 12, 5), ("design", 12, 4),
    ("uniform", 64, 5), ("cyclic", 64, 6), ("design", 64, 4),
    # past 64 MUs only the packet loop serves
    ("uniform", 65, 5), ("cyclic", 65, 6), ("design", 65, 4),
])
def test_greedy_rows_on_every_policy(policy, N, n):
    # masks up to 64 MUs, packets past them
    B, L = 200, 9
    design = arc_design(N, n, 3) if policy == "design" else None
    packets = draw_rows(policy, N, n, L, B, np.random.default_rng(N), design)
    rows = conditions.mu_masks(packets) if N <= 64 else packets
    assert packets.max() == N - 1
    for k in range(1, n + 1):
        gen, ref = np.random.default_rng([N, k]), np.random.default_rng([N, k])
        served = greedy_rows(rows, N, k, gen)
        assert served.tolist() == [
            [a is not None for a in _greedy_by_permutation(Instance(N, k, n, row), ref)]
            for row in packets.tolist()]
        assert gen.random() == ref.random()


def test_greedy_rows_slices(monkeypatch):
    rows = draw_rows("uniform", 12, 5, 6, 300, np.random.default_rng(8))
    whole = greedy_rows(rows, 12, 3, np.random.default_rng(9))
    monkeypatch.setattr(solvers, "_SLICE_ENTRIES", 12 * 7)
    assert (greedy_rows(rows, 12, 3, np.random.default_rng(9)) == whole).all()


# -- ensemble cells ---------------------------------------------------------------

def _per_instance_solver(spec, name, L, design):
    """``l_stars`` with the per-instance solver, as every cell once ran, on
    every row in order (the oracle uncapped)."""
    if name == "greedy":
        solve = solve_greedy
    elif name == "oracle":
        solve = lambda inst, gen: solve_oracle(inst, cap=10**9)
    else:
        solve = lambda inst, gen: SOLVERS[name](inst, design, gen)
    return "packets", lambda rows, gen: l_stars(spec.policy, spec.N, spec.n, spec.k, rows,
                                                lambda inst: solve(inst, gen).l_star)


@pytest.mark.parametrize("solver", ["oracle", "greedy"])
@pytest.mark.parametrize("policy,N,n,k,loads,trials", [
    # uniform n=4 at L=7, cyclic n=5 at L=5, 6 and design n=3 at L=9 fall back
    # to greedy; 5000 trials are two batches
    ("uniform", 12, 4, 2, range(1, 8), 300),
    ("uniform", 12, 3, 3, (3, 6), 5000),
    ("cyclic", 12, 5, 3, range(1, 7), 300),
    ("design", 7, 3, 2, range(1, 10), 300),
    # past 64 MUs greedy reads sorted packets; L = 12 falls back to greedy
    ("cyclic", 70, 6, 2, (3, 12), 300),
])
def test_cells_equal_the_per_instance_solvers(monkeypatch, fano, solver, policy, N, n, k, loads,
                                              trials):
    spec = ExperimentSpec(policy=policy, N=N, k=k, n=n, L_range=tuple(loads), trials=trials,
                          seed=12, solver=solver,
                          design_source=fano if policy == "design" else None)
    rows = run_ensemble(spec).rows
    monkeypatch.setattr(ensemble, "_batch_solver", _per_instance_solver)
    assert run_ensemble(spec).rows == rows
    if solver == "oracle":
        assert [r.solver for r in rows] == [
            "oracle" if r.L * n <= solvers.DEFAULT_ORACLE_CAP else "greedy(oracle-cap-fallback)"
            for r in rows]


@pytest.mark.parametrize("policy,N,n,k,loads,solver", [
    ("cyclic", 12, 5, 3, range(1, 7), "cyclic_opt"),
    # past the Hall table: 70 MUs, 12 packets
    ("cyclic", 70, 6, 2, (3, 12), "cyclic_opt"),
    ("cyclic", 12, 4, 1, range(1, 7), "matching_k1"),
    ("cyclic", 12, 2, 2, range(1, 7), "matching_k2n2"),
    # the loads at which solve_design runs: k=2 on the Fano plane, and k=2
    # on PG(2,3), where duplicate blocks go to solve_oracle
    ("design", 7, 3, 2, (1, 2, 3), "design_opt"),
    ("design", 13, 4, 2, range(1, 6), "design_opt"),
])
def test_optimal_cells_equal_the_per_instance_solvers(monkeypatch, policy, N, n, k, loads, solver):
    design = build_projective_plane({7: 2, 13: 3}[N]) if policy == "design" else None
    spec = ExperimentSpec(policy=policy, N=N, k=k, n=n, L_range=tuple(loads), trials=300,
                          seed=12, solver=solver, design_source=design)
    rows = run_ensemble(spec).rows
    monkeypatch.setattr(ensemble, "_batch_solver", _per_instance_solver)
    assert run_ensemble(spec).rows == rows
    assert [r.solver for r in rows] == [solver] * len(rows)


def _table_l_stars_checked(monkeypatch, spec):
    """Run ``spec``, checking that its one cell reads the Hall table on MU
    masks and that the table's L* equals the uncapped oracle's on every row;
    the L* values read."""
    batch_solver, seen = ensemble._batch_solver, []

    def checked(spec, name, L, design):
        form, solve = batch_solver(spec, name, L, design)
        assert form == "masks"

        def both(rows, gen):
            got = solve(conditions.mu_masks(rows), gen)
            assert got.tolist() == [solve_oracle(Instance(spec.N, spec.k, spec.n, row),
                                                 cap=10**9).l_star for row in rows.tolist()]
            seen.extend(got.tolist())
            return got
        return "packets", both

    monkeypatch.setattr(ensemble, "_batch_solver", checked)
    run_ensemble(spec)
    return seen


def test_design_opt_cell_past_solve_design_reads_the_optimum(monkeypatch):
    # PG(2,5) at k=3, L=5: solve_design hands rows with a repeated block to
    # solve_oracle, whose default cap (L*n = 30 > 24) refuses them; the cell
    # reads the optimum from the Hall table
    spec = ExperimentSpec(policy="design", N=31, k=3, n=6, L_range=(5,), trials=300, seed=3,
                          solver="design_opt", design_source=build_projective_plane(5))
    seen = _table_l_stars_checked(monkeypatch, spec)
    assert len(seen) == 300 and min(seen) < 5


def test_design_opt_cell_at_the_table_gate_reads_the_optimum(monkeypatch):
    # the Fano plane at k=2, L=12: solve_design refuses rows of 6 distinct
    # blocks (ConditionViolated), and the cell reads the optimum from the table
    spec = ExperimentSpec(policy="design", N=7, k=2, n=3, L_range=(ORACLE_TABLE_MAX_L,),
                          trials=200, seed=1, solver="design_opt",
                          design_source=build_projective_plane(2))
    assert len(_table_l_stars_checked(monkeypatch, spec)) == 200
    monkeypatch.setattr(ensemble, "_batch_solver", _per_instance_solver)
    with pytest.raises(ConditionViolated):
        run_ensemble(spec)
