from __future__ import annotations

import numpy as np
import pytest

from codedswitch import (
    ExperimentSpec,
    p_full_throughput_exact,
    reproduce_figure,
    run_ensemble,
    whp_l_star,
)
from codedswitch.errors import BadParams, EmptySamples, IncompatibleSolver, UnknownFigure


# -- whp statistic ----------------------------------------------------------------

def test_whp_all_equal():
    assert whp_l_star([4, 4, 4, 4]) == 4


def test_whp_golden_small_sample():
    assert whp_l_star([3, 3, 3, 2]) == 2


def test_whp_zero_floor():
    assert whp_l_star([0, 0, 1]) == 0


def test_whp_empty():
    with pytest.raises(EmptySamples):
        whp_l_star([])


def test_whp_confidence_parameter():
    assert whp_l_star([3, 3, 3, 2], confidence=0.75) == 3


# -- ensemble runs ----------------------------------------------------------------

def _spec(**kw):
    base = dict(
        policy="cyclic", N=12, k=3, n=4, L_range=(1, 2, 3),
        trials=2000, seed=9, solver="cyclic_opt",
    )
    base.update(kw)
    return ExperimentSpec(**base)


def test_ensemble_deterministic():
    a = run_ensemble(_spec())
    b = run_ensemble(_spec())
    assert a.rows == b.rows
    assert a.to_csv_string() == b.to_csv_string()


def test_ensemble_single_packet_row():
    rep = run_ensemble(_spec(L_range=(1,)))
    row = rep.rows[0]
    assert row.rho_bar == pytest.approx(3 / 12)
    assert row.pr_full_tp == 1.0
    assert row.whp_l_star == 1


def test_ensemble_csv_schema():
    rep = run_ensemble(_spec(L_range=(2,), trials=100))
    lines = rep.to_csv_string().strip().splitlines()
    assert lines[0] == "L,mean_l_star,rho_bar,rho_bar_ci95,whp_l_star,pr_full_tp,pr_full_tp_ci95,trials,solver"
    assert len(lines) == 2
    assert lines[1].split(",")[0] == "2"


def test_ensemble_greedy_dominated_by_optimal():
    # same seed, same draw streams: paired comparison per L
    opt = run_ensemble(_spec(trials=3000))
    greedy = run_ensemble(_spec(trials=3000, solver="greedy"))
    for o, g in zip(opt.rows, greedy.rows):
        assert g.rho_bar <= o.rho_bar + 1e-12


def test_ensemble_full_tp_matches_exact():
    rep = run_ensemble(_spec(N=10, n=4, k=3, L_range=(3,), trials=30_000))
    exact = p_full_throughput_exact("cyclic", 10, 4, 3, 3)
    row = rep.rows[0]
    assert abs(row.pr_full_tp - exact.value) <= 3.5 * (row.pr_full_tp_ci95 / 1.96 + 1e-12)


def test_ensemble_rho_increases_with_redundancy():
    rhos = []
    for n in (3, 4, 5, 6):
        rep = run_ensemble(_spec(n=n, L_range=(4,), trials=20_000))
        rhos.append(rep.rows[0].rho_bar)
    assert all(a < b for a, b in zip(rhos, rhos[1:]))


def test_ensemble_oracle_cap_fallback_label():
    spec = _spec(policy="uniform", solver="oracle", n=6, L_range=(3, 5), trials=50)
    rep = run_ensemble(spec)
    assert rep.rows[0].solver == "oracle"  # 3*6 = 18 within cap
    assert rep.rows[1].solver == "greedy(oracle-cap-fallback)"  # 5*6 = 30 over


def test_ensemble_incompatible_solver():
    # a solver outside its domain is refused when the spec is built
    for kw, message in (
        (dict(solver="matching_k1"), "matching_k1 requires k=1"),
        (dict(solver="matching_k2n2", k=2, n=3), "matching_k2n2 requires k=n=2"),
        (dict(solver="matching_k2n2", k=1, n=2), "matching_k2n2 requires k=n=2"),
        (dict(policy="uniform", solver="cyclic_opt"), "cyclic_opt requires the cyclic policy"),
        (dict(solver="design_opt"), "design_opt requires the design policy and a design"),
    ):
        with pytest.raises(IncompatibleSolver, match=f"^{message}$"):
            _spec(trials=10, **kw)


def test_design_opt_spec_without_a_design_builds_then_fails_its_design_check():
    spec = _spec(policy="design", N=7, k=2, n=3, solver="design_opt", trials=10)
    with pytest.raises(BadParams, match="needs a block design"):
        run_ensemble(spec)


def test_ensemble_design_policy(fano):
    spec = ExperimentSpec(
        policy="design", N=7, k=2, n=3, L_range=(3,), trials=20_000,
        seed=1, solver="design_opt", design_source=fano,
    )
    rep = run_ensemble(spec)
    exact = p_full_throughput_exact("design", 7, 3, 2, 3, design=fano)
    row = rep.rows[0]
    assert abs(row.pr_full_tp - exact.value) <= 4 * (row.pr_full_tp_ci95 / 1.96 + 1e-12)


def test_spec_validation():
    with pytest.raises(BadParams):
        ExperimentSpec(policy="diagonal", N=4, k=1, n=2, L_range=(1,))
    with pytest.raises(BadParams):
        _spec(trials=0)
    # cells that no draw can honour: k > n, k < 1, n > N, and cyclic arcs need n < N
    for kw in (dict(policy="uniform", k=5, n=3, solver="oracle"),
               dict(policy="uniform", k=-1, solver="greedy"),
               dict(N=3, n=5, solver="oracle"),
               dict(N=3, n=3, solver="oracle")):
        with pytest.raises(BadParams):
            _spec(**kw)
    with pytest.raises(BadParams):
        p_full_throughput_exact("cyclic", 5, 5, 2, 2)


@pytest.mark.parametrize("L_range", [range(2, 4), (2, 3), [2, 3], np.arange(2, 4)])
def test_spec_takes_any_sequence_of_integer_loads(L_range):
    spec = _spec(L_range=L_range)
    assert spec.L_range == (2, 3) and all(type(L) is int for L in spec.L_range)


# -- figure artifacts ---------------------------------------------------------------

def test_reproduce_unknown_figure(tmp_path):
    with pytest.raises(UnknownFigure):
        reproduce_figure(9, tmp_path)


def test_reproduce_figure_negative_seed_raises_bad_params(tmp_path):
    # once escaped numpy's "expected non-negative integer" ValueError
    with pytest.raises(BadParams, match="seed"):
        reproduce_figure(8, tmp_path, seed=-3)


@pytest.mark.parametrize("fig,trials,seed", [
    (4, None, -3), (8, None, -3), (5, 0, 0), (5, None, -1), (8, 0, 0), (6, 2.5, 0), (7, 10, True),
])
def test_refused_reproduce_figure_leaves_no_directory(tmp_path, fig, trials, seed):
    out = tmp_path / "out"
    with pytest.raises(BadParams):
        reproduce_figure(fig, out, trials=trials, seed=seed)
    assert not out.exists()


def test_reproduce_figure5_files(tmp_path):
    paths = reproduce_figure(5, tmp_path, trials=120, seed=2)
    csvs = [p for p in paths if p.suffix == ".csv"]
    svgs = [p for p in paths if p.suffix == ".svg"]
    assert len(csvs) == 4 and len(svgs) == 4
    for p in paths:
        assert p.exists() and p.stat().st_size > 0
    header = csvs[0].read_text().splitlines()[0]
    assert header == "curve,x,y,ci_lo,ci_hi,method"
    assert svgs[0].read_text().startswith("<svg")


def test_reproduce_figure8_files(tmp_path):
    paths = reproduce_figure(8, tmp_path, trials=150, seed=3)
    assert len(paths) == 2
    body = paths[0].read_text()
    assert "design_exact" in body and "cyclic_full_tp" in body and "uniform_full_tp" in body
