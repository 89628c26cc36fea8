"""Monte-Carlo experiment harness for average-throughput studies.

A read cycle is modelled as a fresh instance draw; an experiment draws
``trials`` instances per load L, solves them, and aggregates

* mean L* and the average throughput ``rho_bar = mean(L*) * k / N``;
* the largest L* value observed with at least 95% probability (w.h.p. L*);
* the empirical full-throughput probability Pr(L* = L);

each with normal-approximation confidence intervals.  Per-trial randomness
is derived from (seed, policy, L, batch), so reports are bit-identical for
a fixed ExperimentSpec regardless of execution order.  Each batch of
``analysis.BATCH`` trials is one ``placement.draw_rows`` call, solved in one
step (``_batch_solver``), and drawn in the form its row solver reads, so no
cell builds packet rows it does not read: greedy cells, the oracle's cap
fallback included, by ``solvers.greedy_rows`` on the batch's solver stream,
on MU masks (on packets past 64 MUs); every other cyclic cell
(``cyclic_opt``, ``oracle``, ``matching_k1``, ``matching_k2n2``) by
``solvers.cyclic_rows`` on the arc starts; every other cell on N <= 64 MUs
at L <= ``ORACLE_TABLE_MAX_L`` by the Hall subset-union table
(``conditions.hall_l_stars``) on MU masks.  The other cells go to
``l_stars``, the one loop that runs a per-instance read solver, on each
packet row in turn.

``reproduce_figure`` renders the standard desk-scale experiment families
(throughput bound comparisons, average-throughput curves, full-throughput
probabilities and w.h.p. load curves) as CSV tables plus SVG charts.
"""

from __future__ import annotations

import csv
import io
import os
from dataclasses import dataclass, field, fields
from functools import partial
from math import floor, sqrt
from pathlib import Path

import numpy as np

from . import analysis
from ._svg import line_chart
from .conditions import MASK_MAX_N, hall_l_stars, hall_table_takes, t_max
from .errors import BadParams, EmptySamples, IncompatibleSolver, UnknownFigure
from .model import Instance
from .placement import (
    POLICIES,
    BlockDesign,
    build_lexicographic_packing,
    check_cell,
    check_design,
    draw_rows,
)
from .solvers import DEFAULT_ORACLE_CAP, SOLVERS, cyclic_rows, greedy_rows
# unused here: benchmarks/test_bench.py checks that the span tracer patches and
# restores this module's binding of solve_cyclic
from .solvers import solve_cyclic  # noqa: F401

_POLICY_CODE = {policy: code for code, policy in enumerate(POLICIES)}
# Largest L at which non-cyclic optimal cells (``oracle``, ``design_opt``,
# ``matching_k1``, ``matching_k2n2``) read the Hall table, which costs about
# 2^L * 10 ns per row; past it they run ``l_stars``.  On uniform cells (N =
# 12, 64, n = 1, 2, 6) and a design_opt cell (16 disjoint blocks, N = 64, n =
# 4, k = 3), 20k trials, best of 3 on a 2-core Xeon, the table took 0.20-0.32
# against 0.50-2.0 s at L = 11, 0.50-0.74 against 0.55-3.0 s at L = 12, and
# 1.5-1.9 against 0.60-0.99 s at L = 13.  Past the gate a design_opt cell
# raises what ``solve_design`` raises on its first refused row in draw order
# (ConditionViolated, or TooLarge from its hand-off to the oracle).
ORACLE_TABLE_MAX_L = 11

@dataclass(frozen=True)
class ExperimentSpec:
    """One ensemble experiment: policy, parameters, solver, trials, seed."""

    policy: str
    N: int
    k: int
    n: int
    L_range: tuple
    trials: int = 100_000
    seed: int = 0
    solver: str = "oracle"
    design_source: BlockDesign | str | None = None

    def __post_init__(self):
        loads = tuple(self.L_range)
        if not loads or any(isinstance(L, bool) or not isinstance(L, (int, np.integer))
                            for L in loads):
            raise BadParams(f"L_range must be a non-empty list of integers, got {self.L_range!r}")
        object.__setattr__(self, "L_range", tuple(map(int, loads)))
        for name in ("N", "k", "n", "trials", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise BadParams(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        check_cell(self.policy, self.N, self.n, self.k)
        if self.solver not in SOLVERS:
            raise BadParams(f"unknown solver {self.solver!r}")
        if self.trials < 1 or any(L < 1 for L in self.L_range):
            raise BadParams("trials and every L must be >= 1")
        if self.seed < 0:
            raise BadParams(f"seed must be >= 0, got {self.seed}")
        if not isinstance(self.design_source, (type(None), BlockDesign, str, os.PathLike)):
            raise BadParams(
                f"design_source must be a block design or a path, got {self.design_source!r}"
            )
        # the solver's domain; a design policy's design is checked by run_ensemble
        if self.solver == "matching_k1" and self.k != 1:
            raise IncompatibleSolver("matching_k1 requires k=1")
        if self.solver == "matching_k2n2" and not (self.k == 2 and self.n == 2):
            raise IncompatibleSolver("matching_k2n2 requires k=n=2")
        if self.solver == "cyclic_opt" and self.policy != "cyclic":
            raise IncompatibleSolver("cyclic_opt requires the cyclic policy")
        if self.solver == "design_opt" and self.policy != "design":
            raise IncompatibleSolver("design_opt requires the design policy and a design")

    def design(self) -> BlockDesign | None:
        if self.design_source is None:
            return None
        if isinstance(self.design_source, BlockDesign):
            return self.design_source
        return BlockDesign.load(self.design_source)


@dataclass(frozen=True)
class EnsembleRow:
    L: int
    mean_l_star: float
    rho_bar: float
    rho_bar_ci95: float
    whp_l_star: int
    pr_full_tp: float
    pr_full_tp_ci95: float
    trials: int
    solver: str


@dataclass(frozen=True)
class EnsembleReport:
    spec: ExperimentSpec
    rows: tuple = field(default=())

    CSV_COLUMNS = tuple(f.name for f in fields(EnsembleRow))

    def to_csv_string(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(self.CSV_COLUMNS)
        for r in self.rows:
            values = (getattr(r, name) for name in self.CSV_COLUMNS)
            w.writerow([f"{v:.10g}" if isinstance(v, float) else v for v in values])
        return buf.getvalue()

    def to_csv(self, path) -> None:
        Path(path).write_text(self.to_csv_string())


def whp_from_counts(counts, confidence: float = 0.95) -> int:
    """Largest v with empirical Pr(L* >= v) >= confidence (0 if none), where
    ``counts[v]`` samples took the value v."""
    counts = [int(c) for c in counts]
    total = sum(counts)
    if total == 0:
        raise EmptySamples("no L* samples")
    tail = 0
    for v in range(len(counts) - 1, -1, -1):
        tail += counts[v]
        if tail / total >= confidence:
            return v
    return 0


def whp_l_star(samples, confidence: float = 0.95) -> int:
    """Largest v with empirical Pr(L* >= v) >= confidence (0 if none)."""
    return whp_from_counts(np.bincount(np.asarray(list(samples), dtype=np.int64)), confidence)


def l_stars(policy: str, N: int, n: int, k: int, rows: np.ndarray, solve) -> np.ndarray:
    """L* of each row of a (B, L, n) packet array placed by ``policy``, as
    ``draw_rows`` gives it.

    ``solve`` maps an Instance to its L*, and runs once on every row, in
    order.  ``run_ensemble`` sends here only the non-cyclic cells past the
    Hall gate (see ``_batch_solver``).
    """
    # row by row, as one tolist of a whole batch ran the garbage collector 6x as often
    return np.array([solve(Instance(N, k, n, row.tolist(), policy)) for row in rows],
                    dtype=np.int64)


def _resolve_solver(spec: ExperimentSpec, L: int):
    """Spec name of the solver that runs one (policy, L) cell, plus the label
    recorded in the report (the oracle falls back to greedy above its
    enumeration cap)."""
    if spec.solver == "oracle" and L * spec.n > DEFAULT_ORACLE_CAP:
        return "greedy", "greedy(oracle-cap-fallback)"
    return spec.solver, spec.solver


def _batch_solver(spec: ExperimentSpec, name: str, L: int, design: BlockDesign | None):
    """(form, solve): the ``draw_rows`` form that one cell's batches are
    drawn in at load L, and solve(rows, gen), the L* of each row of one
    such batch by the spec solver ``name`` with the batch's solver
    Generator.  ``greedy_rows`` for greedy, on masks up to 64 MUs and on
    packets past them; else ``cyclic_rows`` on cyclic arc starts;
    else ``hall_l_stars`` on masks where ``hall_table_takes(N, L)`` and L <=
    ``ORACLE_TABLE_MAX_L``; else ``l_stars`` on packets.  The non-greedy
    solvers are optimal, so each route gives their L*, and the Hall table
    gives it on design rows where ``solve_design`` raises."""
    N, n, k = spec.N, spec.n, spec.k
    if name == "greedy":
        # a mask's lowest free bits are a sorted packet's first free MUs
        return ("masks" if N <= MASK_MAX_N else "packets",
                lambda rows, gen: greedy_rows(rows, N, k, gen).sum(axis=1))
    if spec.policy == "cyclic":
        return "starts", lambda rows, gen: cyclic_rows(rows, N, n, k)
    if hall_table_takes(N, L) and L <= ORACLE_TABLE_MAX_L:
        return "masks", lambda rows, gen: hall_l_stars(rows, N, k)
    return "packets", lambda rows, gen: l_stars(
        spec.policy, N, n, k, rows, lambda inst: SOLVERS[name](inst, design, gen).l_star)


def run_ensemble(spec: ExperimentSpec) -> EnsembleReport:
    """Draw, solve and aggregate; deterministic for a fixed spec."""
    design = spec.design()
    if spec.policy == "design":
        check_design(design, spec.N, spec.n)
    rows = []
    for L in spec.L_range:
        name, label = _resolve_solver(spec, L)
        form, solve_batch = _batch_solver(spec, name, L, design)
        counts = np.zeros(L + 1, dtype=np.int64)
        for batch_idx, lo in enumerate(range(0, spec.trials, analysis.BATCH)):
            ss = np.random.SeedSequence([spec.seed, _POLICY_CODE[spec.policy], L, batch_idx])
            # separate draw and solver streams: solver randomness (greedy visit
            # order) must not shift the instance sequence, so runs with the
            # same seed see identical instances whatever the solver
            draw_ss, solve_ss = ss.spawn(2)
            draw_gen = np.random.Generator(np.random.PCG64(draw_ss))
            solve_gen = np.random.Generator(np.random.PCG64(solve_ss))
            drawn = draw_rows(spec.policy, spec.N, spec.n, L,
                              min(analysis.BATCH, spec.trials - lo), draw_gen, design, form)
            counts += np.bincount(solve_batch(drawn, solve_gen), minlength=L + 1)

        T = spec.trials
        sum_l = sum(v * c for v, c in enumerate(counts.tolist()))
        sum_l2 = sum(v * v * c for v, c in enumerate(counts.tolist()))
        mean = sum_l / T
        var = (sum_l2 - sum_l * sum_l / T) / (T - 1) if T > 1 else 0.0
        scale = spec.k / spec.N
        p_full = int(counts[L]) / T
        whp = whp_from_counts(counts)
        rows.append(
            EnsembleRow(
                L=L,
                mean_l_star=mean,
                rho_bar=mean * scale,
                rho_bar_ci95=1.96 * sqrt(max(var, 0.0) / T) * scale,
                whp_l_star=whp,
                pr_full_tp=p_full,
                pr_full_tp_ci95=1.96 * sqrt(max(p_full * (1 - p_full), 0.0) / T),
                trials=T,
                solver=label,
            )
        )
    return EnsembleReport(spec=spec, rows=tuple(rows))


# ---------------------------------------------------------------------------
# figure reproduction
# ---------------------------------------------------------------------------

def _write_figure(out_dir: Path, stem: str, title: str, xlabel: str, ylabel: str,
                  rows) -> list:
    """Write ``stem``.csv and ``stem``.svg; returns their paths.

    Each row is (series, curve, x, y, ci, method).  The CSV is the long
    table curve, x, y, ci_lo, ci_hi, method in row order; the chart draws
    one line per series, in order of first appearance.
    """
    csv_path = out_dir / f"{stem}.csv"
    series: dict = {}
    with open(csv_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["curve", "x", "y", "ci_lo", "ci_hi", "method"])
        for name, curve, x, y, ci, method in rows:
            w.writerow([curve, x, f"{y:.10g}", f"{y - ci:.10g}", f"{y + ci:.10g}", method])
            xs, ys = series.setdefault(name, ([], []))
            xs.append(x)
            ys.append(y)
    svg_path = out_dir / f"{stem}.svg"
    line_chart(svg_path, title, xlabel, ylabel,
               [(name, xs, ys) for name, (xs, ys) in series.items()])
    return [csv_path, svg_path]


def _estimate_rows(x, named_estimates) -> list:
    return [(name, name, x, est.value, 1.96 * est.stderr, est.method)
            for name, est in named_estimates]


def _figure4(out_dir: Path, trials: int, seed: int) -> list:
    """Full-throughput bound comparison for n=k+1, N=k^2+k+1, L=3."""
    L = 3
    rows = []
    for k in range(2, 8):
        N, n = k * k + k + 1, k + 1
        rows += _estimate_rows(k, (
            ("design_exact", analysis.p_pair_design(N, L)),  # b = N blocks
            ("uniform_cover_bound", analysis.p_cover_uniform(N, n, k, L)),
            ("cyclic_pair_bound", analysis.p_pair_cyclic(N, n, floor(t_max(n, k, L)), L)),
            ("cyclic_cover_bound", analysis.p_cover_cyclic(N, n, k, L)),
            ("cyclic_full_tp", analysis.p_full_throughput_exact("cyclic", N, n, k, L, seed=seed)),
        ))
    return _write_figure(out_dir, "figure4_full_throughput_bounds",
                         "Full-throughput probability, n=k+1, N=k^2+k+1, L=3",
                         "k", "Pr(L* = L)", rows)


_UNIFORM_OPT = ("uniform", "oracle", "uniform_opt")
_CYCLIC_OPT = ("cyclic", "cyclic_opt", "cyclic_opt")
# figure -> (file stem, loads, curves as (policy, solver, series), report
# column plotted, its ci95 column or None, chart title, y label)
_PANELS = {
    # average throughput vs load
    5: ("figure5_rho_bar", range(1, 7),
        (_UNIFORM_OPT, ("uniform", "greedy", "uniform_greedy"), _CYCLIC_OPT),
        "rho_bar", "rho_bar_ci95", "Average throughput", "rho_bar"),
    # empirical Pr(L*=L) vs load
    6: ("figure6_full_tp", range(1, 5), (_UNIFORM_OPT, _CYCLIC_OPT),
        "pr_full_tp", "pr_full_tp_ci95", "Full-throughput probability", "Pr(L*=L)"),
    # w.h.p. L* vs load
    7: ("figure7_whp_lstar", range(1, 7), (_UNIFORM_OPT, _CYCLIC_OPT),
        "whp_l_star", None, "w.h.p. L*", "L* at 95%"),
}


def _panels(fig: int, out_dir: Path, trials: int, seed: int) -> list:
    """One Monte-Carlo chart per n in 3..6 of a report column against load,
    N=12, k=3 (figures 5-7, see ``_PANELS``)."""
    stem, loads, curves, column, ci_column, title, ylabel = _PANELS[fig]
    N, k = 12, 3
    paths = []
    for n in (3, 4, 5, 6):
        rows = []
        for policy, solver, name in curves:
            rep = run_ensemble(ExperimentSpec(
                policy=policy, N=N, k=k, n=n, L_range=tuple(loads),
                trials=trials, seed=seed, solver=solver,
            ))
            for r in rep.rows:
                ci = getattr(r, ci_column) if ci_column else 0.0
                rows.append((name, f"{name}[{r.solver}]", r.L, float(getattr(r, column)), ci,
                             "monte_carlo"))
        paths += _write_figure(out_dir, f"{stem}_n{n}", f"{title}, N={N}, k={k}, n={n}",
                               "L", ylabel, rows)
    return paths


def _figure8(out_dir: Path, trials: int, seed: int) -> list:
    """Full-throughput probability vs N for k=3, n=5, L=3.

    Design blocks come from the deterministic lexicographic packing with
    intersection bound floor(t_max) = 2; its size is a certified lower
    bound on the best packing for each N.
    """
    k, n, L = 3, 5, 3
    t_int = floor(t_max(n, k, L))
    rows = []
    for N in range(9, 18):
        packing = build_lexicographic_packing(N, n, t_int)
        rows += _estimate_rows(N, (
            ("design_exact", analysis.p_pair_design(packing.b, L)),
            ("cyclic_full_tp", analysis.p_full_throughput_exact("cyclic", N, n, k, L, seed=seed)),
            ("uniform_full_tp", analysis.p_full_throughput_exact(
                "uniform", N, n, k, L, samples=trials, seed=seed)),
        ))
    return _write_figure(out_dir, "figure8_full_tp_vs_N",
                         f"Full-throughput probability, k={k}, n={n}, L={L}",
                         "N", "Pr(L* = L)", rows)


FIGURES = {4: _figure4, **{fig: partial(_panels, fig) for fig in _PANELS}, 8: _figure8}
FIGURE_DEFAULT_TRIALS = {4: 10_000, 5: 20_000, 6: 20_000, 7: 20_000, 8: 10_000}


def reproduce_figure(fig: int, out_dir, trials: int | None = None, seed: int = 0) -> list:
    """Write the CSV and SVG artifacts of one experiment family; returns paths."""
    if fig not in FIGURES:
        raise UnknownFigure(f"figure must be one of {sorted(FIGURES)}, got {fig}")
    t = FIGURE_DEFAULT_TRIALS[fig] if trials is None else trials
    # checked before the output directory is made, so a refused call leaves none
    if any(isinstance(v, bool) or not isinstance(v, (int, np.integer)) or v < least
           for v, least in ((t, 1), (seed, 0))):
        raise BadParams(f"need integers trials >= 1 and seed >= 0, got {t!r} and {seed!r}")
    Path(out_dir).mkdir(parents=True, exist_ok=True)
    return FIGURES[fig](Path(out_dir), int(t), int(seed))
