"""Monte-Carlo experiment harness for average-throughput studies.

A read cycle is modelled as a fresh instance draw; an experiment draws
``trials`` instances per load L, solves each, and aggregates

* mean L* and the average throughput ``rho_bar = mean(L*) * k / N``;
* the largest L* value observed with at least 95% probability (w.h.p. L*);
* the empirical full-throughput probability Pr(L* = L);

each with normal-approximation confidence intervals.  Per-trial randomness
is derived from (seed, policy, L, batch), so reports are bit-identical for
a fixed ExperimentSpec regardless of execution order.

Cyclic cells with a deterministic solver draw each batch's arc starts in
one call and solve one instance per rotation class (``analysis.
cyclic_l_stars``): L* does not change when the MUs are rotated or the
packets reordered, and the batched draw yields the same stream as
per-instance draws, so reports are the same as solving every draw.

``reproduce_figure`` renders the standard desk-scale experiment families
(throughput bound comparisons, average-throughput curves, full-throughput
probabilities and w.h.p. load curves) as CSV tables plus SVG charts.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from math import floor, sqrt
from pathlib import Path

import numpy as np

from . import analysis
from ._svg import line_chart
from .conditions import t_max
from .errors import BadParams, EmptySamples, IncompatibleSolver, UnknownFigure
from .model import Instance
from .placement import (
    BlockDesign,
    build_lexicographic_packing,
    draw_cyclic,
    draw_design,
    draw_uniform,
    with_k,
)
from .solvers import (
    DEFAULT_ORACLE_CAP,
    SOLVER_KINDS,
    solve_cyclic,
    solve_design,
    solve_greedy,
    solve_matching_k1,
    solve_matching_k2n2,
    solve_oracle,
)

POLICIES = ("uniform", "cyclic", "design")
_POLICY_CODE = {"uniform": 0, "cyclic": 1, "design": 2}
BATCH = 4096


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
        object.__setattr__(self, "L_range", tuple(int(x) for x in self.L_range))
        if self.policy not in POLICIES:
            raise BadParams(f"unknown policy {self.policy!r}")
        if self.solver not in SOLVER_KINDS:
            raise BadParams(f"unknown solver {self.solver!r}")
        if self.trials < 1 or any(L < 1 for L in self.L_range):
            raise BadParams("trials and every L must be >= 1")

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

    CSV_COLUMNS = (
        "L",
        "mean_l_star",
        "rho_bar",
        "rho_bar_ci95",
        "whp_l_star",
        "pr_full_tp",
        "pr_full_tp_ci95",
        "trials",
        "solver",
    )

    def to_csv_string(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(self.CSV_COLUMNS)
        for r in self.rows:
            w.writerow(
                [
                    r.L,
                    f"{r.mean_l_star:.10g}",
                    f"{r.rho_bar:.10g}",
                    f"{r.rho_bar_ci95:.10g}",
                    r.whp_l_star,
                    f"{r.pr_full_tp:.10g}",
                    f"{r.pr_full_tp_ci95:.10g}",
                    r.trials,
                    r.solver,
                ]
            )
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


def _resolve_solver(spec: ExperimentSpec, L: int, design: BlockDesign | None):
    """Solver callable for one (policy, L) cell, plus the label recorded in
    the report (the oracle falls back to greedy above its enumeration cap)."""
    kind = spec.solver
    if kind == "oracle":
        if L * spec.n > DEFAULT_ORACLE_CAP:
            return (lambda inst, gen: solve_greedy(inst, gen)), "greedy(oracle-cap-fallback)"
        return (lambda inst, gen: solve_oracle(inst)), "oracle"
    if kind == "greedy":
        return (lambda inst, gen: solve_greedy(inst, gen)), "greedy"
    if kind == "matching_k1":
        if spec.k != 1:
            raise IncompatibleSolver("matching_k1 requires k=1")
        return (lambda inst, gen: solve_matching_k1(inst)), "matching_k1"
    if kind == "matching_k2n2":
        if not (spec.k == 2 and spec.n == 2):
            raise IncompatibleSolver("matching_k2n2 requires k=n=2")
        return (lambda inst, gen: solve_matching_k2n2(inst)), "matching_k2n2"
    if kind == "cyclic_opt":
        if spec.policy != "cyclic":
            raise IncompatibleSolver("cyclic_opt requires the cyclic policy")
        return (lambda inst, gen: solve_cyclic(inst)), "cyclic_opt"
    if kind == "design_opt":
        if spec.policy != "design" or design is None:
            raise IncompatibleSolver("design_opt requires the design policy and a design")
        return (lambda inst, gen: solve_design(inst, design)), "design_opt"
    raise IncompatibleSolver(f"unknown solver {kind!r}")


def _draw(spec: ExperimentSpec, L: int, gen, design: BlockDesign | None) -> Instance:
    if spec.policy == "uniform":
        return with_k(draw_uniform(spec.N, spec.n, L, gen), spec.k)
    if spec.policy == "cyclic":
        return with_k(draw_cyclic(spec.N, spec.n, L, gen), spec.k)
    return with_k(draw_design(design, L, gen), spec.k)


def run_ensemble(spec: ExperimentSpec) -> EnsembleReport:
    """Draw, solve and aggregate; deterministic for a fixed spec."""
    design = spec.design()
    if spec.policy == "design":
        if design is None:
            raise BadParams("design policy requires design_source")
        if design.N != spec.N or design.n != spec.n:
            raise BadParams(
                f"design is on (N={design.N}, n={design.n}), "
                f"spec says (N={spec.N}, n={spec.n})"
            )
    rows = []
    for L in spec.L_range:
        solver, label = _resolve_solver(spec, L, design)
        deterministic = not label.startswith("greedy")
        canonical = deterministic and spec.policy == "cyclic"
        cache: dict = {}
        counts = np.zeros(L + 1, dtype=np.int64)
        done = 0
        batch_idx = 0
        while done < spec.trials:
            size = min(BATCH, spec.trials - done)
            ss = np.random.SeedSequence(
                [spec.seed, _POLICY_CODE[spec.policy], L, batch_idx]
            )
            # separate draw and solver streams: solver randomness (greedy visit
            # order) must not shift the instance sequence, so runs with the
            # same seed see identical instances whatever the solver
            draw_ss, solve_ss = ss.spawn(2)
            draw_gen = np.random.Generator(np.random.PCG64(draw_ss))
            solve_gen = np.random.Generator(np.random.PCG64(solve_ss))
            if canonical:
                starts = draw_gen.integers(0, spec.N, size=(size, L))
                ls = analysis.cyclic_l_stars(
                    starts, spec.N, spec.n, spec.k,
                    lambda inst: solver(inst, solve_gen).l_star, cache,
                )
            else:
                ls = []
                for _ in range(size):
                    inst = _draw(spec, L, draw_gen, design)
                    if deterministic:
                        hit = cache.get(inst.packets)
                        if hit is None:
                            hit = cache[inst.packets] = solver(inst, solve_gen).l_star
                        ls.append(hit)
                    else:
                        ls.append(solver(inst, solve_gen).l_star)
            counts += np.bincount(ls, minlength=L + 1)
            done += size
            batch_idx += 1

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

def _write_curves_csv(path, rows) -> None:
    """Long-format curve table: curve, x, y, ci_lo, ci_hi, method."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["curve", "x", "y", "ci_lo", "ci_hi", "method"])
        for curve, x, y, ci, method in rows:
            w.writerow([curve, x, f"{y:.10g}", f"{y - ci:.10g}", f"{y + ci:.10g}", method])


def _figure4(out_dir: Path, trials: int, seed: int) -> list:
    """Full-throughput bound comparison for n=k+1, N=k^2+k+1, L=3."""
    ks = range(2, 8)
    L = 3
    rows = []
    series = {}
    for k in ks:
        N, n = k * k + k + 1, k + 1
        b = N
        p_des = analysis.p_pair_design(b, L)
        p_cov_uni = analysis.p_cover_uniform(N, n, k, L)
        t_int = floor(t_max(n, k, L))
        p_pair_cyc = analysis.p_pair_cyclic(N, n, t_int, L)
        p_cov_cyc = analysis.p_cover_cyclic(N, n, k, L)
        p_cyc = analysis.p_full_throughput_exact("cyclic", N, n, k, L, seed=seed)
        for name, est in (
            ("design_exact", p_des),
            ("uniform_cover_bound", p_cov_uni),
            ("cyclic_pair_bound", p_pair_cyc),
            ("cyclic_cover_bound", p_cov_cyc),
            ("cyclic_full_tp", p_cyc),
        ):
            rows.append((name, k, est.value, 1.96 * est.stderr, est.method))
            series.setdefault(name, ([], []))
            series[name][0].append(k)
            series[name][1].append(est.value)
    csv_path = out_dir / "figure4_full_throughput_bounds.csv"
    _write_curves_csv(csv_path, rows)
    svg_path = out_dir / "figure4_full_throughput_bounds.svg"
    line_chart(
        svg_path,
        "Full-throughput probability, n=k+1, N=k^2+k+1, L=3",
        "k",
        "Pr(L* = L)",
        [(name, xs, ys) for name, (xs, ys) in series.items()],
    )
    return [csv_path, svg_path]


def _panel_specs(policy: str, solver: str, N: int, k: int, L_range, trials: int, seed: int):
    for n in (3, 4, 5, 6):
        yield n, ExperimentSpec(
            policy=policy, N=N, k=k, n=n, L_range=tuple(L_range),
            trials=trials, seed=seed, solver=solver,
        )


def _figure5(out_dir: Path, trials: int, seed: int) -> list:
    """Average throughput vs load, N=12, k=3, one panel per n in 3..6."""
    N, k = 12, 3
    L_range = tuple(range(1, 7))
    paths = []
    for n in (3, 4, 5, 6):
        runs = []
        for policy, solver, label in (
            ("uniform", "oracle", "uniform_opt"),
            ("uniform", "greedy", "uniform_greedy"),
            ("cyclic", "cyclic_opt", "cyclic_opt"),
        ):
            spec = ExperimentSpec(
                policy=policy, N=N, k=k, n=n, L_range=L_range,
                trials=trials, seed=seed, solver=solver,
            )
            runs.append((label, run_ensemble(spec)))
        rows = []
        series = []
        for label, rep in runs:
            xs, ys = [], []
            for r in rep.rows:
                rows.append((f"{label}[{r.solver}]", r.L, r.rho_bar, r.rho_bar_ci95, "monte_carlo"))
                xs.append(r.L)
                ys.append(r.rho_bar)
            series.append((label, xs, ys))
        csv_path = out_dir / f"figure5_rho_bar_n{n}.csv"
        _write_curves_csv(csv_path, rows)
        svg_path = out_dir / f"figure5_rho_bar_n{n}.svg"
        line_chart(svg_path, f"Average throughput, N={N}, k={k}, n={n}", "L", "rho_bar", series)
        paths += [csv_path, svg_path]
    return paths


def _figure6(out_dir: Path, trials: int, seed: int) -> list:
    """Empirical Pr(L*=L) vs load for uniform and cyclic, N=12, k=3."""
    N, k = 12, 3
    L_range = tuple(range(1, 5))
    paths = []
    for n in (3, 4, 5, 6):
        rows = []
        series = []
        for policy, solver, label in (
            ("uniform", "oracle", "uniform_opt"),
            ("cyclic", "cyclic_opt", "cyclic_opt"),
        ):
            spec = ExperimentSpec(
                policy=policy, N=N, k=k, n=n, L_range=L_range,
                trials=trials, seed=seed, solver=solver,
            )
            rep = run_ensemble(spec)
            xs, ys = [], []
            for r in rep.rows:
                rows.append((f"{label}[{r.solver}]", r.L, r.pr_full_tp, r.pr_full_tp_ci95, "monte_carlo"))
                xs.append(r.L)
                ys.append(r.pr_full_tp)
            series.append((label, xs, ys))
        csv_path = out_dir / f"figure6_full_tp_n{n}.csv"
        _write_curves_csv(csv_path, rows)
        svg_path = out_dir / f"figure6_full_tp_n{n}.svg"
        line_chart(svg_path, f"Full-throughput probability, N={N}, k={k}, n={n}", "L", "Pr(L*=L)", series)
        paths += [csv_path, svg_path]
    return paths


def _figure7(out_dir: Path, trials: int, seed: int) -> list:
    """w.h.p. L* vs load for uniform and cyclic, N=12, k=3."""
    N, k = 12, 3
    L_range = tuple(range(1, 7))
    paths = []
    for n in (3, 4, 5, 6):
        rows = []
        series = []
        for policy, solver, label in (
            ("uniform", "oracle", "uniform_opt"),
            ("cyclic", "cyclic_opt", "cyclic_opt"),
        ):
            spec = ExperimentSpec(
                policy=policy, N=N, k=k, n=n, L_range=L_range,
                trials=trials, seed=seed, solver=solver,
            )
            rep = run_ensemble(spec)
            xs, ys = [], []
            for r in rep.rows:
                rows.append((f"{label}[{r.solver}]", r.L, float(r.whp_l_star), 0.0, "monte_carlo"))
                xs.append(r.L)
                ys.append(float(r.whp_l_star))
            series.append((label, xs, ys))
        csv_path = out_dir / f"figure7_whp_lstar_n{n}.csv"
        _write_curves_csv(csv_path, rows)
        svg_path = out_dir / f"figure7_whp_lstar_n{n}.svg"
        line_chart(svg_path, f"w.h.p. L*, N={N}, k={k}, n={n}", "L", "L* at 95%", series)
        paths += [csv_path, svg_path]
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
    series: dict = {}
    for N in range(9, 18):
        packing = build_lexicographic_packing(N, n, t_int)
        p_des = analysis.p_pair_design(packing.b, L)
        p_cyc = analysis.p_full_throughput_exact("cyclic", N, n, k, L, seed=seed)
        p_uni = analysis.p_full_throughput_exact(
            "uniform", N, n, k, L, samples=trials, seed=seed
        )
        for name, est in (
            ("design_exact", p_des),
            ("cyclic_full_tp", p_cyc),
            ("uniform_full_tp", p_uni),
        ):
            rows.append((name, N, est.value, 1.96 * est.stderr, est.method))
            series.setdefault(name, ([], []))
            series[name][0].append(N)
            series[name][1].append(est.value)
    csv_path = out_dir / "figure8_full_tp_vs_N.csv"
    _write_curves_csv(csv_path, rows)
    svg_path = out_dir / "figure8_full_tp_vs_N.svg"
    line_chart(
        svg_path,
        f"Full-throughput probability, k={k}, n={n}, L={L}",
        "N",
        "Pr(L* = L)",
        [(name, xs, ys) for name, (xs, ys) in series.items()],
    )
    return [csv_path, svg_path]


FIGURES = {4: _figure4, 5: _figure5, 6: _figure6, 7: _figure7, 8: _figure8}
FIGURE_DEFAULT_TRIALS = {4: 10_000, 5: 20_000, 6: 20_000, 7: 20_000, 8: 10_000}


def reproduce_figure(fig: int, out_dir, trials: int | None = None, seed: int = 0) -> list:
    """Write the CSV and SVG artifacts of one experiment family; returns paths."""
    if fig not in FIGURES:
        raise UnknownFigure(f"figure must be one of {sorted(FIGURES)}, got {fig}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    t = FIGURE_DEFAULT_TRIALS[fig] if trials is None else int(trials)
    return [Path(p) for p in FIGURES[fig](out, t, seed)]
