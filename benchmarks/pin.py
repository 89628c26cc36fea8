"""Regenerate reference.json, the values the benchmark's checks pin.

    python3 benchmarks/pin.py        # about four minutes on one core

* ``exact``: figure 4 rows and the exact ``analyze`` cells, as printed.
* ``mc``: reference rows for every Monte-Carlo report row the benchmark
  checks, at ``mc_trials`` trials per load (see checks.check_report).
* ``identity``: SHA-256 of the ``simulate`` reports at the identity seed.

Run it only when the program is known to be correct, and say why in
CHANGES.md: it redefines what the benchmark accepts.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import workloads as w  # noqa: E402
from codedswitch import cli, ensemble  # noqa: E402

MC_TRIALS = 30_000
MC_SEED = 510
MC_RUNS = (("cyclic", "cyclic_opt"), ("cyclic", "greedy"),
           ("uniform", "oracle"), ("uniform", "greedy"))


class _Prog:
    cli = cli


def exact(work: Path) -> dict:
    prog = _Prog()
    design = work / "plane_q3.txt"
    w.run_cli(prog, ["design", "build", "--kind", "plane", "--q", 3, "--out", design])
    cells = {}
    for argv, _, key in w.EXACT_CELLS:
        argv = ["analyze"] + [str(design) if a == "{design}" else a for a in argv]
        cells[key] = float(w.run_cli(prog, argv).split(",")[0])
    w.run_cli(prog, ["reproduce", "--figure", 4, "--out", work / "figure4"])
    text = (work / "figure4" / "figure4_full_throughput_bounds.csv").read_text()
    figure4 = {f"{r[0]}|{r[1]}": float(r[2]) for r in list(csv.reader(io.StringIO(text)))[1:]}
    return {"figure4": figure4, "cells": cells}


def monte_carlo() -> dict:
    ref = {}
    for policy, solver in MC_RUNS:
        for n in w.SIM_NS:
            spec = ensemble.ExperimentSpec(policy=policy, N=w.SIM_N, k=w.SIM_K, n=n,
                                           L_range=w.LOADS, trials=MC_TRIALS, seed=MC_SEED,
                                           solver=solver)
            for row in ensemble.run_ensemble(spec).rows:
                sd_mean = row.rho_bar_ci95 * w.SIM_N / (1.96 * w.SIM_K)
                ref[checks.mc_key(policy, row.solver, n, row.L)] = {
                    "mean": row.mean_l_star, "var": sd_mean ** 2 * MC_TRIALS,
                    "pr_full": row.pr_full_tp}
            print(f"pinned {policy}/{solver}/n={n}", file=sys.stderr)
    return ref


def identity(work: Path) -> dict:
    prog = _Prog()
    hashes = {}
    for name in ("sim_cyclic", "sim_uniform"):
        for policy, solver, n in w.make(name).grid:
            spec, out = work / "spec.json", work / "report.csv"
            w.Simulate._write_spec(spec, (policy, solver, n), w.IDENTITY_TRIALS, w.IDENTITY_SEED)
            w.run_cli(prog, ["simulate", "--spec", spec, "--out", out])
            hashes[f"{policy}/{solver}/n={n}"] = hashlib.sha256(out.read_bytes()).hexdigest()
    return hashes


def main() -> int:
    work = ROOT / ".bench_work" / "pin"
    work.mkdir(parents=True, exist_ok=True)
    try:
        ref = {"exact": exact(work),
               "identity": {"seed": w.IDENTITY_SEED, "trials": w.IDENTITY_TRIALS,
                            "hashes": identity(work)},
               "mc_trials": MC_TRIALS, "mc_seed": MC_SEED, "mc": monte_carlo()}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    checks.REFERENCE_PATH.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
