"""Alternating parent/change pairs of ``benchmarks/run.py``, summarised.

Usage:

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload sim_cyclic \
        --pairs 10 --seconds 28 --figure 4 --out pairs.json

PARENT_DIR and CHANGE_DIR are two source checkouts.  Pair i runs
``benchmarks/run.py --workload W --seed 2000+i --seconds S --trace 0`` once
in each checkout, one process at a time; odd pairs (1, 3, ...) run the parent
first and even pairs the change first.  ``--workload`` may be given more than
once.  For each end-to-end metric of CHANGE_DIR's ``BENCHMARK.json`` it
prints and writes the median and quartiles per side, the change/parent ratio
of the medians, the number of pairs the change wins, whether the change stays
within the metric's bound, and whether the gap between the medians exceeds
the parent's interquartile range; and per side the operations attempted and
failed.

``--figure F``, also repeatable, times ``codedswitch reproduce --figure F
--seed 5`` (default trials) once in each checkout, one process per side, and
compares the SHA-256 of the CSV and SVG files the two sides write.  The
k-th figure given runs the parent first when k is odd.  Its times go into
the same JSON, under ``figures``.

``--trace W``, also repeatable, runs ``benchmarks/run.py --workload W --seed
3 --seconds 8 --trace 1`` once in each checkout, the parent first for the
odd-numbered ones as above, and writes each side's per-layer values and its
operations attempted and failed under ``traced_round``.  Uses the standard
library only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SIDES = ("parent", "change")
SEED0 = 2001  # seed of pair 1; earlier BENCH files used seeds 2001-2010
FIGURE_SEED = 5
TRACE_SEED, TRACE_SECONDS = 3, 8
REPRODUCE = "import sys; from codedswitch.cli import main; sys.exit(main(sys.argv[1:]))"


def order(i: int) -> tuple:
    """The sides in the order the i-th pair, figure or trace runs them."""
    return SIDES if i % 2 else SIDES[::-1]


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    """One ``run.py`` process; its JSON result, or a failed result on error."""
    cmd = [sys.executable, "benchmarks/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        result = None
    if proc.returncode != 0 or not isinstance(result, dict):
        tail = (proc.stderr.strip().splitlines() or [""])[-1]
        print(f"  {checkout}: exit {proc.returncode} {tail}", file=sys.stderr)
        return {"correct": False, "attempted": 0, "failed": 1, "metrics": {}}
    return result


def quartiles(runs: list) -> dict:
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": runs}


def summarise(metric: dict, results: dict) -> dict | None:
    """Per-side quartiles and the pair comparison of one end-to-end metric,
    over the pairs in which both sides reported it (None if fewer than two)."""
    name = metric["name"]
    pairs = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
             for p, c in zip(results["parent"], results["change"])
             if name in p["metrics"] and name in c["metrics"]]
    if len(pairs) < 2:
        return None
    higher = metric["better"] == "higher"
    parent, change = (quartiles([pair[i] for pair in pairs]) for i in (0, 1))
    p_med, c_med = parent["median"], change["median"]
    bound = metric["bound"]
    return {
        "unit": metric["unit"],
        "better": metric["better"],
        "bound": bound,
        "parent": parent,
        "change": change,
        "ratio_change_over_parent": c_med / p_med if p_med else None,
        "change_wins_pairs": sum((c > p) if higher else (c < p) for p, c in pairs),
        "within_bound": c_med >= p_med * (1 - bound) if higher else c_med <= p_med * (1 + bound),
        "median_gap_exceeds_parent_iqr": abs(c_med - p_med) > parent["q3"] - parent["q1"],
    }


def run_pairs(dirs: dict, workload: str, pairs: int, seconds: float, metrics: list) -> dict:
    results = {side: [] for side in SIDES}
    for i in range(1, pairs + 1):
        for side in order(i):
            results[side].append(run_once(dirs[side], workload, SEED0 + i - 1, seconds))
        print(f"{workload} pair {i}/{pairs} done ({order(i)[0]} first)", file=sys.stderr)
    summary = {
        "attempted": {side: sum(r["attempted"] for r in results[side]) for side in SIDES},
        "failed": {side: sum(r["failed"] for r in results[side]) for side in SIDES},
        "all_correct": {side: all(r["correct"] for r in results[side]) for side in SIDES},
        "metrics": {},
    }
    for metric in metrics:
        row = summarise(metric, results)
        if row is not None:
            summary["metrics"][metric["name"]] = row
    return summary


def time_figure(checkout: Path, fig: int) -> dict:
    """Wall seconds of one ``reproduce`` process in ``checkout``, its exit code
    and the SHA-256 of each file it wrote."""
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    with tempfile.TemporaryDirectory() as out:
        cmd = [sys.executable, "-c", REPRODUCE, "reproduce", "--figure", str(fig),
               "--seed", str(FIGURE_SEED), "--out", out]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True)
        wall = time.perf_counter() - t0
        hashes = {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
                  for f in sorted(Path(out).iterdir()) if f.suffix in (".csv", ".svg")}
    return {"wall_s": round(wall, 3), "exit": proc.returncode, "sha256": hashes}


def time_figures(dirs: dict, figures: list) -> dict:
    timed = {}
    for i, fig in enumerate(figures, 1):
        runs = {side: time_figure(dirs[side], fig) for side in order(i)}
        timed[str(fig)] = {
            "order": list(order(i)),
            "wall_s": {side: runs[side]["wall_s"] for side in SIDES},
            "exit": {side: runs[side]["exit"] for side in SIDES},
            "files": len(runs["change"]["sha256"]),
            "artifacts_identical": runs["parent"]["sha256"] == runs["change"]["sha256"],
        }
        print(f"figure {fig}: {timed[str(fig)]}", file=sys.stderr)
    return timed


def trace_rounds(dirs: dict, workloads: list) -> dict:
    """Per side, the per-layer values of one traced round of each workload,
    with the operations it attempted and failed."""
    traced = {}
    for i, workload in enumerate(workloads, 1):
        runs = {side: run_once(dirs[side], workload, TRACE_SEED, TRACE_SECONDS, trace=1)
                for side in order(i)}
        traced[workload] = {
            "order": list(order(i)),
            **{side: {"attempted": runs[side]["attempted"], "failed": runs[side]["failed"],
                      "values": {name: m["value"] for name, m in runs[side]["metrics"].items()}}
               for side in SIDES},
        }
        print(f"traced {workload}: attempted {[runs[s]['attempted'] for s in SIDES]},"
              f" failed {[runs[s]['failed'] for s in SIDES]}", file=sys.stderr)
    return traced


def print_summary(workload: str, summary: dict) -> None:
    print(f"\n{workload}: attempted {summary['attempted']}, failed {summary['failed']}")
    print(f"{'metric':<14}{'parent median [q1, q3]':>36}{'change median [q1, q3]':>36}"
          f"{'ratio':>8}{'wins':>6}{'bound':>7}")
    for name, m in summary["metrics"].items():
        cells = [f"{m[s]['median']:.6g} [{m[s]['q1']:.6g}, {m[s]['q3']:.6g}]" for s in SIDES]
        ratio = m["ratio_change_over_parent"]
        print(f"{name:<14}{cells[0]:>36}{cells[1]:>36}"
              f"{(f'{ratio:.4f}' if ratio is not None else '-'):>8}"
              f"{m['change_wins_pairs']:>6}{('ok' if m['within_bound'] else 'OUT'):>7}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent_dir", type=Path)
    ap.add_argument("change_dir", type=Path)
    ap.add_argument("--workload", action="append", default=[])
    ap.add_argument("--figure", action="append", type=int, default=[])
    ap.add_argument("--trace", action="append", default=[], metavar="WORKLOAD")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=28)
    ap.add_argument("--out", type=Path, default=Path("bench_pairs.json"))
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2")
    if not (args.workload or args.figure or args.trace):
        ap.error("give at least one --workload, --figure or --trace")
    dirs = {"parent": args.parent_dir.resolve(), "change": args.change_dir.resolve()}
    metrics = json.loads((dirs["change"] / "BENCHMARK.json").read_text())["end_to_end"]
    report = {
        "command": f"python3 benchmarks/run.py --workload W --seed S --seconds {args.seconds:g}"
                   " --trace 0",
        "design": f"{args.pairs} pairs per workload, seeds {SEED0}-"
                  f"{SEED0 + args.pairs - 1}; odd pairs run the parent first, even pairs"
                  " the change first; one process at a time",
        "workloads": {},
    }
    for workload in args.workload:
        summary = run_pairs(dirs, workload, args.pairs, args.seconds, metrics)
        report["workloads"][workload] = summary
        print_summary(workload, summary)
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    if args.figure:
        report["figures"] = {
            "command": f"codedswitch reproduce --figure F --seed {FIGURE_SEED} --out DIR"
                       " (default trials), one process per side, wall seconds",
            "values": time_figures(dirs, args.figure),
        }
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    if args.trace:
        report["traced_round"] = {
            "command": f"python3 benchmarks/run.py --workload W --seed {TRACE_SEED}"
                       f" --seconds {TRACE_SECONDS} --trace 1",
            "values": trace_rounds(dirs, args.trace),
        }
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
