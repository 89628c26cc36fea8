"""The benchmark's workloads: their inputs, operations and output checks.

An operation is one ``codedswitch`` CLI command, run in-process through
``codedswitch.cli.main``, or one codec read cycle.  A round is one pass
over a workload's grid; every round draws fresh inputs from the run seed,
and all input files are written during set-up.  Each operation carries the
work it does in fixed units, so a rate is work over measured time.

Why each workload exists is recorded in ``BENCHMARK.json``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass, field
from math import comb
from pathlib import Path
from typing import Callable

import numpy as np

import checks

SIM_N, SIM_K = 12, 3
SIM_NS = (3, 4, 5, 6)
LOADS = (1, 2, 3, 4, 5, 6)
IDENTITY_SEED = 1605
IDENTITY_TRIALS = 200


@dataclass
class Op:
    """One operation: ``run`` is timed, ``check`` is not.

    ``units`` is the work done, by unit name; ``check`` returns the facts
    read from the output, which may add units known only afterwards.
    """

    kind: str
    run: Callable[[], object]
    check: Callable[[object], dict]
    units: dict = field(default_factory=dict)


def sub_seed(*words) -> int:
    return int(np.random.SeedSequence([int(w) for w in words]).generate_state(1)[0])


def run_cli(prog, argv) -> str:
    """Run one CLI command in-process; returns its standard output."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = prog.cli.main([str(a) for a in argv])
    if rc != 0:
        raise checks.CheckFailed(f"exit code {rc} from {argv}")
    return buf.getvalue()


def _file_bytes(*paths) -> int:
    return sum(Path(p).stat().st_size for p in paths)


class Workload:
    # end-to-end rate metric -> (unit summed over operations, scale)
    rates: dict = {}
    # the calibration pass that tracks this workload's slowdowns (run.py)
    calibration = "draw_solve"

    def setup(self, prog, work: Path, seed: int) -> None:
        raise NotImplementedError

    def round_ops(self, r: int) -> list:
        raise NotImplementedError

    def identity_ops(self) -> list:
        """Operations whose report bytes are compared with pinned hashes."""
        return []


class Simulate(Workload):
    """``simulate`` specs over the figure 5-7 grid (N=12, k=3, L=1..6)."""

    rates = {"trials_per_s": ("trials", 1.0), "points_per_s": ("trials", 1.0),
             "payload_MBps": ("out_bytes", 1e-6)}

    def __init__(self, grid, trials):
        self.grid = grid  # (policy, solver, n)
        self.trials = trials

    def setup(self, prog, work, seed):
        self.prog, self.work, self.seed = prog, work, seed
        self.ref = checks.load_reference()
        work.mkdir(parents=True, exist_ok=True)
        for i, cell in enumerate(self.grid):
            self._write_spec(self._spec_path(i), cell, self.trials, seed)
            self._write_spec(self._spec_path(f"id{i}"), cell, IDENTITY_TRIALS, IDENTITY_SEED)
        warm = work / "warmup.json"
        self._write_spec(warm, self.grid[0], 20, seed)
        run_cli(prog, ["simulate", "--spec", warm, "--out", work / "warmup.csv"])

    def _spec_path(self, i) -> Path:
        return self.work / f"spec_{i}.json"

    @staticmethod
    def _write_spec(path, cell, trials, seed):
        policy, solver, n = cell
        spec = {"policy": policy, "N": SIM_N, "k": SIM_K, "n": n, "L_range": list(LOADS),
                "trials": trials, "seed": seed, "solver": solver}
        Path(path).write_text(json.dumps(spec) + "\n")

    def _op(self, i, spec, trials, seed_override=()) -> Op:
        policy, solver, n = self.grid[i]
        out = self.work / f"report_{i}.csv"
        argv = ["simulate", "--spec", spec, "--out", out, *seed_override]

        def check(_stdout):
            labels = checks.check_report(
                out.read_text(), policy, SIM_N, SIM_K, n, LOADS, trials,
                self.ref["mc"], self.ref["mc_trials"])
            manifest = out.with_suffix(".csv.manifest.json")
            return {"labels": labels, "sha256": hashlib.sha256(out.read_bytes()).hexdigest(),
                    "out_bytes": _file_bytes(out, manifest)}

        return Op(kind=f"{policy}/{solver}/n={n}", run=lambda: run_cli(self.prog, argv),
                  check=check, units={"trials": trials * len(LOADS), "cell_trials": trials})

    def round_ops(self, r):
        """Round r runs every spec with ``--seed`` drawn from (run seed, r)."""
        return [self._op(i, self._spec_path(i), self.trials, ("--seed", sub_seed(self.seed, r, i)))
                for i in range(len(self.grid))]

    def identity_ops(self):
        return [self._op(i, self._spec_path(f"id{i}"), IDENTITY_TRIALS)
                for i in range(len(self.grid))]


# (argv after "analyze", nominal support points, reference key)
EXACT_CELLS = (
    (["--what", "full-tp", "--policy", "cyclic", "--N", 12, "--n", 5, "--k", 2, "--L", 5,
      "--exact-only"], 12 ** 4, "full-tp cyclic N=12 n=5 k=2 L=5"),
    (["--what", "full-tp", "--policy", "design", "--design", "{design}", "--N", 13, "--n", 4,
      "--k", 2, "--L", 4, "--exact-only"], 13 ** 4, "full-tp design q=3 k=2 L=4"),
    (["--what", "full-tp", "--policy", "design", "--design", "{design}", "--N", 13, "--n", 4,
      "--k", 3, "--L", 4, "--exact-only"], 13 ** 4, "full-tp design q=3 k=3 L=4"),
    (["--what", "full-tp", "--policy", "uniform", "--N", 7, "--n", 3, "--k", 2, "--L", 3,
      "--exact-only"], comb(7, 3) ** 3, "full-tp uniform N=7 n=3 k=2 L=3"),
    (["--what", "cover-cyc", "--N", 12, "--n", 4, "--k", 2, "--L", 6], 12 ** 5,
     "cover-cyc N=12 n=4 k=2 L=6"),
)
# figure 4 enumerates N^(L-1) start tuples twice (full throughput and
# coverage) for k = 2..7, N = k^2+k+1, L = 3
FIGURE4_POINTS = sum(2 * (k * k + k + 1) ** 2 for k in range(2, 8))


class ExactEnum(Workload):
    """``reproduce --figure 4`` plus exact ``analyze`` cells: no Monte Carlo.

    Exact values do not depend on the seed; the seed orders the operations
    and is passed to every command.
    """

    rates = {"points_per_s": ("points", 1.0), "trials_per_s": ("points", 1.0),
             "payload_MBps": ("out_bytes", 1e-6)}

    def setup(self, prog, work, seed):
        self.prog, self.work, self.seed, self.ref = prog, work, seed, checks.load_reference()
        work.mkdir(parents=True, exist_ok=True)
        self.design = work / "plane_q3.txt"
        run_cli(prog, ["design", "build", "--kind", "plane", "--q", 3, "--out", self.design])
        run_cli(prog, ["analyze", "--what", "full-tp", "--policy", "cyclic", "--N", 7,
                       "--n", 3, "--k", 2, "--L", 3, "--exact-only", "--seed", seed])

    def _figure4(self, cmd_seed) -> Op:
        out = self.work / "figure4"
        csv_path = out / "figure4_full_throughput_bounds.csv"

        def check(stdout):
            checks.check_curves(csv_path.read_text(), self.ref["exact"]["figure4"], "figure 4")
            svg = csv_path.with_suffix(".svg")
            checks.check_svg(svg)
            return {"out_bytes": len(stdout) + _file_bytes(csv_path, svg, out / "manifest.json")}

        return Op(kind="reproduce figure 4",
                  run=lambda: run_cli(self.prog, ["reproduce", "--figure", 4, "--out", out,
                                                  "--seed", cmd_seed]),
                  check=check, units={"points": FIGURE4_POINTS})

    def _cell(self, argv, points, key, cmd_seed) -> Op:
        argv = ["analyze"] + [str(self.design) if a == "{design}" else a for a in argv]
        argv += ["--seed", cmd_seed]

        def check(stdout):
            checks.check_analyze_stdout(stdout, self.ref["exact"]["cells"][key], key)
            return {"out_bytes": len(stdout)}

        return Op(kind=key, run=lambda: run_cli(self.prog, argv), check=check,
                  units={"points": points})

    def round_ops(self, r):
        cmd_seed = sub_seed(self.seed, r)
        ops = [self._figure4(cmd_seed)] + [self._cell(a, p, key, cmd_seed)
                                          for a, p, key in EXACT_CELLS]
        order = np.random.default_rng(cmd_seed).permutation(len(ops))
        return [ops[i] for i in order]


CODEC_N, CODEC_L, CODEC_B = 12, 4, 64 * 1024
CODEC_CODES = ((2, 4), (3, 4), (4, 7))
CODEC_FAMILIES = ("mds", "binary_cyclic")
CODEC_DRAWS_PER_ROUND = 3  # per (k, n); each draw is read once per family
PAYLOAD_SETS = 3  # per k


class CodecRead(Workload):
    """Seeded read cycles: draw a cyclic instance, solve it, store and read.

    Both families read the same drawn instance, so their rates compare on
    identical erasure patterns.
    """

    calibration = "byte_table"
    rates = {"payload_MBps": ("payload_bytes", 1e-6), "trials_per_s": ("cycles", 1.0),
             "points_per_s": ("cycles", 1.0)}

    def setup(self, prog, work, seed):
        self.prog, self.seed = prog, seed
        self.payloads = {}
        for k in sorted({k for k, _ in CODEC_CODES}):
            gen = np.random.default_rng([seed, k])
            self.payloads[k] = [[[gen.bytes(CODEC_B) for _ in range(k)]
                                 for _ in range(CODEC_L)] for _ in range(PAYLOAD_SETS)]
        for k, n in CODEC_CODES:
            for family in CODEC_FAMILIES:
                small = [[p[:64] for p in packet] for packet in self.payloads[k][0]]
                self._cycle(k, n, family, seed, small, 64)

    def _cycle(self, k, n, family, draw_seed, payloads, B):
        cs = self.prog
        gen = np.random.default_rng(draw_seed)
        inst = cs.placement.with_k(cs.placement.draw_cyclic(CODEC_N, n, CODEC_L, gen), k)
        sol = cs.solvers.solve_cyclic(inst)
        cfg = cs.codec.CodecConfig(k=k, n=n, B=B, family=family)
        stored = cs.codec.store_packets(inst, payloads, cfg)
        return inst, sol, cs.codec.end_to_end_read(inst, sol, stored, cfg)

    def round_ops(self, r):
        ops = []
        for c, (k, n) in enumerate(CODEC_CODES):
            for d in range(CODEC_DRAWS_PER_ROUND):
                draw_seed = sub_seed(self.seed, r, c, d)
                payloads = self.payloads[k][(r * CODEC_DRAWS_PER_ROUND + d) % PAYLOAD_SETS]
                for family in CODEC_FAMILIES:
                    ops.append(self._op(k, n, family, draw_seed, payloads))
        return ops

    def _op(self, k, n, family, draw_seed, payloads) -> Op:
        def check(out):
            inst, sol, results = out
            served = checks.check_read(inst, sol, payloads, results)
            return {"payload_bytes": (CODEC_L + served) * k * CODEC_B}

        return Op(kind=f"{family}/k={k}/n={n}",
                  run=lambda: self._cycle(k, n, family, draw_seed, payloads, CODEC_B),
                  check=check, units={"cycles": 1})


def make(name: str) -> Workload:
    if name == "sim_cyclic":
        return Simulate([("cyclic", "cyclic_opt", n) for n in SIM_NS], trials=2500)
    if name == "sim_uniform":
        return Simulate([("uniform", s, n) for s in ("oracle", "greedy")
                               for n in SIM_NS], trials=800)
    if name == "exact_enum":
        return ExactEnum()
    if name == "codec_read":
        return CodecRead()
    raise KeyError(name)


WORKLOADS = ("sim_cyclic", "sim_uniform", "exact_enum", "codec_read")
