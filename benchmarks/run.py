"""codedswitch benchmark: one workload, one process, no added threads.

Usage, from the root of a source checkout:

    python3 benchmarks/run.py --workload sim_cyclic --seed 1 --seconds 28 --trace 0

It imports ``codedswitch`` from ``src/`` of the same checkout, writes every
input during set-up, then runs rounds of operations (see workloads.py)
until the next round would end after ``--seconds``.  Every output is
checked.  The last line of standard output is the JSON result; the line
before it is the run metadata.

``--trace 0`` reports the end-to-end metrics: each rate is the median over
rounds of work per calibrated second of operation time (see ``Clock``),
``setup_s`` the median calibrated time of three set-ups, ``peak_rss_MB``
the process's peak resident set.  ``--trace
1`` runs round 0 untraced and then again traced, and reports the per-layer
metrics of the traced pass (layers.py); its spans are written, gzipped,
to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
# Duration of one calibration pass on the reference machine (README.md).
# Calibrated time is wall time times reference / measured pass duration.
CALIBRATION_PASS_S = {"draw_solve": 3.7e-3, "byte_table": 1.2e-3}
END_TO_END = {"trials_per_s": "1/s", "points_per_s": "1/s", "payload_MBps": "MB/s"}


class Program:
    """The codedswitch modules the workloads call, looked up at call time so
    that the tracer's wrappers apply."""

    def __init__(self):
        for name in ("cli", "placement", "solvers", "codec"):
            setattr(self, name, importlib.import_module(f"codedswitch.{name}"))


def import_program() -> Program:
    """Import codedswitch afresh from this checkout's src/ (so every set-up
    pays the package's import cost)."""
    for name in [m for m in sys.modules if m == "codedswitch" or m.startswith("codedswitch.")]:
        del sys.modules[name]
    prog = Program()
    origin = Path(sys.modules["codedswitch"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"codedswitch imported from {origin}, not from {SRC}")
    return prog


class _Record:
    __slots__ = ("packets", "served")

    def __init__(self, packets, served):
        self.packets = packets
        self.served = served


def draw_solve_pass() -> int:
    """Seeded numpy draws of cyclic arcs, sorted MU tuples and a greedy read:
    the shape of the ensemble and enumeration loops."""
    gen = numpy.random.default_rng(7)
    served = 0
    for _ in range(150):
        starts = gen.integers(0, 12, size=4)
        packets = tuple(tuple(sorted((int(s) + r) % 12 for r in range(4))) for s in starts)
        used = bytearray(12)
        for p in packets:
            free = [m for m in p if not used[m]]
            if len(free) >= 3:
                for m in free[:3]:
                    used[m] = 1
                served += 1
        _Record(packets, served)
    return served


_XOR_ROW = bytes((7 * i) & 255 for i in range(256))
_XOR_SOURCES = [bytes((31 * j + i) & 255 for i in range(256)) * 32 for j in range(4)]
_xor_turn = [0]


def byte_table_pass() -> int:
    """Table lookups XORed into a fresh buffer: the codec's inner loop."""
    _xor_turn[0] = (_xor_turn[0] + 1) % len(_XOR_SOURCES)
    src = _XOR_SOURCES[_xor_turn[0]]
    acc = bytearray(len(src))
    for i, b in enumerate(src):
        acc[i] ^= _XOR_ROW[b]
    return acc[-1]


CALIBRATION_PASSES = {"draw_solve": draw_solve_pass, "byte_table": byte_table_pass}


def calibrate(kernel) -> list:
    """Durations of five calibration passes, with the garbage collector off
    so that the program's heap does not count."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(5):
            t0 = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return times


class Clock:
    """Sums the wall time of timed calls, and converts it to calibrated time.

    On a shared machine the interpreter's speed drifts by up to 1.8x in
    phases lasting seconds to minutes.  Calibration passes run before the
    first timed call and after each one; their mean duration estimates the
    machine's slowness over the calls, and the calibrated time scales the
    wall time to the pass's reference duration, so that rates compare
    across runs whatever phase they met.  Each workload names the pass
    whose slowdown tracks its own code best.
    """

    def __init__(self, calibration: str):
        self._kernel = CALIBRATION_PASSES[calibration]
        self._ref_s = CALIBRATION_PASS_S[calibration]
        self._samples = calibrate(self._kernel)
        self.wall_s = 0.0

    def time(self, fn):
        """Result of ``fn()``, or the exception it raised."""
        t0 = time.perf_counter()
        try:
            out = fn()
        except Exception as exc:
            out = exc
        self.wall_s += time.perf_counter() - t0
        self._samples += calibrate(self._kernel)
        return out

    @property
    def calibrated_s(self) -> float:
        return self.wall_s * self._ref_s / statistics.fmean(self._samples)


def run_ops(ops, failures: list, calibration: str) -> tuple:
    """Run and check operations; returns ([(op, facts)], wall seconds,
    calibrated seconds) of the runs, checks not included."""
    done = []
    clock = Clock(calibration)
    for op in ops:
        out = clock.time(op.run)
        if isinstance(out, Exception):
            failures.append(f"{op.kind}: " + "".join(
                traceback.format_exception(out, limit=-3)))
            continue
        try:
            done.append((op, op.check(out)))
        except Exception as exc:
            failures.append(f"{op.kind}: {type(exc).__name__}: {exc}")
    return done, clock.wall_s, clock.calibrated_s


def round_work(done) -> dict:
    work: dict = {}
    for op, facts in done:
        for unit, v in list(op.units.items()) + list(facts.items()):
            if isinstance(v, (int, float)):
                work[unit] = work.get(unit, 0) + v
    return work


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    return target.read_text().strip() if target.is_file() else None


def metadata(args) -> dict:
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "numpy": numpy.__version__, "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(), "git_commit": git_commit(),
        "load": "closed loop from one process with no added threads",
    }


def measure(workload, seconds: float, failures: list) -> tuple:
    """Rounds until the next would end after ``seconds``; returns
    ({end-to-end metric: median rate over rounds}, operations attempted)."""
    rates = {name: [] for name in workload.rates}
    attempted = 0
    start = time.perf_counter()
    for r in itertools.count():
        t_round = time.perf_counter()
        ops = workload.round_ops(r)
        done, _, timed = run_ops(ops, failures, workload.calibration)
        attempted += len(ops)
        work = round_work(done)
        for name, (unit, scale) in workload.rates.items():
            rates[name].append(work.get(unit, 0) * scale / timed)
        now = time.perf_counter()
        if now - start + (now - t_round) > seconds:
            break
    return {name: statistics.median(v) for name, v in rates.items()}, attempted


def traced_round(workload, failures: list, meta: dict, out_path: Path) -> tuple:
    from layers import Observed, layer_metrics
    from spans import Tracer

    ops = workload.round_ops(0)
    _, _, untraced_cal = run_ops(ops, failures, workload.calibration)
    observed = Observed()
    tracer = Tracer(observers=observed.observers())
    traced_ops = workload.round_ops(0)
    with tracer:
        done, traced_s, traced_cal = run_ops(traced_ops, failures, workload.calibration)
    identity_ops = workload.identity_ops()
    id_done, _, _ = run_ops(identity_ops, failures, workload.calibration)
    pinned = workload.ref["identity"]["hashes"] if identity_ops else {}
    identical = sum(1 for op, facts in id_done if pinned.get(op.kind) == facts["sha256"])
    metrics = layer_metrics(tracer.spans, observed, done, traced_s, traced_cal / untraced_cal,
                            (len(identity_ops), identical))
    out_path.parent.mkdir(exist_ok=True)
    tracer.write(out_path, meta)
    return metrics, len(ops) + len(traced_ops) + len(identity_ops)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "codedswitch" / "__init__.py").is_file():
        print(f"error: no codedswitch sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    meta = metadata(args)
    work_root = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    failures: list = []
    try:
        setup_times = []
        for rep in range(SETUP_REPEATS):
            workload = workloads.make(args.workload)
            gc.collect()
            clock = Clock(workload.calibration)
            err = clock.time(lambda: workload.setup(
                import_program(), work_root / f"setup{rep}", args.seed))
            if err is not None:
                raise err
            setup_times.append(clock.calibrated_s)
        if args.trace:
            out = ROOT / ".bench_out" / f"trace-{args.workload}-seed{args.seed}.jsonl.gz"
            metrics, attempted = traced_round(workload, failures, meta, out)
        else:
            rates, attempted = measure(workload, args.seconds, failures)
            metrics = {name: {"value": v, "unit": END_TO_END[name]} for name, v in rates.items()}
            metrics["setup_s"] = {"value": statistics.median(setup_times), "unit": "s"}
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            metrics["peak_rss_MB"] = {"value": peak_kb / 1024.0, "unit": "MB"}
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
        if work_root.parent.is_dir() and not any(work_root.parent.iterdir()):
            work_root.parent.rmdir()

    for f in failures[:10]:
        print(f"FAILED {f}", file=sys.stderr)
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": metrics}
    print(json.dumps(meta))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
