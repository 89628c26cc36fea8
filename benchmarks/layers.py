"""Per-layer metrics of one traced round.

Each metric is named after the codedswitch module it measures.  Counts
come from the spans, from observers on the traced calls (drawn
instances, erasure patterns, bytes coded) and from the facts the output
checks read (report labels).  Every ratio is reported with its base.
"""

from __future__ import annotations

from collections import defaultdict

from spans import SpanStats

SOLVERS = ("cyclic", "oracle", "greedy", "design")
DETERMINISTIC_SOLVERS = ("solvers.cyclic", "solvers.oracle", "solvers.design")
LAYERS = ("placement", "solvers", "ensemble", "analysis", "codec", "cli", "svg")

# name -> unit; every traced run reports all of them (0 where a module does
# not run in the workload)
PER_LAYER = {
    "placement.self_s": "s",
    "placement.draw_us.cyclic": "us",
    "placement.draw_us.uniform": "us",
    "placement.with_k_us": "us",
    "placement.instance_from_starts_us": "us",
    "solvers.self_s": "s",
    **{f"solvers.calls.{s}": "count" for s in SOLVERS},
    **{f"solvers.us_per_call.{s}": "us" for s in SOLVERS},
    "ensemble.self_s": "s",
    "ensemble.cells": "count",
    "ensemble.trials": "count",
    "ensemble.fallback_cells": "count",
    "ensemble.deterministic_trials": "count",
    "ensemble.cache_hit_ratio": "ratio",
    "ensemble.canonical_distinct_ratio": "ratio",
    "ensemble.reports_checked": "count",
    "ensemble.reports_identical": "count",
    "analysis.self_s": "s",
    "analysis.points": "count",
    "analysis.solver_calls": "count",
    "analysis.design_calls": "count",
    "analysis.oracle_fallback_ratio": "ratio",
    "analysis.p_full_throughput_exact_s": "s",
    "analysis.p_cover_cyclic_s": "s",
    "analysis.p_cover_uniform_s": "s",
    "codec.self_s": "s",
    "codec.encode_MBps.mds": "MB/s",
    "codec.encode_MBps.binary_cyclic": "MB/s",
    "codec.decode_MBps.mds": "MB/s",
    "codec.decode_MBps.binary_cyclic": "MB/s",
    "codec.mds_decode_calls": "count",
    "codec.mds_systematic_ratio": "ratio",
    "cli.self_s": "s",
    "svg.self_s": "s",
    "svg.line_chart_s": "s",
    "trace.wall_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_ratio": "ratio",
}


def canonical_key(packets, N: int, cyclic: bool) -> tuple:
    """Key shared by instances with equal L*: packet order never matters,
    and for cyclic arcs neither does a rotation of the MUs."""
    if not cyclic:
        return tuple(sorted(packets))
    starts = []
    for p in packets:
        members = set(p)
        starts.append(next(m for m in p if (m - 1) % N not in members))
    return min(tuple(sorted((s - a) % N for s in starts)) for a in starts)


class Observed:
    """Facts recorded by observers during the traced round."""

    def __init__(self):
        self.draws = defaultdict(set)  # (parent span, L) -> drawn packet tuples
        self.draw_kind = {}  # parent span -> (N, cyclic)
        self.coded_bytes = {}  # span id -> payload bytes coded
        self.systematic = {}  # mds_decode span id -> all data chunks present

    def observers(self) -> dict:
        def draw(cyclic):
            def observe(sid, parent, args, inst):
                self.draws[(parent, inst.L)].add(inst.packets)
                self.draw_kind[parent] = (inst.N, cyclic)
            return observe

        def coded(sid, parent, args, result):
            cfg = args[1]
            self.coded_bytes[sid] = cfg.k * cfg.B

        def mds_decode(sid, parent, args, result):
            coded(sid, parent, args, result)
            chunks, cfg = args[0], args[1]
            self.systematic[sid] = all(c is not None for c in chunks.chunks[:cfg.k])

        return {
            "placement.draw_cyclic": draw(True),
            "placement.draw_uniform": draw(False),
            "codec.mds_encode": coded,
            "codec.cyclic_encode": coded,
            "codec.cyclic_decode_burst": coded,
            "codec.mds_decode": mds_decode,
        }


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(spans, observed: Observed, op_facts, traced_wall_s: float,
                  overhead_ratio: float, identity) -> dict:
    """``op_facts`` is a list of (Op, facts) for the traced round;
    ``overhead_ratio`` is its calibrated time over that of the untraced
    round; ``identity`` is (reports checked, reports matching pinned hashes)."""
    st = SpanStats(spans)
    names = {s[0]: s[2] for s in spans}
    parents = {s[0]: s[1] for s in spans}

    def under(sid, prefix) -> bool:
        p = parents[sid]
        while p >= 0:
            if names[p].startswith(prefix):
                return True
            p = parents[p]
        return False

    m = {f"{layer}.self_s": st.layer_self_s(layer) for layer in LAYERS}
    m["placement.draw_us.cyclic"] = st.us_per_call("placement.draw_cyclic")
    m["placement.draw_us.uniform"] = st.us_per_call("placement.draw_uniform")
    m["placement.with_k_us"] = st.us_per_call("placement.with_k")
    m["placement.instance_from_starts_us"] = st.us_per_call("placement.instance_from_starts")
    for s in SOLVERS:
        m[f"solvers.calls.{s}"] = st.count.get(f"solvers.{s}", 0)
        m[f"solvers.us_per_call.{s}"] = st.us_per_call(f"solvers.{s}")

    # ensemble: cells from the report rows, solver calls from the spans
    cells = trials = fallback = det_trials = 0
    for op, facts in op_facts:
        for label in facts.get("labels", ()):
            T = op.units["cell_trials"]
            cells += 1
            trials += T
            if label.startswith("greedy"):
                fallback += label != "greedy"
            else:
                det_trials += T
    ens_solves = sum(1 for sid, parent, name, *_ in spans
                     if name in DETERMINISTIC_SOLVERS and parent >= 0
                     and names[parent] == "ensemble.run_ensemble")
    distinct = 0
    for (parent, L), drawn in observed.draws.items():
        if names.get(parent) == "ensemble.run_ensemble":
            N, cyclic = observed.draw_kind[parent]
            distinct += len({canonical_key(p, N, cyclic) for p in drawn})
    m.update({
        "ensemble.cells": cells,
        "ensemble.trials": trials,
        "ensemble.fallback_cells": fallback,
        "ensemble.deterministic_trials": det_trials,
        "ensemble.cache_hit_ratio": _ratio(det_trials - ens_solves, det_trials),
        "ensemble.canonical_distinct_ratio": _ratio(distinct, trials),
        "ensemble.reports_checked": identity[0],
        "ensemble.reports_identical": identity[1],
    })

    # analysis
    solver_spans = [s for s in spans if s[2].startswith("solvers.") and under(s[0], "analysis.")]
    design = [s for s in solver_spans if s[2] == "solvers.design"]
    m.update({
        "analysis.points": sum(op.units.get("points", 0) for op, _ in op_facts),
        "analysis.solver_calls": len(solver_spans),
        "analysis.design_calls": len(design),
        "analysis.oracle_fallback_ratio": _ratio(
            sum(1 for s in design if s[5] == "ConditionViolated"), len(design)),
        "analysis.p_full_throughput_exact_s": st.inclusive_s["analysis.p_full_throughput_exact"],
        "analysis.p_cover_cyclic_s": st.inclusive_s["analysis.p_cover_cyclic"],
        "analysis.p_cover_uniform_s": st.inclusive_s["analysis.p_cover_uniform"],
    })

    # codec: payload bytes per second of the coding calls themselves
    for family, enc, dec in (("mds", "codec.mds_encode", "codec.mds_decode"),
                             ("binary_cyclic", "codec.cyclic_encode", "codec.cyclic_decode_burst")):
        for what, name in (("encode", enc), ("decode", dec)):
            nbytes = sum(observed.coded_bytes.get(s[0], 0) for s in spans if s[2] == name)
            m[f"codec.{what}_MBps.{family}"] = _ratio(nbytes * 1e-6, st.inclusive_s[name])
    m["codec.mds_decode_calls"] = len(observed.systematic)
    m["codec.mds_systematic_ratio"] = _ratio(sum(observed.systematic.values()),
                                             len(observed.systematic))

    m["svg.line_chart_s"] = st.inclusive_s["svg.line_chart"]
    m["trace.wall_s"] = traced_wall_s
    m["trace.unattributed_s"] = traced_wall_s - st.root_s
    m["trace.overhead_ratio"] = overhead_ratio
    return {name: {"value": float(m[name]), "unit": unit} for name, unit in PER_LAYER.items()}
