"""In-memory span tracer that wraps codedswitch's public functions.

A span is ``(id, parent_id, name, start_ns, end_ns, error)``; the parent is
the span that was open when the call began (single thread, so spans nest).
``Tracer.install`` replaces every binding of each traced function in every
loaded ``codedswitch`` module -- ``ensemble`` binds ``solve_cyclic`` at
import while ``analysis`` imports the solvers at call time, so patching one
module is not enough -- and ``Tracer.uninstall`` puts the originals back.

Self time is a span's duration minus the durations of its direct children.
Summed over all spans it telescopes to the total duration of the root
spans, so per-module self times account for the traced wall time exactly,
up to the time spent outside any span.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from collections import defaultdict

PACKAGE = "codedswitch"

# (module, function, span name); the span name's first field is the layer
TRACED = (
    ("codedswitch.placement", "draw_cyclic", "placement.draw_cyclic"),
    ("codedswitch.placement", "draw_uniform", "placement.draw_uniform"),
    ("codedswitch.placement", "with_k", "placement.with_k"),
    ("codedswitch.placement", "instance_from_starts", "placement.instance_from_starts"),
    ("codedswitch.solvers", "solve_cyclic", "solvers.cyclic"),
    ("codedswitch.solvers", "solve_oracle", "solvers.oracle"),
    ("codedswitch.solvers", "solve_greedy", "solvers.greedy"),
    ("codedswitch.solvers", "solve_design", "solvers.design"),
    ("codedswitch.ensemble", "run_ensemble", "ensemble.run_ensemble"),
    ("codedswitch.ensemble", "reproduce_figure", "ensemble.reproduce_figure"),
    ("codedswitch.analysis", "p_full_throughput_exact", "analysis.p_full_throughput_exact"),
    ("codedswitch.analysis", "p_cover_cyclic", "analysis.p_cover_cyclic"),
    ("codedswitch.analysis", "p_cover_uniform", "analysis.p_cover_uniform"),
    ("codedswitch.analysis", "p_pair_cyclic", "analysis.p_pair_cyclic"),
    ("codedswitch.analysis", "p_pair_design", "analysis.p_pair_design"),
    ("codedswitch.codec", "mds_encode", "codec.mds_encode"),
    ("codedswitch.codec", "mds_decode", "codec.mds_decode"),
    ("codedswitch.codec", "cyclic_encode", "codec.cyclic_encode"),
    ("codedswitch.codec", "cyclic_decode_burst", "codec.cyclic_decode_burst"),
    ("codedswitch.codec", "store_packets", "codec.store_packets"),
    ("codedswitch.codec", "end_to_end_read", "codec.end_to_end_read"),
    ("codedswitch._svg", "line_chart", "svg.line_chart"),
    ("codedswitch.cli", "main", "cli.main"),
)


def package_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


class Tracer:
    """Records spans around the traced functions while installed.

    ``observers`` maps a span name to ``f(span_id, parent_id, args, result)``,
    called after a successful call, for counts that need the call's inputs
    or outputs (drawn instances, erasure patterns).
    """

    def __init__(self, observers=None, clock=time.perf_counter_ns):
        self.spans: list = []
        self.observers = dict(observers or {})
        self._clock = clock
        self._stack: list = []
        self._restore: list = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, self._clock
        observe = self.observers.get(name)

        def traced(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                spans[sid] = (sid, parent, name, t0, clock(), type(exc).__name__)
                raise
            finally:
                stack.pop()
            spans[sid] = (sid, parent, name, t0, clock(), None)
            if observe is not None:
                observe(sid, parent, args, result)
            return result

        traced.__wrapped__ = fn
        traced.span_name = name
        return traced

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = package_modules()
        for mod_name, attr, span_name in TRACED:
            fn = getattr(sys.modules[mod_name], attr)
            wrapper = self._wrap(span_name, fn)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapper)
                        self._restore.append((mod, key, fn))

    def uninstall(self) -> None:
        for mod, key, fn in reversed(self._restore):
            setattr(mod, key, fn)
        self._restore.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def write(self, path, meta: dict) -> None:
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps({"meta": meta}) + "\n")
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


class SpanStats:
    """Per-name counts, inclusive and self time (seconds) of a span list."""

    def __init__(self, spans):
        child_ns = defaultdict(int)
        for sid, parent, name, t0, t1, _ in spans:
            if parent >= 0:
                child_ns[parent] += t1 - t0
        self.count = defaultdict(int)
        self.inclusive_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.root_s = 0.0
        for sid, parent, name, t0, t1, _ in spans:
            dur = t1 - t0
            self.count[name] += 1
            self.inclusive_s[name] += dur * 1e-9
            self.self_s[name] += (dur - child_ns[sid]) * 1e-9
            if parent < 0:
                self.root_s += dur * 1e-9

    def layer_self_s(self, layer: str) -> float:
        return sum(v for k, v in self.self_s.items() if k.split(".", 1)[0] == layer)

    def us_per_call(self, name: str) -> float:
        n = self.count.get(name, 0)
        return 1e6 * self.self_s[name] / n if n else 0.0
