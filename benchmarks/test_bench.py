"""Tests of the benchmark itself:  python3 -m pytest benchmarks -q"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def prog():
    return run.import_program()


def wrapped_bindings() -> list:
    """(module, attribute) pairs that currently hold a tracer wrapper."""
    return [(m.__name__, k) for m in spans.package_modules() for k, v in vars(m).items()
            if hasattr(v, "span_name")]


def _run_one(op):
    failures = []
    done, _, _ = run.run_ops([op], failures, "draw_solve")
    assert not failures
    return done[0][1]


def test_report_check_rejects_an_altered_row(prog, tmp_path):
    wl = workloads.Simulate([("uniform", "oracle", 5)], trials=300)
    wl.setup(prog, tmp_path, seed=3)
    op = wl.round_ops(0)[0]
    facts = _run_one(op)
    assert facts["labels"][-1] == "greedy(oracle-cap-fallback)"
    report = tmp_path / "report_0.csv"
    lines = report.read_text().splitlines()
    cells = lines[3].split(",")  # L = 3
    cells[1] = repr(float(cells[1]) + 0.25)
    cells[2] = repr(float(cells[1]) * workloads.SIM_K / workloads.SIM_N)
    report.write_text("\n".join(lines[:3] + [",".join(cells)] + lines[4:]) + "\n")
    with pytest.raises(checks.CheckFailed, match="L=3"):
        op.check(None)


def test_relabelled_row_is_bounded_by_greedy_and_L():
    ref = checks.load_reference()
    row = ref["mc"][checks.mc_key("uniform", "greedy(oracle-cap-fallback)", 6, 6)]
    text = ",".join(checks.REPORT_COLUMNS) + "\n"
    for mean in (row["mean"] + 0.3, 6.5, row["mean"] - 1.0):
        rho = mean * workloads.SIM_K / workloads.SIM_N
        body = f"6,{mean!r},{rho!r},0.01,3,0.1,0.01,500,oracle\n"
        if 0 < mean - row["mean"] < 1:
            assert checks.check_report(text + body, "uniform", 12, 3, 6, [6], 500,
                                       ref["mc"], ref["mc_trials"]) == ["oracle"]
        else:
            with pytest.raises(checks.CheckFailed):
                checks.check_report(text + body, "uniform", 12, 3, 6, [6], 500,
                                    ref["mc"], ref["mc_trials"])


def test_exact_checks_reject_one_ulp(prog, tmp_path):
    wl = workloads.ExactEnum()
    wl.setup(prog, tmp_path, seed=3)
    ref = wl.ref["exact"]
    argv, _, key = workloads.EXACT_CELLS[0]
    op = wl._cell(argv, 1, key, cmd_seed=3)
    stdout = op.run()
    op.check(stdout)
    value, method, stderr = stdout.strip().split(",")
    off = repr(math.nextafter(float(value), 1.0))
    with pytest.raises(checks.CheckFailed):
        op.check(f"{off},{method},{stderr}\n")
    with pytest.raises(checks.CheckFailed):
        op.check(f"{value},monte_carlo,{stderr}\n")

    pinned = ref["figure4"]
    rows = [",".join(checks.CURVE_COLUMNS)]
    for key_ in pinned:
        curve, x = key_.split("|")
        y = pinned[key_]
        rows.append(f"{curve},{x},{y!r},{y!r},{y!r},closed_form")
    checks.check_curves("\n".join(rows) + "\n", pinned, "figure 4")
    curve, x, y, *_ = rows[5].split(",")
    y = repr(math.nextafter(float(y), 0.0))
    rows[5] = f"{curve},{x},{y},{y},{y},closed_form"
    with pytest.raises(checks.CheckFailed):
        checks.check_curves("\n".join(rows) + "\n", pinned, "figure 4")


def test_read_check_rejects_a_flipped_payload_byte(prog):
    wl = workloads.CodecRead()
    payloads = [[bytes([i, j]) * 32 for j in range(3)] for i in range(workloads.CODEC_L)]
    wl.prog = prog
    for family in workloads.CODEC_FAMILIES:
        inst, sol, results = wl._cycle(3, 4, family, 11, payloads, 64)
        assert checks.check_read(inst, sol, payloads, results) == sol.l_star
        served = next(i for i, r in enumerate(results) if r is not None)
        bad = list(results)
        chunk = bytearray(bad[served][1])
        chunk[7] ^= 0x01
        bad[served] = [bad[served][0], bytes(chunk), bad[served][2]]
        with pytest.raises(checks.CheckFailed, match="differ"):
            checks.check_read(inst, sol, payloads, bad)


def test_self_times_telescope_on_a_known_tree():
    ticks = iter(range(0, 1000, 10))
    tracer = spans.Tracer(clock=lambda: next(ticks))
    leaf = tracer._wrap("a.leaf", lambda: None)
    mid = tracer._wrap("b.mid", lambda: (leaf(), leaf()))
    top = tracer._wrap("c.top", lambda: (mid(), leaf()))
    top()
    st = spans.SpanStats(tracer.spans)
    # clock reads: top 0-90, mid 10-60, leaves 20-30 and 40-50 in mid, 70-80
    assert st.inclusive_s["c.top"] == pytest.approx(90e-9)
    assert st.self_s["c.top"] == pytest.approx((90 - 50 - 10) * 1e-9)
    assert st.self_s["b.mid"] == pytest.approx((50 - 20) * 1e-9)
    assert st.self_s["a.leaf"] == pytest.approx(30e-9)
    assert sum(st.self_s.values()) == pytest.approx(st.root_s)


def test_traced_round_accounts_for_wall_time_and_unwraps(prog, tmp_path):
    wl = workloads.Simulate([("cyclic", "cyclic_opt", 4)], trials=300)
    wl.setup(prog, tmp_path / "w", seed=5)
    failures = []
    metrics, attempted = run.traced_round(wl, failures, {"test": True}, tmp_path / "t.jsonl.gz")
    assert not failures and attempted == 3
    value = {k: v["value"] for k, v in metrics.items()}
    self_total = sum(value[f"{layer}.self_s"] for layer in
                     ("placement", "solvers", "ensemble", "analysis", "codec", "cli", "svg"))
    assert self_total + value["trace.unattributed_s"] == pytest.approx(value["trace.wall_s"])
    assert 0 <= value["trace.unattributed_s"] < 0.05 * value["trace.wall_s"]
    assert value["ensemble.trials"] == 300 * len(workloads.LOADS)
    assert value["solvers.calls.cyclic"] > 0 and value["ensemble.reports_checked"] == 1
    assert wrapped_bindings() == []
    assert prog.cli.main.__module__ == "codedswitch.cli"
    assert not hasattr(sys.modules["codedswitch.ensemble"].solve_cyclic, "span_name")


def test_install_patches_every_binding(prog):
    tracer = spans.Tracer()
    with tracer:
        bound = set(wrapped_bindings())
        assert {("codedswitch.ensemble", "solve_cyclic"), ("codedswitch.solvers", "solve_cyclic"),
                ("codedswitch", "solve_cyclic"), ("codedswitch.cli", "main"),
                ("codedswitch.ensemble", "line_chart")} <= bound
    assert wrapped_bindings() == []
