"""Output checks that any correct codedswitch passes.

Each check raises ``CheckFailed`` on a wrong output and otherwise returns
the facts the per-layer metrics need (solver labels of report rows).
Pinned values live in ``reference.json`` and are regenerated by ``pin.py``.
"""

from __future__ import annotations

import csv
import io
import json
from math import sqrt
from pathlib import Path

REFERENCE_PATH = Path(__file__).with_name("reference.json")

EXACT_METHODS = ("exact_enumeration", "closed_form")
REPORT_COLUMNS = ["L", "mean_l_star", "rho_bar", "rho_bar_ci95", "whp_l_star",
                  "pr_full_tp", "pr_full_tp_ci95", "trials", "solver"]
CURVE_COLUMNS = ["curve", "x", "y", "ci_lo", "ci_hi", "method"]

# A Monte-Carlo row may differ from its reference by Z standard errors of
# the difference plus SLACK/trials.  The slack covers rare events, where
# the normal approximation underestimates the tail: Pr(miss) < 1e-8 per row.
Z = 6.0
SLACK = 8.0


class CheckFailed(Exception):
    """An output that no correct program produces."""


def load_reference(path=REFERENCE_PATH) -> dict:
    return json.loads(Path(path).read_text())


def mc_key(policy: str, label: str, n: int, L: int) -> str:
    return f"{policy}|{label}|{n}|{L}"


def _fail_unless(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


def _tolerance(var: float, trials: int, ref_trials: int) -> float:
    return Z * sqrt(max(var, 0.0) * (1.0 / trials + 1.0 / ref_trials)) + SLACK / trials


def check_report(text: str, policy: str, N: int, k: int, n: int, L_range, trials: int,
                 mc_ref: dict, ref_trials: int) -> list:
    """Check a ``simulate`` CSV against the pinned reference rows.

    A row is compared with the reference row of the same (policy, solver
    label, n, L).  A row whose label has no reference (say an oracle-cap
    fallback that became ``oracle``) must lie between the greedy reference
    mean, less the tolerance, and L.  Returns the row labels.
    """
    rows = list(csv.reader(io.StringIO(text)))
    _fail_unless(bool(rows) and rows[0] == REPORT_COLUMNS, f"bad report header {rows[:1]}")
    body = rows[1:]
    _fail_unless([r[0] for r in body] == [str(L) for L in L_range],
                 f"report loads {[r[0] for r in body]} != {list(L_range)}")
    labels = []
    for r in body:
        _fail_unless(len(r) == len(REPORT_COLUMNS), f"row {r} has {len(r)} fields")
        L = int(r[0])
        mean, rho, pr = float(r[1]), float(r[2]), float(r[5])
        label = r[8]
        _fail_unless(int(r[7]) == trials, f"L={L}: {r[7]} trials, expected {trials}")
        _fail_unless(0.0 <= mean <= L and 0.0 <= pr <= 1.0, f"L={L}: out of range {r}")
        _fail_unless(abs(rho - mean * k / N) <= 1e-8,
                     f"L={L}: rho_bar {rho} != mean_l_star * k / N")
        _fail_unless(0 <= int(r[4]) <= L, f"L={L}: whp_l_star {r[4]} out of range")
        ref = mc_ref.get(mc_key(policy, label, n, L))
        if ref is not None:
            tol = _tolerance(ref["var"], trials, ref_trials)
            _fail_unless(abs(mean - ref["mean"]) <= tol,
                         f"L={L} {label}: mean_l_star {mean} vs reference {ref['mean']} (tol {tol:.4g})")
            p = ref["pr_full"]
            tol_p = _tolerance(p * (1.0 - p), trials, ref_trials)
            _fail_unless(abs(pr - p) <= tol_p,
                         f"L={L} {label}: pr_full_tp {pr} vs reference {p} (tol {tol_p:.4g})")
        else:
            greedy = mc_ref.get(mc_key(policy, "greedy", n, L))
            _fail_unless(greedy is not None, f"L={L}: no reference for label {label!r}")
            lo = greedy["mean"] - _tolerance(greedy["var"], trials, ref_trials)
            _fail_unless(lo <= mean <= L,
                         f"L={L} {label}: mean_l_star {mean} outside [{lo:.4g}, {L}]")
        labels.append(label)
    return labels


def check_exact(value: float, method: str, stderr: float, pinned: float, what: str) -> None:
    """An exact probability: the pinned float, an exact method, no stderr."""
    _fail_unless(method in EXACT_METHODS, f"{what}: method {method!r} is not exact")
    _fail_unless(stderr == 0.0, f"{what}: exact value has stderr {stderr}")
    _fail_unless(value == pinned, f"{what}: {value!r} != pinned {pinned!r}")


def check_analyze_stdout(stdout: str, pinned: float, what: str) -> None:
    """``analyze`` prints one ``value,method,stderr`` line."""
    parts = stdout.strip().split(",")
    _fail_unless(len(parts) == 3, f"{what}: unexpected output {stdout!r}")
    check_exact(float(parts[0]), parts[1], float(parts[2]), pinned, what)


def check_curves(text: str, pinned: dict, what: str) -> None:
    """A curves CSV whose every row is an exact value pinned by (curve, x)."""
    rows = list(csv.reader(io.StringIO(text)))
    _fail_unless(bool(rows) and rows[0] == CURVE_COLUMNS, f"{what}: bad header {rows[:1]}")
    seen = set()
    for r in rows[1:]:
        _fail_unless(len(r) == len(CURVE_COLUMNS), f"{what}: row {r}")
        key = f"{r[0]}|{r[1]}"
        _fail_unless(key in pinned, f"{what}: unexpected row {key}")
        y, lo, hi = float(r[2]), float(r[3]), float(r[4])
        _fail_unless(lo == y == hi, f"{what} {key}: exact row has a confidence interval")
        check_exact(y, r[5], 0.0, pinned[key], f"{what} {key}")
        seen.add(key)
    _fail_unless(seen == set(pinned), f"{what}: missing rows {sorted(set(pinned) - seen)}")


def check_svg(path) -> None:
    text = Path(path).read_text()
    _fail_unless("<svg" in text and text.rstrip().endswith("</svg>"), f"{path}: not an SVG")


def check_read(inst, sol, payloads, results) -> int:
    """A codec read cycle: a valid read, and every served packet's decoded
    chunks equal to its written payload byte for byte.  Returns L*."""
    _fail_unless(len(sol.assignments) == inst.L == len(results) == len(payloads),
                 "read cycle: packet counts disagree")
    used = set()
    served = 0
    for i, (assign, got, want) in enumerate(zip(sol.assignments, results, payloads)):
        _fail_unless((assign is None) == (got is None), f"packet {i}: served/decoded mismatch")
        if assign is None:
            continue
        served += 1
        _fail_unless(len(assign) == inst.k and set(assign) <= set(inst.packets[i])
                     and not used & set(assign), f"packet {i}: invalid assignment {assign}")
        used |= set(assign)
        _fail_unless(list(got) == list(want), f"packet {i}: decoded chunks differ from payload")
    _fail_unless(served == sol.l_star, f"served {served} packets, L* = {sol.l_star}")
    return served
