"""Byte-identity gate: report hashes and probability values pinned on the
pre-canonical-engine code.

Every ``simulate`` report below must keep its SHA-256, and every exact or
Monte-Carlo probability its float, across refactors of the draw, solve and
aggregation paths.  The cells cover each policy with each kind of solver,
including an oracle-cap fallback and trials spanning more than one batch.
"""

from __future__ import annotations

import hashlib

import pytest

from codedswitch import ExperimentSpec, analysis, build_projective_plane, run_ensemble
from codedswitch.placement import PlacementRng

REPORT_CELLS = {
    "cyclic/cyclic_opt": (
        dict(policy="cyclic", N=12, k=3, n=4, L_range=(1, 2, 3, 4, 5, 6),
             trials=4500, seed=11, solver="cyclic_opt"),
        "613f130ef819b2121c8c30ad6d4dc118c20c814b9918d528bfe868d18adc978e"),
    # n=5: L=5, 6 exceed the oracle cap and fall back to greedy
    "cyclic/oracle": (
        dict(policy="cyclic", N=12, k=3, n=5, L_range=(1, 2, 3, 4, 5, 6),
             trials=400, seed=12, solver="oracle"),
        "eb2e8f1880aefcf9f2208f3236565bcb66fb8ae40a0626294b2b70e6025de9ad"),
    "cyclic/greedy": (
        dict(policy="cyclic", N=12, k=3, n=4, L_range=(1, 2, 3, 4, 5, 6),
             trials=400, seed=13, solver="greedy"),
        "f205a52d0acf12ae00a6f9cd2e7c9259df4fdf1ebd30c2f28bfaf67591cb6ced"),
    "cyclic/matching_k1": (
        dict(policy="cyclic", N=9, k=1, n=3, L_range=(2, 5, 8),
             trials=400, seed=14, solver="matching_k1"),
        "51512470d20ed156d2b73c6516089110eb51536a632d906f83c3bc9fa5c220c4"),
    "cyclic/matching_k2n2": (
        dict(policy="cyclic", N=8, k=2, n=2, L_range=(2, 3, 4),
             trials=400, seed=15, solver="matching_k2n2"),
        "054553b5a6ade27074935c7c6581eae079e7dc3ee541da6ae8f3d3785513f755"),
    "uniform/oracle": (
        dict(policy="uniform", N=12, k=3, n=4, L_range=(1, 2, 3, 4, 5, 6, 7),
             trials=300, seed=16, solver="oracle"),
        "20c9e5099cbf7160cfdd0a8c941d31a12ee77e2b6f7e85ddc813718a61247a5e"),
    "uniform/greedy": (
        dict(policy="uniform", N=12, k=3, n=4, L_range=(1, 2, 3, 4, 5, 6),
             trials=300, seed=17, solver="greedy"),
        "3890a783c9c64b1f3528c4f2939ec103874aef42e158e406b6998b1854e23f3c"),
    "design/design_opt": (
        dict(policy="design", N=7, k=2, n=3, L_range=(1, 2, 3),
             trials=300, seed=18, solver="design_opt"),
        "fd357750e1e36e980047bac0ec310bf5fbd45a6c70115f9fe71adcb9c75c638a"),
}


@pytest.mark.parametrize("cell", sorted(REPORT_CELLS))
def test_report_hash_pinned(cell):
    kw, digest = REPORT_CELLS[cell]
    if kw["policy"] == "design":
        kw = dict(kw, design_source=build_projective_plane(2))
    csv = run_ensemble(ExperimentSpec(**kw)).to_csv_string()
    assert hashlib.sha256(csv.encode()).hexdigest() == digest


# (arguments, keyword arguments, value, method)
FULL_TP_CYCLIC = (
    ((12, 5, 2, 5), {}, 0.8043981481481481, "exact_enumeration"),
    ((13, 4, 3, 3), {}, 0.3905325443786982, "exact_enumeration"),
    ((10, 4, 3, 3), {}, 0.24, "exact_enumeration"),
    ((7, 3, 2, 1), {}, 1.0, "exact_enumeration"),
    ((9, 3, 1, 6), {}, 0.9644532506901048, "exact_enumeration"),
    ((12, 4, 3, 4), dict(cap=10, samples=5000, seed=3), 0.0546, "monte_carlo"),
)
COVER_CYCLIC = (
    ((12, 4, 2, 6), {}, 0.43559510030864196, "exact_enumeration"),
    ((13, 4, 3, 3), {}, 0.5680473372781065, "exact_enumeration"),
    ((9, 3, 1, 1), {}, 1.0, "exact_enumeration"),
    ((10, 3, 2, 4), dict(cap=10, samples=5000, rng=PlacementRng(4, 0)), 0.554, "monte_carlo"),
)


@pytest.mark.parametrize("args,kw,value,method", FULL_TP_CYCLIC)
def test_full_tp_cyclic_pinned(args, kw, value, method):
    est = analysis.p_full_throughput_exact("cyclic", *args, **kw)
    assert (est.value, est.method) == (value, method)


@pytest.mark.parametrize("args,kw,value,method", COVER_CYCLIC)
def test_cover_cyclic_pinned(args, kw, value, method):
    est = analysis.p_cover_cyclic(*args, **kw)
    assert (est.value, est.method) == (value, method)
