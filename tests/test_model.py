from __future__ import annotations

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codedswitch import (
    Instance,
    Solution,
    bipartite_view,
    empty_solution,
    muset,
    throughput,
    validate_instance,
    validate_solution,
)
from codedswitch.model import arc_start, mu_bits
from codedswitch.errors import (
    BadParams,
    CardinalityMismatch,
    DuplicateIndex,
    IndexOutOfRange,
    NotCyclicArc,
    NotSubset,
    Overlap,
    MalformedFile,
    RhoMismatch,
    WrongCardinality,
)

from conftest import CONTENTION_PACKETS


def test_muset_sorts():
    assert muset([3, 1, 2]) == (1, 2, 3)


def test_mu_bits_counts_each_mu_once_past_64_mus():
    assert mu_bits(()) == 0
    assert mu_bits([3, 0, 3]) == 0b1001
    assert mu_bits(m for m in (69, 5, 69)) == 1 << 69 | 1 << 5
    assert mu_bits(range(70)) == (1 << 70) - 1


def test_muset_rejects_duplicates():
    with pytest.raises(DuplicateIndex):
        muset([1, 1, 2])


@given(st.lists(st.integers(0, 100), unique=True, max_size=20))
@settings(max_examples=100, deadline=None)
def test_muset_is_sorted_permutation(xs):
    out = muset(xs)
    assert list(out) == sorted(xs)


def test_validate_instance_ok(contention_instance):
    validate_instance(contention_instance)


def test_validate_instance_index_out_of_range():
    inst = Instance(N=5, k=1, n=3, packets=((0, 1, 5),))
    with pytest.raises(IndexOutOfRange):
        validate_instance(inst)


def test_validate_instance_not_cyclic_arc():
    inst = Instance(N=5, k=1, n=3, packets=((0, 2, 4),), placement="cyclic")
    with pytest.raises(NotCyclicArc):
        validate_instance(inst)


def test_validate_instance_cyclic_wraparound_ok():
    inst = Instance(N=5, k=1, n=3, packets=((0, 3, 4),), placement="cyclic")
    validate_instance(inst)


def _brute_arc_start(mus, n, N):
    """The least s with set(mus) == {s, ..., s+n-1} mod N, MUs listed once."""
    if len(set(mus)) != len(mus):
        return None
    return next((s for s in range(N) if set(mus) == {(s + r) % N for r in range(n)}), None)


def test_arc_start_equals_brute_force_on_every_subset():
    for N in range(1, 11):
        for size in range(N + 1):
            for mus in combinations(range(N), size):
                for n in range(1, N + 1):
                    expected = _brute_arc_start(mus, n, N)
                    assert arc_start(mus, n, N) == expected
                    assert arc_start(mus[::-1], n, N) == expected
    assert arc_start((0, 2), 2, 5) is None
    assert arc_start((4, 0), 2, 5) == 4


def test_arc_start_rejects_repeats_and_outsiders():
    assert arc_start((1, 1, 2), 3, 5) is None
    assert arc_start((1, 2, 2), 3, 5) is None
    assert arc_start((4, 5), 2, 5) is None  # 5 is no MU of Z_5
    assert arc_start((-1, 0), 2, 5) is None


def test_validate_instance_cyclic_full_circle_ok():
    inst = Instance(N=4, k=2, n=4, packets=((0, 1, 2, 3),) * 2, placement="cyclic")
    validate_instance(inst)


def test_validate_instance_cyclic_repeated_mu():
    inst = Instance(N=5, k=1, n=3, packets=((0, 1, 1),), placement="cyclic")
    with pytest.raises(DuplicateIndex):
        validate_instance(inst)


def test_validate_instance_cardinality():
    inst = Instance(N=5, k=1, n=3, packets=((0, 1),))
    with pytest.raises(CardinalityMismatch):
        validate_instance(inst)


def test_validate_instance_bad_k():
    inst = Instance(N=5, k=4, n=3, packets=((0, 1, 2),))
    with pytest.raises(BadParams):
        validate_instance(inst)


def test_validate_solution_ok(contention_instance):
    sol = Solution(assignments=((0, 1), (3, 4), None))
    validate_solution(contention_instance, sol)
    assert sol.l_star == 2


def test_validate_solution_overlap(contention_instance):
    sol = Solution(assignments=((0, 1), (1, 3), None))
    with pytest.raises(Overlap):
        validate_solution(contention_instance, sol)


def test_validate_solution_not_subset(contention_instance):
    sol = Solution(assignments=((0, 3), None, None))
    with pytest.raises(NotSubset):
        validate_solution(contention_instance, sol)


def test_validate_solution_wrong_cardinality(contention_instance):
    sol = Solution(assignments=((0,), None, None))
    with pytest.raises(WrongCardinality):
        validate_solution(contention_instance, sol)


def test_empty_solution_is_valid(contention_instance):
    sol = empty_solution(contention_instance)
    validate_solution(contention_instance, sol)
    assert sol.l_star == 0
    assert throughput(contention_instance, sol) == 0.0


def test_throughput_values(contention_instance):
    sol = Solution(assignments=((0, 1), (3, 4), None))
    assert throughput(contention_instance, sol) == pytest.approx(0.8)
    inst1 = Instance(N=5, k=1, n=3, packets=CONTENTION_PACKETS)
    sol1 = Solution(assignments=((0,), (1,), (2,)))
    assert throughput(inst1, sol1) == pytest.approx(0.6)


def test_rho_exact_is_rational(contention_instance):
    sol = Solution(assignments=((0, 1), (3, 4), None))
    assert sol.rho_exact(contention_instance) == Fraction(4, 5)


def test_rho_monotone_in_l_star(contention_instance):
    sols = [
        empty_solution(contention_instance),
        Solution(assignments=((0, 1), None, None)),
        Solution(assignments=((0, 1), (3, 4), None)),
    ]
    rhos = [throughput(contention_instance, s) for s in sols]
    assert rhos == sorted(rhos)


def test_assigned_mu_budget(contention_instance):
    sol = Solution(assignments=((0, 1), (3, 4), None))
    total = sum(len(a) for a in sol.assignments if a is not None)
    assert total == sol.l_star * contention_instance.k <= contention_instance.N


def test_instance_json_roundtrip(contention_instance):
    text = contention_instance.to_json()
    again = Instance.from_json(text)
    assert again == contention_instance
    assert again.to_json() == text


def test_solution_json_roundtrip():
    sol = Solution(assignments=((0, 1), None, (3, 4)))
    text = sol.to_json()
    again = Solution.from_json(text)
    assert again == sol
    assert again.to_json() == text


def test_solution_json_declared_l_star_checked():
    with pytest.raises(RhoMismatch):
        Solution.from_json('{"assignments": [[0,1], null], "l_star": 2}')


@pytest.mark.parametrize("text", ['{"N":5}', "[1, 2]", '{"N":5,"k":2,"n":3,"packets":7}',
                                  '{"N":"x","k":2,"n":3,"packets":[]}', "{not json"])
def test_instance_json_malformed_is_typed(text):
    with pytest.raises(MalformedFile):
        Instance.from_json(text)


@pytest.mark.parametrize("text", ["{}", '{"assignments": 3}', '{"assignments": [], "l_star": "x"}',
                                  "[null]", ""])
def test_solution_json_malformed_is_typed(text):
    with pytest.raises(MalformedFile):
        Solution.from_json(text)


# JSON integers only: no bool, float or string is coerced
@pytest.mark.parametrize("text", [
    '{"N": 12.7, "k": 1, "n": 2, "packets": []}',
    '{"N": 12.0, "k": 1, "n": 2, "packets": []}',
    '{"N": 12, "k": true, "n": 2, "packets": []}',
    '{"N": 12, "k": 1, "n": "2", "packets": []}',
    '{"N": 12, "k": 1, "n": 2, "packets": [[0.9, 1.2], [3, 4]]}',
    '{"N": 12, "k": 1, "n": 2, "packets": [[false, 1]]}',
    '{"N": 12, "k": 1, "n": 2, "packets": ["12"]}',
])
def test_instance_json_takes_only_integers(text):
    with pytest.raises(MalformedFile, match="must be an integer"):
        Instance.from_json(text)


@pytest.mark.parametrize("text", [
    '{"assignments": [[1.7], null]}',
    '{"assignments": [[true], null]}',
    '{"assignments": ["01"]}',
    '{"assignments": [[1], null], "l_star": 1.0}',
    '{"assignments": [[1], null], "l_star": true}',
    '{"assignments": [[1], null], "k": "1"}',
    '{"assignments": [[1], null], "k": 1, "N": 4.0, "rho": 0.25}',
])
def test_solution_json_takes_only_integers(text):
    with pytest.raises(MalformedFile, match="must be an integer"):
        Solution.from_json(text)


@pytest.mark.parametrize("rho,match", [
    ('"0.25"', "must be a number"), ("true", "must be a number"), ("[0.25]", "must be a number"),
    ("NaN", "must be finite"), ("Infinity", "must be finite"),
])
def test_solution_json_rho_must_be_a_number(rho, match):
    # 0.25 is this solution's true rho: a coerced string or bool must not load or mismatch
    with pytest.raises(MalformedFile, match=match):
        Solution.from_json(f'{{"assignments": [[1], null], "k": 1, "N": 4, "rho": {rho}}}')
    assert Solution.from_json('{"assignments": [[1], null], "rho": 0.25}').l_star == 1


def test_solution_json_integer_statistics_load():
    sol = Solution.from_json('{"assignments": [[1], null], "l_star": 1, "k": 1, "N": 4, '
                             '"rho": 0.25}')
    assert sol.assignments == ((1,), None)


def test_bipartite_view_edges(contention_instance):
    view = bipartite_view(contention_instance)
    assert len(view.edges) == contention_instance.n * contention_instance.L
    for i, p in enumerate(contention_instance.packets):
        for m in p:
            assert (i, m) in view.edges
    assert view.packet_count == 3 and view.mu_count == 5


@given(st.integers(2, 9), st.integers(1, 8), st.data())
@settings(max_examples=60, deadline=None)
def test_instance_json_roundtrip_random(N, n, data):
    n = min(n, N)
    L = data.draw(st.integers(1, 4))
    packets = tuple(
        tuple(sorted(data.draw(st.sets(st.integers(0, N - 1), min_size=n, max_size=n))))
        for _ in range(L)
    )
    inst = Instance(N=N, k=1, n=n, packets=packets)
    assert Instance.from_json(inst.to_json()) == inst


def test_policies_are_defined_once():
    from codedswitch import model, placement

    assert placement.POLICIES is model.POLICIES
    assert model.PLACEMENT_TAGS == model.POLICIES + ("custom",)
