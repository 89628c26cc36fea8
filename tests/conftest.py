from __future__ import annotations

import sys
from itertools import combinations

import pytest

from codedswitch import (
    BlockDesign,
    Instance,
    build_lexicographic_packing,
    build_projective_plane,
    solve_oracle,
)

# the three-packet contention instance on five MUs used throughout
CONTENTION_PACKETS = ((0, 1, 2), (1, 3, 4), (2, 3, 4))

# seven points, seven triples, every pair in exactly one triple
CLASSIC_TRIPLE_SYSTEM = (
    (0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 6), (2, 3, 6), (2, 4, 5),
)


@pytest.fixture
def contention_instance():
    return Instance(N=5, k=2, n=3, packets=CONTENTION_PACKETS)


@pytest.fixture(scope="session")
def fano():
    return build_projective_plane(2)


@pytest.fixture(scope="session")
def q3_plane():
    return build_projective_plane(3)


@pytest.fixture(scope="session")
def triple_system_design():
    return BlockDesign(N=7, n=3, t=2, blocks=CLASSIC_TRIPLE_SYSTEM, source="file")


@pytest.fixture(scope="session")
def lex_packing_17_5():
    return build_lexicographic_packing(17, 5, 2)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "RESULTS", None) if mod else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)


def brute_force_l_star(packets, k) -> int:
    """Independent exhaustive reference: try every subfamily and every
    assignment of k-subsets by depth-first search over packets."""
    packets = [tuple(p) for p in packets]
    L = len(packets)
    best = 0

    def rec(idx: int, used: frozenset, count: int):
        nonlocal best
        if count + (L - idx) <= best:
            return
        if idx == L:
            best = max(best, count)
            return
        for sub in combinations(packets[idx], k):
            if used.isdisjoint(sub):
                rec(idx + 1, used | frozenset(sub), count + 1)
        rec(idx + 1, used, count)

    rec(0, frozenset(), 0)
    return best


def oracle_l_stars(rows, N, k) -> list:
    """``solve_oracle``'s L*, uncapped, of each row of a (B, L, n) packet array."""
    n = rows.shape[2]
    return [solve_oracle(Instance(N, k, n, row), cap=10**9).l_star for row in rows.tolist()]


def arc_design(N, n, step) -> BlockDesign:
    """Blocks of n cyclically consecutive MUs starting at every step-th MU of
    N: overlapping blocks where n > step, the last holding MU N - 1 where
    (N - 1) % step < n."""
    blocks = sorted({tuple(sorted((s + r) % N for r in range(n))) for s in range(0, N, step)})
    return BlockDesign(N=N, n=n, t=n, blocks=blocks)
