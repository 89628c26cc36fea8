"""Core domain types for switch read instances and solutions.

A switch spreads each packet over n coded chunks stored in n distinct
memory units (MUs) out of N.  A read request names L packets; serving a
packet consumes k of its MUs, and each MU delivers at most one chunk per
read cycle, so served packets must use pairwise disjoint k-subsets.  The
instantaneous throughput of a read cycle is the fraction of MUs actively
serving packets, ``rho = l_star * k / N``.

MU sets are canonical sorted tuples of indices in [0, N).  A cyclic arc
is a set {s, s+1, ..., s+n-1} mod N; ``arc_start`` is the one test for
it and returns s.  Instance validation, the cyclic read solver and the
binary cyclic codec's burst check all use it.  Instances and
solutions are immutable after construction and safe to share across
threads; throughput is computed in exact rational arithmetic and exported
as a float.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from math import isfinite
from typing import Collection, Iterable

from .errors import (
    BadParams,
    CardinalityMismatch,
    DuplicateIndex,
    IndexOutOfRange,
    MalformedFile,
    NotCyclicArc,
    NotSubset,
    Overlap,
    RhoMismatch,
    WrongCardinality,
)

MuSet = tuple  # sorted tuple of distinct MU indices

# write-path placement policies; "custom" tags instances from elsewhere
POLICIES = ("uniform", "cyclic", "design")
PLACEMENT_TAGS = POLICIES + ("custom",)


def muset(indices: Iterable[int]) -> MuSet:
    """Canonicalise an iterable of MU indices into a sorted tuple.

    Raises DuplicateIndex if an index repeats.
    """
    out = tuple(sorted(int(i) for i in indices))
    for a, b in zip(out, out[1:]):
        if a == b:
            raise DuplicateIndex(f"MU index {a} appears more than once")
    return out


def mu_bits(mus: Iterable[int]) -> int:
    """The Python-int bit mask of MU indices: the sum of 1 << m over the
    distinct MUs.  An OR loop: at 4 MUs it took half as long as summing
    a set of their bits."""
    bits = 0
    for m in mus:
        bits |= 1 << m
    return bits


def _json_int(value, name: str = "an MU index") -> int:
    """``value`` if JSON parsed it as an integer, else TypeError."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    return value


def _json_number(value, name: str) -> float:
    """``value`` as a float if JSON parsed it as a finite number, else
    TypeError or ValueError (Python's parser also reads NaN and Infinity,
    which JSON does not have)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{name} must be a number, got {value!r}")
    if not isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class Instance:
    """One read-cycle problem: L packets stored over N memory units.

    ``packets[i]`` is the sorted n-subset of MU indices holding packet i's
    coded chunks.  L is implicit as ``len(packets)`` so the two can never
    diverge.  ``placement`` tags how the packets were placed (uniform,
    cyclic, design or custom); a cyclic tag promises every packet occupies
    n cyclically consecutive MUs.
    """

    N: int
    k: int
    n: int
    packets: tuple
    placement: str = "custom"

    def __post_init__(self):
        object.__setattr__(self, "packets", tuple(tuple(p) for p in self.packets))

    @property
    def L(self) -> int:
        return len(self.packets)

    def to_json(self) -> str:
        obj = {
            "N": self.N,
            "k": self.k,
            "n": self.n,
            "placement": self.placement,
            "packets": [list(p) for p in self.packets],
        }
        return json.dumps(obj, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "Instance":
        try:
            obj = json.loads(text)
            return cls(
                N=_json_int(obj["N"], "N"),
                k=_json_int(obj["k"], "k"),
                n=_json_int(obj["n"], "n"),
                packets=tuple(muset(map(_json_int, p)) for p in obj["packets"]),
                placement=str(obj.get("placement", "custom")),
            )
        except (KeyError, TypeError, ValueError, AttributeError, OverflowError) as exc:
            raise MalformedFile(f"malformed instance JSON ({type(exc).__name__}: {exc})") from exc


@dataclass(frozen=True)
class Solution:
    """Per-packet assignments for one read cycle.

    ``assignments[i]`` is either None (packet i not served) or the sorted
    k-subset of MUs reading packet i.  ``l_star`` and ``rho`` are derived,
    never stored, so they cannot disagree with the assignments.
    """

    assignments: tuple

    def __post_init__(self):
        object.__setattr__(
            self,
            "assignments",
            tuple(None if a is None else tuple(a) for a in self.assignments),
        )

    @property
    def l_star(self) -> int:
        return sum(1 for a in self.assignments if a is not None)

    def rho_exact(self, inst: Instance) -> Fraction:
        return Fraction(self.l_star * inst.k, inst.N)

    def to_json(self) -> str:
        obj = {
            "assignments": [None if a is None else list(a) for a in self.assignments]
        }
        return json.dumps(obj, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "Solution":
        try:
            obj = json.loads(text)
            sol = cls(
                assignments=tuple(
                    None if a is None else muset(map(_json_int, a)) for a in obj["assignments"]
                )
            )
            # Optional declared statistics are cross-checked on load.
            if "l_star" in obj and _json_int(obj["l_star"], "l_star") != sol.l_star:
                raise RhoMismatch(
                    f"declared l_star {obj['l_star']} != derived {sol.l_star}"
                )
            k, N = (None if obj.get(name) is None else _json_int(obj[name], name)
                    for name in ("k", "N"))
            if "rho" in obj:
                declared = _json_number(obj["rho"], "rho")
                if k is not None and N is not None:
                    actual = sol.l_star * k / N
                    if abs(declared - actual) > 1e-12:
                        raise RhoMismatch(f"declared rho {declared} != {actual}")
            return sol
        except (KeyError, TypeError, ValueError, AttributeError, OverflowError,
                ZeroDivisionError) as exc:
            raise MalformedFile(f"malformed solution JSON ({type(exc).__name__}: {exc})") from exc


@dataclass(frozen=True)
class BipartiteView:
    """Packet/MU incidence graph: edge (i, m) iff m is in packets[i]."""

    packet_count: int
    mu_count: int
    edges: tuple = field(default=())

    @property
    def packet_vertices(self) -> range:
        return range(self.packet_count)

    @property
    def mu_vertices(self) -> range:
        return range(self.mu_count)


def bipartite_view(inst: Instance) -> BipartiteView:
    edges = tuple((i, m) for i, p in enumerate(inst.packets) for m in p)
    return BipartiteView(packet_count=inst.L, mu_count=inst.N, edges=edges)


def arc_start(mus: Collection[int], n: int, N: int) -> int | None:
    """The s for which ``mus`` lists {s, s+1, ..., s+n-1} mod N, each MU
    once and in any order: 0 for the full circle (n == N), None when
    ``mus`` is no such arc."""
    members = set(mus)
    if len(mus) != n or len(members) != n:
        return None
    if members and not 0 <= min(members) <= max(members) < N:
        return None
    if n == N:
        return 0
    # a proper subset of the circle is one run iff one member lacks its predecessor
    heads = [m for m in members if (m - 1) % N not in members]
    return heads[0] if len(heads) == 1 else None


def validate_instance(inst: Instance) -> None:
    """Check all Instance invariants; raise on the first violation."""
    if not (1 <= inst.k <= inst.n <= inst.N):
        raise BadParams(
            f"need 1 <= k <= n <= N, got k={inst.k}, n={inst.n}, N={inst.N}"
        )
    if inst.placement not in PLACEMENT_TAGS:
        raise BadParams(f"unknown placement tag {inst.placement!r}")
    for i, p in enumerate(inst.packets):
        if len(set(p)) != len(p):
            raise DuplicateIndex(f"packet {i} repeats an MU index")
        if len(p) != inst.n:
            raise CardinalityMismatch(
                f"packet {i} has {len(p)} MUs, expected n={inst.n}"
            )
        for m in p:
            if not (0 <= m < inst.N):
                raise IndexOutOfRange(f"packet {i}: MU index {m} not in [0, {inst.N})")
        if tuple(p) != tuple(sorted(p)):
            raise BadParams(f"packet {i} is not sorted ascending")
        if inst.placement == "cyclic" and arc_start(p, inst.n, inst.N) is None:
            raise NotCyclicArc(f"packet {i} = {p} is not an arc of length {inst.n}")


def validate_solution(inst: Instance, sol: Solution) -> None:
    """Check all Solution invariants against ``inst``; raise on violation."""
    if len(sol.assignments) != inst.L:
        raise WrongCardinality(
            f"{len(sol.assignments)} assignments for {inst.L} packets"
        )
    seen = set()
    for i, a in enumerate(sol.assignments):
        if a is None:
            continue
        if len(a) != inst.k:
            raise WrongCardinality(
                f"packet {i} assigned {len(a)} MUs, expected k={inst.k}"
            )
        stored = set(inst.packets[i])
        for m in a:
            if m not in stored:
                raise NotSubset(f"packet {i}: MU {m} not in its stored set")
            if m in seen:
                raise Overlap(f"MU {m} assigned to more than one packet")
            seen.add(m)


def throughput(inst: Instance, sol: Solution) -> float:
    """Instantaneous throughput l_star * k / N of a valid solution."""
    return float(sol.rho_exact(inst))


def empty_solution(inst: Instance) -> Solution:
    return Solution(assignments=(None,) * inst.L)
