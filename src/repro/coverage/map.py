"""The coverage map: hit counts + first-hit sim-time per point.

A :class:`CoverageMap` is a plain dictionary from ``(domain, point)``
to ``[hit_count, first_hit_sim_ns]``. Both merge operations — folding
a picklable snapshot in, or folding another map in — are commutative
and associative (counts sum, first-hit times take the minimum), which
is what makes campaign aggregation deterministic: merging per-run maps
in any order, across any number of ``ParallelRunner`` workers, yields
the same map and therefore the same canonical JSON bytes.

Sim-times are integer nanoseconds from the seeded engine clock; this
module never reads wall clocks or randomness (DET001/DET002 apply to
``coverage/``), and deliberately does not import ``repro.store`` — the
store serializes snapshots, not maps.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Sequence, Tuple

__all__ = ["CoverageMap", "canonical_coverage_json", "DomainHandle",
           "NullDomainHandle", "NULL_DOMAIN"]

#: (domain, point) — e.g. ("rdma.gbn", "timeout-retransmit").
PointKey = Tuple[str, str]

#: One snapshot row: [domain, point, hit_count, first_hit_sim_ns].
SnapshotRow = List

#: Version tag embedded in exported coverage documents.
COVERAGE_FORMAT = "repro-coverage-v1"


class CoverageMap:
    """Deterministic hit counts and first-hit sim-times per point."""

    __slots__ = ("_points",)

    def __init__(self) -> None:
        #: (domain, point) -> [hit_count, first_hit_sim_ns]
        self._points: Dict[PointKey, List[int]] = {}

    # ------------------------------------------------------------------
    # Recording (hot path) and merging (campaign aggregation)
    # ------------------------------------------------------------------
    def hit(self, domain: str, point: str, now_ns: int = 0) -> None:
        """Record one hit of ``point`` at sim-time ``now_ns``."""
        entry = self._points.get((domain, point))
        if entry is None:
            self._points[(domain, point)] = [1, now_ns]
        else:
            entry[0] += 1

    def merge_snapshot(self, snapshot: Iterable[Sequence]) -> None:
        """Fold a :meth:`snapshot` (possibly from another process) in."""
        for domain, point, count, first_ns in snapshot:
            entry = self._points.get((domain, point))
            if entry is None:
                self._points[(domain, point)] = [count, first_ns]
            else:
                entry[0] += count
                if first_ns < entry[1]:
                    entry[1] = first_ns

    def merge_map(self, other: "CoverageMap") -> None:
        """Fold another map in (counts sum, first-hit takes the min)."""
        for key, (count, first_ns) in other._points.items():
            entry = self._points.get(key)
            if entry is None:
                self._points[key] = [count, first_ns]
            else:
                entry[0] += count
                if first_ns < entry[1]:
                    entry[1] = first_ns

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def snapshot(self) -> List[SnapshotRow]:
        """Sorted, picklable, JSON-safe rows: [domain, point, n, t0]."""
        return [[domain, point, entry[0], entry[1]]
                for (domain, point), entry in sorted(self._points.items())]

    @classmethod
    def from_snapshot(cls, snapshot: Iterable[Sequence]) -> "CoverageMap":
        new_map = cls()
        new_map.merge_snapshot(snapshot)
        return new_map

    def count(self, domain: str, point: str) -> int:
        entry = self._points.get((domain, point))
        return entry[0] if entry is not None else 0

    def point_keys(self) -> List[PointKey]:
        """Sorted (domain, point) keys — the map's coverage signature.

        Hit counts and timestamps are deliberately excluded: two runs
        that reach the same points are coverage-equivalent for corpus
        dominance and finding deduplication, however often they looped.
        """
        return sorted(self._points)

    def first_hit_ns(self, domain: str, point: str):
        """First-hit sim-time, or None if the point was never reached."""
        entry = self._points.get((domain, point))
        return entry[1] if entry is not None else None

    def domains(self) -> List[str]:
        return sorted({domain for domain, _ in self._points})

    def points_hit(self, domain: str) -> List[str]:
        return sorted(point for d, point in self._points if d == domain)

    def total_hits(self) -> int:
        return sum(entry[0] for entry in self._points.values())

    def __len__(self) -> int:
        return len(self._points)

    def __contains__(self, key: PointKey) -> bool:
        return key in self._points

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CoverageMap):
            return NotImplemented
        return self._points == other._points


class DomainHandle:
    """A component's cached handle for one coverage domain.

    Re-reads ``session.live`` on every hit, so handles created before a
    scope push keep recording into the innermost scope.
    """

    __slots__ = ("_session", "name")

    def __init__(self, session, name: str):
        self._session = session
        self.name = name

    def hit(self, point: str, now_ns: int = 0) -> None:
        self._session.live.hit(self.name, point, now_ns)


class NullDomainHandle:
    """Disabled-mode twin: one empty method call per instrumented site."""

    __slots__ = ()
    name = ""

    def hit(self, point: str, now_ns: int = 0) -> None:
        pass


NULL_DOMAIN = NullDomainHandle()


def canonical_coverage_json(snapshot: Iterable[Sequence]) -> str:
    """One canonical JSON document for a snapshot — byte-comparable.

    Sorted keys, no whitespace, trailing newline: two campaigns covered
    the same points iff their documents are byte-identical.
    """
    doc = {"format": COVERAGE_FORMAT,
           "points": [list(row) for row in snapshot]}
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
