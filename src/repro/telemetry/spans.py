"""Sim-time spans and instant events.

The :class:`Tracer` records what the testbed is doing *when*, on the
simulation clock: spans (`switch.ingress`, `fuzz.generation`, …) carry
a simulated start time and duration in nanoseconds, with the wall-clock
time the span actually took recorded alongside for profiling. Instant
events mark point occurrences (a retransmission, an injected drop).

Every record is assigned to a *process* (a simulated host, the switch,
a dumper server, the fuzzer) and a *thread* within it (a QP, a pipeline
stage), which is exactly the Chrome trace-event pid/tid model the
exporter maps onto — so a run opens in Perfetto with one lane per
component.

The tracer reads simulation time through a pluggable ``clock`` callable
(wired to ``Simulator.now`` by the instrumentation layer). Components
that do not live on the simulation clock — the fuzzer between runs —
use the wall-domain helpers, which timestamp relative to the tracer's
creation instead; those land on their own process lane.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

__all__ = ["SpanRecord", "InstantRecord", "Tracer", "NullTracer",
           "NULL_TRACER"]


@dataclass
class SpanRecord:
    """One completed span."""

    span_id: int
    name: str
    pid: str
    tid: str
    start_ns: int          # simulation time (or wall-domain offset)
    duration_ns: int       # simulated duration
    wall_ns: int           # wall-clock time the span really took
    category: str = ""
    args: Dict[str, object] = field(default_factory=dict)


@dataclass
class InstantRecord:
    """One point event."""

    span_id: int
    name: str
    pid: str
    tid: str
    ts_ns: int
    category: str = ""
    args: Dict[str, object] = field(default_factory=dict)


class _OpenSpan:
    """Context manager returned by :meth:`Tracer.span`."""

    __slots__ = ("_tracer", "_record", "_wall_start", "_wall_domain")

    def __init__(self, tracer: "Tracer", record: SpanRecord,
                 wall_domain: bool):
        self._tracer = tracer
        self._record = record
        self._wall_domain = wall_domain
        self._wall_start = 0

    def set(self, **args) -> None:
        """Attach extra key/value arguments to the span."""
        self._record.args.update(args)

    def __enter__(self) -> "_OpenSpan":
        self._wall_start = time.perf_counter_ns()
        if self._wall_domain:
            self._record.start_ns = self._tracer._wall_now_ns()
        else:
            self._record.start_ns = self._tracer._clock()
        return self

    def __exit__(self, *exc) -> None:
        record = self._record
        record.wall_ns = time.perf_counter_ns() - self._wall_start
        if self._wall_domain:
            record.duration_ns = self._tracer._wall_now_ns() - record.start_ns
        else:
            record.duration_ns = self._tracer._clock() - record.start_ns
        self._tracer._finish(record)


class Tracer:
    """Collects spans and instant events for one observation session."""

    def __init__(self, clock: Optional[Callable[[], int]] = None):
        self._clock: Callable[[], int] = clock or (lambda: 0)
        self._wall_epoch = time.perf_counter_ns()
        self._next_id = 0
        self.spans: List[SpanRecord] = []
        self.instants: List[InstantRecord] = []
        #: pid -> display name
        self.process_names: Dict[str, str] = {}
        #: (pid, tid) -> display name
        self.thread_names: Dict[Tuple[str, str], str] = {}

    # -- clock wiring --------------------------------------------------
    def set_clock(self, clock: Callable[[], int]) -> None:
        """Point the tracer at a simulation clock (``lambda: sim.now``)."""
        self._clock = clock

    def _wall_now_ns(self) -> int:
        return time.perf_counter_ns() - self._wall_epoch

    def _next(self) -> int:
        span_id = self._next_id
        self._next_id += 1
        return span_id

    def _finish(self, record: SpanRecord) -> None:
        self.spans.append(record)

    # -- naming --------------------------------------------------------
    def set_process_name(self, pid: str, name: str) -> None:
        self.process_names[pid] = name

    def set_thread_name(self, pid: str, tid: str, name: str) -> None:
        self.thread_names[(pid, tid)] = name

    # -- recording -----------------------------------------------------
    def span(self, name: str, pid: str = "lumina", tid: str = "main",
             category: str = "", **args) -> _OpenSpan:
        """Open a sim-time span; use as a context manager."""
        record = SpanRecord(self._next(), name, pid, tid, 0, 0, 0,
                            category, dict(args))
        return _OpenSpan(self, record, wall_domain=False)

    def wall_span(self, name: str, pid: str = "lumina", tid: str = "main",
                  category: str = "", **args) -> _OpenSpan:
        """A span timestamped on the wall clock (non-sim components)."""
        record = SpanRecord(self._next(), name, pid, tid, 0, 0, 0,
                            category, dict(args))
        return _OpenSpan(self, record, wall_domain=True)

    def complete(self, name: str, start_ns: int, end_ns: int,
                 pid: str = "lumina", tid: str = "main",
                 category: str = "", **args) -> SpanRecord:
        """Record a span whose sim-time bounds are already known."""
        record = SpanRecord(self._next(), name, pid, tid, int(start_ns),
                            int(end_ns) - int(start_ns), 0, category,
                            dict(args))
        self.spans.append(record)
        return record

    def instant(self, name: str, pid: str = "lumina", tid: str = "main",
                category: str = "", ts_ns: Optional[int] = None,
                **args) -> InstantRecord:
        """Record a point event at the current (or given) sim time."""
        if ts_ns is None:
            ts_ns = self._clock()
        record = InstantRecord(self._next(), name, pid, tid, int(ts_ns),
                               category, dict(args))
        self.instants.append(record)
        return record

    def __len__(self) -> int:
        return len(self.spans) + len(self.instants)


class _NullSpan:
    """Disabled-mode span: a reusable no-op context manager."""

    __slots__ = ()

    def set(self, **args) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Tracer twin held by sessions whose metrics facet is off."""

    __slots__ = ()
    spans: List[SpanRecord] = []
    instants: List[InstantRecord] = []

    def set_clock(self, clock) -> None:
        pass

    def set_process_name(self, pid: str, name: str) -> None:
        pass

    def set_thread_name(self, pid: str, tid: str, name: str) -> None:
        pass

    def span(self, name, pid="lumina", tid="main", category="", **args):
        return _NULL_SPAN

    def wall_span(self, name, pid="lumina", tid="main", category="", **args):
        return _NULL_SPAN

    def complete(self, name, start_ns, end_ns, pid="lumina", tid="main",
                 category="", **args) -> None:
        return None

    def instant(self, name, pid="lumina", tid="main", category="",
                ts_ns=None, **args) -> None:
        return None

    def __len__(self) -> int:
        return 0


NULL_TRACER = NullTracer()
