"""Instrumentation glue between the testbed and an observation session.

The simulation engine stays free of telemetry imports: it exposes a
single ``probe`` attribute (duck-typed, default ``None``) that its run
loop consults. :class:`SimProbe` is the object this module plugs in —
it times every callback on the wall clock, tracks queue depth, and
aggregates per-callback hot-spot statistics in a plain dict (flushed to
registry metrics in :meth:`flush` so the per-event cost stays at two
``perf_counter_ns`` calls and one dict update).

:func:`attach_testbed` wires a built testbed into the active session:
simulator probe + tracer clock + process/thread naming for the Chrome
trace export (one process per host/switch/dumper, one thread per QP or
pipeline stage).
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

if TYPE_CHECKING:
    from ..observe import Session

__all__ = ["SimProbe", "attach_simulator", "attach_testbed"]


class SimProbe:
    """Per-callback wall-clock timing + queue-depth tracking for a sim."""

    __slots__ = ("session", "name", "_stats", "_queue_gauge",
                 "_events_counter", "_wall_start")

    def __init__(self, session: "Session", name: str = "sim"):
        self.session = session
        self.name = name
        #: qualname -> [count, total_wall_ns, max_wall_ns]
        self._stats: Dict[str, List[int]] = {}
        self._queue_gauge = session.gauge("sim_queue_depth", sim=name)
        self._events_counter = session.counter("sim_events_processed",
                                               sim=name)
        self._wall_start = time.perf_counter_ns()

    def record(self, fn, wall_ns: int, now_ns: int, queue_depth: int) -> None:
        """Called by the engine's run loop after every executed callback."""
        key = getattr(fn, "__qualname__", None) or repr(fn)
        stat = self._stats.get(key)
        if stat is None:
            self._stats[key] = [1, wall_ns, wall_ns]
        else:
            stat[0] += 1
            stat[1] += wall_ns
            if wall_ns > stat[2]:
                stat[2] = wall_ns
        self._events_counter.inc()
        self._queue_gauge.set(queue_depth)

    def hotspots(self, limit: int = 10) -> List[Tuple[str, int, int]]:
        """Top callbacks by total wall time: (qualname, count, total_ns)."""
        ranked = sorted(self._stats.items(), key=lambda kv: -kv[1][1])
        return [(name, stat[0], stat[1]) for name, stat in ranked[:limit]]

    def flush(self) -> None:
        """Publish accumulated per-callback stats as registry metrics."""
        wall_elapsed = time.perf_counter_ns() - self._wall_start
        total_events = sum(stat[0] for stat in self._stats.values())
        rate = self.session.gauge("sim_events_per_sec", sim=self.name)
        if wall_elapsed > 0:
            rate.set(int(total_events * 1_000_000_000 / wall_elapsed))
        # Handle construction in this loop is intentional: the label set
        # (one per callback qualname) is only known at flush time, and
        # flush runs once per export, not on the hot path.
        for qualname, (count, total_ns, max_ns) in self._stats.items():
            self.session.counter(  # repro-lint: ignore[TEL001]
                "sim_callback_count",
                fn=qualname, sim=self.name).inc(count)
            self.session.counter(  # repro-lint: ignore[TEL001]
                "sim_callback_wall_ns",
                fn=qualname, sim=self.name).inc(total_ns)
            self.session.gauge(  # repro-lint: ignore[TEL001]
                "sim_callback_max_wall_ns",
                fn=qualname, sim=self.name).set(max_ns)


def attach_simulator(sim, session: "Session",
                     name: str = "sim") -> SimProbe:
    """Install a probe on a simulator and sync the tracer clock to it."""
    probe = SimProbe(session, name=name)
    sim.probe = probe
    session.tracer.set_clock(lambda: sim.now)
    return probe


def attach_testbed(testbed, session: "Session") -> Optional[SimProbe]:
    """Wire a built testbed into the session (probe + trace naming)."""
    probe = attach_simulator(testbed.sim, session)
    tracer = session.tracer
    tracer.set_process_name("switch", f"switch {testbed.switch.name}")
    tracer.set_thread_name("switch", "ingress", "ingress pipeline")
    tracer.set_thread_name("switch", "mirror", "mirror block")
    for host in (testbed.requester, testbed.responder):
        tracer.set_process_name(host.name, f"host {host.name} "
                                           f"({host.nic.profile.name})")
        tracer.set_thread_name(host.name, "rx", "rx pipeline")
        tracer.set_thread_name(host.name, "tx", "tx pipeline")
    for server in testbed.dumpers.servers:
        tracer.set_process_name(server.name, f"dumper {server.name}")
    return probe
