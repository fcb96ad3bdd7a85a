"""The traffic-dumper pool: several servers dumping in concert (§3.4).

A pool aggregates heterogeneous dumper servers. The switch's mirror
block load-balances across the pool with weights proportional to each
server's capacity; after the test the orchestrator TERMs every server
and gathers all disk files for trace reconstruction.
"""

from __future__ import annotations

from typing import List

from ..net.link import connect
from ..sim.engine import Simulator
from ..switch.pipeline import TofinoSwitch
from .. import observe
from .records import DumpRecord
from .server import DumperServer

__all__ = ["DumperPool"]


class DumperPool:
    """Builds, wires and collects from a group of dumper servers."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.servers: List[DumperServer] = []
        # Per-server disk-record gauges, bound at add_server time (the
        # session is stable across a testbed's lifetime, and handles
        # must not be constructed per loop iteration — TEL001).
        self._disk_gauges: List = []

    def add_server(self, switch: TofinoSwitch, bandwidth_bps: int,
                   num_cores: int = 8, core_service_ns: int = 170,
                   ring_slots: int = 1024, weight: int = 0,
                   propagation_delay_ns: int = 500) -> DumperServer:
        """Create a server and attach it to the switch's mirror block.

        ``weight=0`` derives the WRR weight from the server's aggregate
        core capacity so faster servers absorb proportionally more
        mirrored traffic.
        """
        name = f"dumper{len(self.servers)}"
        server = DumperServer(self.sim, name, bandwidth_bps,
                              num_cores=num_cores,
                              core_service_ns=core_service_ns,
                              ring_slots=ring_slots)
        if weight <= 0:
            weight = max(1, server.capacity_pps // 1_000_000)
        switch_port = switch.add_dumper_port(bandwidth_bps, weight=weight,
                                             name=f"{switch.name}->{name}")
        connect(switch_port, server.port, propagation_delay_ns)
        self.servers.append(server)
        self._disk_gauges.append(
            observe.current().gauge("dumper_disk_records", server=name))
        return server

    def terminate_all(self) -> List[DumpRecord]:
        """Send TERM to every server; returns all records, unsorted."""
        records: List[DumpRecord] = []
        counts: List[int] = []
        tel = observe.current()
        for server, gauge in zip(self.servers, self._disk_gauges):
            written = server.terminate()
            records.extend(written)
            counts.append(len(written))
            gauge.set(len(written))
        if counts and records:
            # Load-balance skew: max per-server share over the fair share.
            fair = len(records) / len(counts)
            tel.gauge("dumper_lb_skew_permille").set(
                int(max(counts) / fair * 1000) if fair else 0)
        return records

    @property
    def total_discards(self) -> int:
        return sum(server.rx_discards for server in self.servers)

    @property
    def total_term_dropped(self) -> int:
        """Packets lost in core rings at TERM, across the pool."""
        return sum(server.term_dropped for server in self.servers)

    @property
    def total_backlog(self) -> int:
        """Packets currently queued in core rings, across the pool."""
        return sum(core.backlog for server in self.servers
                   for core in server.cores)

    @property
    def total_buffered(self) -> int:
        return sum(server.buffered_records for server in self.servers)

    @property
    def per_core_stats(self) -> dict:
        """Per-server, per-core processed/dropped/term_dropped stats."""
        return {server.name: server.core_stats for server in self.servers}
