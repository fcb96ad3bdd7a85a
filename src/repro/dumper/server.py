"""A traffic-dumper server: DPDK-style RX with RSS across CPU cores.

Each server receives mirrored packets on one NIC port, spreads them
across cores with Receive Side Scaling (a hash over the 5-tuple) and
buffers trimmed records in memory, writing them out when the
orchestrator sends TERM (§3.4).

The performance model is the one that motivated Lumina's per-packet
load balancing: a core processes one packet per fixed service time and
fronts a bounded ring; when a burst lands on one core (RSS is per-flow,
and all mirrored traffic of one QP is one flow) the ring overflows and
packets are discarded — the ``rx_discards_phy`` situation described in
§3.4. Rewriting the UDP port at the switch fans the same traffic across
all cores and makes the pool keep up.
"""

from __future__ import annotations

from typing import List

from ..net.link import Node, Port
from ..net.packet import Packet
from ..sim.engine import Simulator
from .. import observe
from .records import DumpRecord, make_record

__all__ = ["DumperServer"]


_FNV_PRIME = 0x01000193
#: Memoized FNV-1a register after folding (src_ip, dst_ip, src_port).
#: The mirror block randomizes only the UDP *destination* port per
#: packet, so the 12-byte prefix repeats for every packet of a flow;
#: caching it turns 16 byte-folds per packet into 4. Bounded: the key
#: space is the testbed's flow set, but clear defensively anyway.
_rss_prefix_cache: dict = {}


def _rss_hash(src_ip: int, dst_ip: int, src_port: int, dst_port: int) -> int:
    """Deterministic FNV-1a over the 5-tuple fields RSS hashes."""
    key = (src_ip, dst_ip, src_port)
    value = _rss_prefix_cache.get(key)
    if value is None:
        if len(_rss_prefix_cache) >= 4096:
            # repro-lint: ignore[RACE001] — idempotent memo cache keyed by
            # pure inputs; a per-worker copy changes speed, never results.
            _rss_prefix_cache.clear()  # repro-lint: ignore[RACE001]
        value = 0x811C9DC5
        for word in (src_ip, dst_ip, src_port):
            for shift in (24, 16, 8, 0):
                value ^= (word >> shift) & 0xFF
                value = (value * _FNV_PRIME) & 0xFFFFFFFF
        _rss_prefix_cache[key] = value  # repro-lint: ignore[RACE001] — memo
    # Unrolled fold of dst_port's four big-endian bytes.
    value ^= (dst_port >> 24) & 0xFF
    value = (value * _FNV_PRIME) & 0xFFFFFFFF
    value ^= (dst_port >> 16) & 0xFF
    value = (value * _FNV_PRIME) & 0xFFFFFFFF
    value ^= (dst_port >> 8) & 0xFF
    value = (value * _FNV_PRIME) & 0xFFFFFFFF
    value ^= dst_port & 0xFF
    return (value * _FNV_PRIME) & 0xFFFFFFFF


class _Core:
    """One CPU core: a bounded ring plus a fixed per-packet service time."""

    def __init__(self, index: int, ring_slots: int, service_ns: int):
        self.index = index
        self.ring_slots = ring_slots
        self.service_ns = service_ns
        self.backlog = 0
        self.free_at = 0
        self.processed = 0
        self.dropped = 0
        #: Packets still in the ring at TERM — lost, but *counted*.
        self.term_dropped = 0


class DumperServer(Node):
    """One host of the traffic dumper pool."""

    def __init__(self, sim: Simulator, name: str, bandwidth_bps: int,
                 num_cores: int = 8, core_service_ns: int = 170,
                 ring_slots: int = 1024):
        super().__init__(sim, name)
        if num_cores <= 0:
            raise ValueError("dumper needs at least one core")
        self.port: Port = self.add_port(bandwidth_bps, name=f"{name}.eth0")
        self.cores = [_Core(i, ring_slots, core_service_ns) for i in range(num_cores)]
        self._records: List[DumpRecord] = []
        self._terminated = False
        self.rx_discards = 0
        self.term_dropped = 0
        tel = observe.current()
        self._m_records = tel.counter("dumper_records", server=name)
        self._m_discards = tel.counter("dumper_discards", server=name)
        self._m_ring = [
            tel.gauge("dumper_ring_occupancy", server=name, core=str(i))
            for i in range(num_cores)
        ]

    # ------------------------------------------------------------------
    @property
    def capacity_pps(self) -> int:
        """Aggregate packets/second the server can sustain when balanced."""
        return len(self.cores) * (1_000_000_000 // self.cores[0].service_ns)

    def handle_packet(self, port: Port, packet: Packet) -> None:
        udp = packet.udp
        ip = packet.ip
        if self._terminated or udp is None or ip is None:
            return
        core = self.cores[
            _rss_hash(ip.src_ip, ip.dst_ip,
                      udp.src_port, udp.dst_port) % len(self.cores)
        ]
        if core.backlog >= core.ring_slots:
            core.dropped += 1
            self.rx_discards += 1
            self._m_discards.inc()
            return
        core.backlog += 1
        self._m_ring[core.index].set(core.backlog)
        sim = self.sim
        start = sim.now
        free_at = core.free_at
        if free_at > start:
            start = free_at
        core.free_at = start = start + core.service_ns
        sim.schedule_at(start, self._process, core, packet)

    def _process(self, core: _Core, packet: Packet) -> None:
        if self._terminated:
            # The ring's contents were already accounted as term_dropped.
            return
        core.backlog -= 1
        core.processed += 1
        self._m_ring[core.index].set(core.backlog)
        # Copy only the first 128 bytes into pre-allocated memory (§5).
        self._records.append(make_record(packet, self.sim.now, self.name, core.index))
        self._m_records.inc()

    # ------------------------------------------------------------------
    def terminate(self) -> List[DumpRecord]:
        """Handle the orchestrator's TERM: restore UDP ports, write disk.

        Returns the written records and frees the in-memory buffer, so
        the caller holds the only reference: a finished testbed is
        cyclic garbage, and records it kept would outlive the run until
        the next full collection. Packets still queued in core rings
        at TERM time are lost, as they would be in the real dumper —
        but they are *counted* (``term_dropped``, folded into
        ``rx_discards``) so a broken-capture run cannot under-report
        its own discards exactly when integrity fails.
        """
        self._terminated = True
        for core in self.cores:
            if core.backlog:
                core.term_dropped = core.backlog
                self.term_dropped += core.backlog
                self.rx_discards += core.backlog
                self._m_discards.inc(core.backlog)
                core.backlog = 0
                self._m_ring[core.index].set(0)
        records, self._records = self._records, []
        return [record.restored() for record in records]

    @property
    def buffered_records(self) -> int:
        return len(self._records)

    @property
    def core_stats(self) -> List[dict]:
        return [
            {"core": c.index, "processed": c.processed, "dropped": c.dropped,
             "term_dropped": c.term_dropped}
            for c in self.cores
        ]
