"""The programmable switch data plane (Fig. 6).

Pipeline layout, matching the paper's P4 program:

    ingress:  RoCE parse → event injection (match-action) → ITER update
              → ingress counters → ingress mirror → L2/L3 forward
    egress:   rewrite mirrored-packet fields → egress counters

The pipeline adds a fixed sub-microsecond latency (§5 measured
<0.4 µs). Because Fig. 7 compares Lumina against stripped-down variants
(no mirroring / no event injection / plain L2 forwarding), the latency
is derived from which stages are enabled, so those variants are built by
toggling the corresponding feature flags.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .. import observe
from ..net.headers import ECN_CE
from ..net.link import Node, Port
from ..net.packet import EventType, Packet
from ..sim.engine import Simulator
from ..sim.rng import SimRandom
from .events import EventAction, EventEntry, RewriteRule
from .itertrack import IterTracker
from .mirror import MirrorBlock
from .tables import MatchActionTable

__all__ = ["TofinoSwitch", "PIPELINE_STAGES"]

#: Stages the prototype occupies (§5: "four stages of the switch's
#: processing pipeline").
PIPELINE_STAGES = 4

#: Per-feature contribution to pipeline latency (ns). The full pipeline
#: stays under the 0.4 µs measured in §5.
_BASE_LATENCY_NS = 250
_EVENT_STAGE_NS = 80
_MIRROR_STAGE_NS = 40


class TofinoSwitch(Node):
    """Event injector: a programmable switch with mirroring."""

    def __init__(self, sim: Simulator, name: str, rng: SimRandom,
                 event_injection: bool = True, mirroring: bool = True,
                 event_table_capacity: int = 140_000,
                 randomize_mirror_udp_port: bool = True,
                 ecn_threshold_bytes: Optional[int] = None,
                 mirror_faults=None):
        super().__init__(sim, name)
        self.event_injection = event_injection
        self.mirroring = mirroring
        #: RED-style marking: data packets leaving through a port whose
        #: egress queue exceeds this depth get CE-marked (organic
        #: congestion, as opposed to injected ECN events). None = off.
        self.ecn_threshold_bytes = ecn_threshold_bytes
        self.ecn_marked_by_queue = 0
        self.event_table = MatchActionTable(capacity=event_table_capacity)
        self.rewrite_rules: List[RewriteRule] = []
        self.iter_tracker = IterTracker()
        #: Optional measurement-plane fault injector (mirror-path loss
        #: and delay); None keeps the capture path pristine.
        self.mirror_faults = mirror_faults
        self.mirror = MirrorBlock(rng, randomize_udp_port=randomize_mirror_udp_port,
                                  faults=mirror_faults)
        self._forwarding: Dict[int, Port] = {}
        # Counters for the §3.5 integrity check.
        self.roce_rx_packets = 0
        self.roce_tx_packets = 0
        self.dropped_by_event = 0
        self.ecn_marked_by_event = 0
        self.corrupted_by_event = 0
        self.delayed_by_event = 0
        self.reordered_by_event = 0
        # Packets held by a reorder action, keyed by connection; each
        # entry is (packet, safety-release Event).
        self._reorder_held: Dict[tuple, tuple] = {}
        #: How long a reorder action waits for a successor before the
        #: held packet is released anyway.
        self.reorder_release_timeout_ns = 100_000

        # Observation handles (no-op twins when nothing is observed).
        obs = observe.current()
        self._tel = obs if obs.metrics else None
        self._m_rx = obs.counter("switch_roce_rx_packets", switch=name)
        self._m_tx = obs.counter("switch_roce_tx_packets", switch=name)
        self._m_lookups = obs.counter("switch_event_table_lookups",
                                      switch=name)
        self._m_matches = {
            action: obs.counter("switch_events_injected", switch=name,
                                action=action)
            for action in EventAction.ALL
        }
        self._cov = obs.domain("switch.pipeline")
        self._rec = obs.recorder(f"switch:{name}")
        # Feature flags are fixed after construction, so the per-packet
        # ingress delay is a constant; cache it off the hot path.
        self._latency_ns = self.pipeline_latency_ns

    # ------------------------------------------------------------------
    # Topology / control plane
    # ------------------------------------------------------------------
    @property
    def pipeline_latency_ns(self) -> int:
        latency = _BASE_LATENCY_NS
        if self.event_injection:
            latency += _EVENT_STAGE_NS
        if self.mirroring:
            latency += _MIRROR_STAGE_NS
        return latency

    def add_host_port(self, bandwidth_bps: int, name: Optional[str] = None) -> Port:
        return self.add_port(bandwidth_bps, name=name)

    def add_dumper_port(self, bandwidth_bps: int, weight: int = 1,
                        name: Optional[str] = None) -> Port:
        port = self.add_port(bandwidth_bps, name=name)
        self.mirror.add_target(port, weight=weight)
        return port

    def set_forwarding(self, dst_ip: int, port: Port) -> None:
        """Install an L3 forwarding entry (host IP → switch port)."""
        if port.node is not self:
            raise ValueError("forwarding target must be a port of this switch")
        self._forwarding[dst_ip] = port

    def install_event(self, entry: EventEntry) -> None:
        self.event_table.install(entry)

    def install_rewrite(self, rule: RewriteRule) -> None:
        self.rewrite_rules.append(rule)

    def clear_events(self) -> None:
        self.event_table.clear()
        self.rewrite_rules.clear()

    # ------------------------------------------------------------------
    # Data plane
    # ------------------------------------------------------------------
    def handle_packet(self, port: Port, packet: Packet) -> None:
        self.sim.schedule(self._latency_ns, self._process, packet)

    def _process(self, packet: Packet) -> None:
        event_code = EventType.NONE
        entry: Optional[EventEntry] = None
        bth = packet.bth
        ip = packet.ip
        if bth is not None and ip is not None:
            now = self.sim.now
            self.roce_rx_packets += 1
            self._m_rx.inc()
            for rule in self.rewrite_rules:
                if rule.matches(packet):
                    rule.apply(packet)
                    self._cov.hit("rewrite-applied", now)
            # ITER update runs for every RoCE packet (Fig. 3); the event
            # match additionally requires a data opcode (footnote 2).
            iteration = self.iter_tracker.update(
                ip.src_ip, ip.dst_ip, bth.dest_qp, bth.psn, now_ns=now,
            )
            if self.event_injection and bth.opcode.is_data:
                self._m_lookups.inc()
                entry = self.event_table.lookup(
                    ip.src_ip, ip.dst_ip, bth.dest_qp,
                    bth.psn, iteration, now_ns=now,
                )
                if entry is not None:
                    event_code = EventAction.CODES[entry.action]
                    self._m_matches[entry.action].inc()
                    self._cov.hit(f"event-{entry.action}", now)
                    self._rec.note(
                        now, f"inject-{entry.action}",
                        f"qpn={bth.dest_qp} psn={bth.psn} "
                        f"iter={iteration}")
                    if self._tel is not None:
                        self._tel.instant(
                            f"switch.event.{entry.action}", pid="switch",
                            tid="ingress", category="inject",
                            qpn=bth.dest_qp, psn=bth.psn,
                            iter=iteration)
            # Mirror at ingress, before the drop takes effect (§3.4).
            if self.mirroring:
                self.mirror.mirror(packet, now, event_code)
        if entry is not None:
            if entry.action == EventAction.DROP:
                self.dropped_by_event += 1
                return
            if entry.action == EventAction.ECN:
                self.ecn_marked_by_event += 1
                packet.ip.ecn = ECN_CE
                packet.invalidate_wire_cache()
            elif entry.action == EventAction.CORRUPT:
                self.corrupted_by_event += 1
                packet.icrc_ok = False
            elif entry.action == EventAction.DELAY:
                # §7 extension: hold the packet in the traffic manager.
                self.delayed_by_event += 1
                self.sim.schedule(entry.delay_ns, self._forward, packet)
                return
            elif entry.action == EventAction.REORDER:
                # §7 extension: hold until the connection's next packet
                # has been forwarded, swapping their order.
                self.reordered_by_event += 1
                conn = (packet.ip.src_ip, packet.ip.dst_ip, packet.bth.dest_qp)
                self._release_held(conn)  # at most one held per connection
                safety = self.sim.schedule(self.reorder_release_timeout_ns,
                                           self._release_held, conn)
                self._reorder_held[conn] = (packet, safety)
                return
        self._forward(packet)
        if bth is not None and ip is not None:
            self._release_held((ip.src_ip, ip.dst_ip, bth.dest_qp))

    def _release_held(self, conn: tuple) -> None:
        held = self._reorder_held.pop(conn, None)
        if held is None:
            return
        packet, safety = held
        safety.cancel()
        self._cov.hit("reorder-release", self.sim.now)
        self._forward(packet)

    def _forward(self, packet: Packet) -> None:
        ip = packet.ip
        if ip is None:
            return
        out_port = self._forwarding.get(ip.dst_ip)
        if out_port is None:
            return
        if packet.bth is not None:
            self.roce_tx_packets += 1
            self._m_tx.inc()
            if (self.ecn_threshold_bytes is not None
                    and packet.bth.opcode.is_data
                    and ip.ecn != ECN_CE
                    and out_port.queued_bytes > self.ecn_threshold_bytes):
                ip.ecn = ECN_CE
                packet.invalidate_wire_cache()
                self.ecn_marked_by_queue += 1
                self._cov.hit("queue-ecn-mark", self.sim.now)
        out_port.send(packet)

    # ------------------------------------------------------------------
    # Result collection (Table 1: switch counters)
    # ------------------------------------------------------------------
    def dump_counters(self) -> Dict[str, object]:
        """Per-port and aggregate counters, as the control plane reports."""
        counters: Dict[str, object] = {
            "roce_rx_packets": self.roce_rx_packets,
            "roce_tx_packets": self.roce_tx_packets,
            "mirrored_packets": self.mirror.mirrored_packets,
            "dropped_by_event": self.dropped_by_event,
            "ecn_marked_by_event": self.ecn_marked_by_event,
            "corrupted_by_event": self.corrupted_by_event,
            "delayed_by_event": self.delayed_by_event,
            "reordered_by_event": self.reordered_by_event,
            "ecn_marked_by_queue": self.ecn_marked_by_queue,
            "event_table_entries": len(self.event_table),
            "event_table_memory_bytes": self.event_table.memory_bytes,
            "iter_tracker_memory_bytes": self.iter_tracker.memory_bytes,
            "pipeline_stages": PIPELINE_STAGES,
            "ports": {
                port.name: {
                    "tx_packets": port.tx_packets,
                    "rx_packets": port.rx_packets,
                    "tx_bytes": port.tx_bytes,
                    "rx_bytes": port.rx_bytes,
                    "tx_drops": port.tx_drops,
                }
                for port in self.ports
            },
        }
        if self.mirror_faults is not None:
            counters.update(self.mirror_faults.counters())
        return counters
