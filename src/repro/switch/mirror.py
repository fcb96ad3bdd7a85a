"""Ingress mirroring with metadata embedding and per-packet load balancing.

Every RoCE packet is cloned at the ingress pipeline — *before* any drop
takes effect — and the clone is sent to a traffic-dumper port. Three
pieces of metadata are embedded by rewriting header fields the analysis
does not otherwise need (§3.4):

* IPv4 TTL            ← event type code
* Ethernet source MAC ← global mirror sequence number (48-bit)
* Ethernet dest MAC   ← ingress hardware timestamp, ns (48-bit)

To spread load across dumper CPU cores the UDP destination port (4791)
is rewritten to a pseudo-random value, creating the illusion of many
flows for RSS; dumpers restore it when writing records to disk. Dumper
ports are chosen by smooth weighted round-robin so a pool of unequal
servers is loaded proportionally to capacity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional

from .. import observe
from ..net.link import Port
from ..net.packet import Packet
from ..sim.rng import SimRandom

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..faults.injector import MeasurementFaultInjector

__all__ = ["MirrorBlock", "MirrorTarget", "MirrorConfigError"]


class MirrorConfigError(RuntimeError):
    """The mirror block is in a state it cannot mirror from.

    Raised instead of ``assert`` so the checks survive ``python -O``:
    a silently mis-mirrored run would corrupt the very trace the
    integrity scheme is supposed to protect.
    """

_MASK48 = 0xFFFFFFFFFFFF


@dataclass
class MirrorTarget:
    """One dumper-facing switch port with a WRR weight."""

    port: Port
    weight: int = 1
    current: int = 0  # smooth-WRR running credit
    packets: int = 0

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise ValueError("mirror target weight must be positive")


class MirrorBlock:
    """The switch's mirroring stage."""

    def __init__(self, rng: SimRandom, randomize_udp_port: bool = True,
                 faults: Optional["MeasurementFaultInjector"] = None):
        self._rng = rng.child("mirror")
        self.randomize_udp_port = randomize_udp_port
        self._targets: List[MirrorTarget] = []
        self._faults = faults
        self.mirror_seq = 0          # next sequence number to assign
        self.mirrored_packets = 0
        obs = observe.current()
        self._m_mirrored = obs.counter("switch_mirrored_packets")
        self._m_queue = obs.gauge("switch_mirror_queue_bytes")
        self._cov = obs.domain("switch.mirror")

    def add_target(self, port: Port, weight: int = 1) -> None:
        self._targets.append(MirrorTarget(port=port, weight=weight))

    @property
    def targets(self) -> List[MirrorTarget]:
        return list(self._targets)

    def _pick_target(self) -> MirrorTarget:
        """Smooth weighted round-robin (nginx-style)."""
        if not self._targets:
            raise MirrorConfigError("mirror block has no dumper targets")
        total = 0
        best: Optional[MirrorTarget] = None
        for target in self._targets:
            target.current += target.weight
            total += target.weight
            if best is None or target.current > best.current:
                best = target
        if best is None:
            raise MirrorConfigError("weighted round-robin selected no target")
        best.current -= total
        return best

    def mirror(self, packet: Packet, now_ns: int, event_code: int) -> Optional[Packet]:
        """Clone, stamp and transmit the mirrored copy.

        Returns the clone (for tests), or None when no dumper ports are
        configured (mirroring disabled).
        """
        if not self._targets:
            return None
        clone = packet.copy()
        clone.is_mirror = True
        # A dropped or corrupted original must still be dumped intact.
        clone.icrc_ok = True
        clone.ip.ttl = event_code & 0xFF
        eth = clone.eth
        eth.src_mac = self.mirror_seq & _MASK48
        eth.dst_mac = now_ns & _MASK48
        if self.randomize_udp_port and clone.udp is not None:
            clone.udp.dst_port = self._rng.ephemeral_port()
        self.mirror_seq += 1
        self.mirrored_packets += 1
        target = self._pick_target()
        target.packets += 1
        self._m_mirrored.inc()
        # The fault injector models loss/delay *after* the switch has
        # stamped the clone — the seq is consumed either way, exactly
        # like a real mirror drop between switch and dumper.
        if self._faults is not None and self._faults.on_mirror(target.port, clone):
            self._cov.hit("fault-intercepted", now_ns)
            return clone
        self._cov.hit("mirrored", now_ns)
        target.port.send(clone)
        self._m_queue.set(target.port.queued_bytes)
        return clone

    def reset(self) -> None:
        self.mirror_seq = 0
        self.mirrored_packets = 0
        for target in self._targets:
            target.current = 0
            target.packets = 0
