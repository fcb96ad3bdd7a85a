"""Injected-event definitions for the event injector (§3.3).

Two kinds of rules exist in the data plane:

* :class:`EventEntry` — an exact match on the low-level 5-tuple
  ``(src_ip, dst_ip, dst_qpn, psn, iter)`` computed by the control
  plane's intent translation (Fig. 2), with a drop / ECN / corrupt
  action. These target *data* packets only (the paper's footnote: no
  events on ACK/NACK control packets).
* :class:`RewriteRule` — a wildcard rule that rewrites a header field on
  every matching packet; the MigReq fix-up used to confirm the
  CX5/E810 interoperability bug (§6.2.3) is the canonical example.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..net.packet import EventType, Packet

__all__ = ["EventAction", "EventEntry", "RewriteRule"]


class EventAction:
    """Data-plane actions an event entry can carry.

    ``delay`` and ``reorder`` are the §7 extension events: delay holds
    the packet in the traffic manager for a configured time; reorder
    holds it until the connection's next packet has passed, swapping
    their wire order without any loss.
    """

    DROP = "drop"
    ECN = "ecn"
    CORRUPT = "corrupt"
    DELAY = "delay"
    REORDER = "reorder"

    ALL = (DROP, ECN, CORRUPT, DELAY, REORDER)

    #: EventType code embedded in the mirrored copy for each action.
    CODES = {
        DROP: EventType.DROP,
        ECN: EventType.ECN,
        CORRUPT: EventType.CORRUPT,
        DELAY: EventType.DELAY,
        REORDER: EventType.REORDER,
    }


#: Iteration value meaning "match any (re)transmission round". An
#: extension over the paper's exact (PSN, ITER) matching: combined with
#: ``max_hits=1`` it expresses "the first time PSN N passes, whichever
#: round that is" — the right primitive for loss-rate emulation, where
#: earlier losses shift later packets into higher rounds.
ANY_ITERATION = 0


@dataclass
class EventEntry:
    """One populated match-action entry (the low-level form of Fig. 2)."""

    src_ip: int
    dst_ip: int
    dst_qpn: int
    psn: int
    iteration: int
    action: str
    #: Hold time for ``delay`` actions (ns).
    delay_ns: int = 0
    #: Stop matching after this many hits (0 = unlimited).
    max_hits: int = 0
    hits: int = 0

    def __post_init__(self) -> None:
        if self.action not in EventAction.ALL:
            raise ValueError(f"unknown event action {self.action!r}")
        if self.iteration < ANY_ITERATION:
            raise ValueError("iteration numbers start at 1 (Fig. 3); "
                             "0 is the any-round wildcard")
        if self.action == EventAction.DELAY and self.delay_ns <= 0:
            raise ValueError("delay actions need a positive delay_ns")
        if self.action != EventAction.DELAY and self.delay_ns:
            raise ValueError("delay_ns only applies to delay actions")
        if self.max_hits < 0:
            raise ValueError("max_hits cannot be negative")

    @property
    def exhausted(self) -> bool:
        return bool(self.max_hits) and self.hits >= self.max_hits

    @property
    def key(self) -> tuple:
        return (self.src_ip, self.dst_ip, self.dst_qpn, self.psn, self.iteration)

    #: Tofino-style exact-match entry cost in bytes of on-chip memory
    #: (key + action + counters), used for the §5 memory estimate.
    ENTRY_BYTES = 10


@dataclass
class RewriteRule:
    """Blanket field rewrite applied at ingress to matching RoCE packets."""

    field_name: str                      # currently: "migreq"
    value: int
    src_ip: Optional[int] = None         # None matches any source
    hits: int = 0

    _SUPPORTED = ("migreq",)

    def __post_init__(self) -> None:
        if self.field_name not in self._SUPPORTED:
            raise ValueError(f"unsupported rewrite field {self.field_name!r}")

    def matches(self, packet: Packet) -> bool:
        if not packet.is_roce or packet.ip is None:
            return False
        return self.src_ip is None or packet.ip.src_ip == self.src_ip

    def apply(self, packet: Packet) -> None:
        if self.field_name == "migreq":
            packet.bth.migreq = bool(self.value)
        self.hits += 1
