"""Retransmission performance analyzer (§4, Fig. 5).

Breaks every injected drop into the two phases of Go-back-N recovery:

* **NACK generation** — receiver side: from the moment the first
  packet *after* the gap passes the switch (the receiver is about to
  detect out-of-order arrival) until the NACK passes the switch. For
  Read traffic the "NACK" is the re-issued Read request (§6.1).
* **NACK reaction** — sender side: from the NACK passing the switch
  until the first retransmitted data packet passes the switch.

All timestamps are switch ingress timestamps embedded in the mirrored
packets, so no clock synchronisation is involved; as the paper notes
there is an inherent ±half-RTT deviation versus host-side times.

Drops recovered without a NACK (tail drops) are reported as timeout
retransmissions with the drop→retransmission gap as the latency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ...net.headers import Opcode
from ..trace import PacketTrace, TracePacket

__all__ = ["RetransmissionEvent"]


@dataclass
class RetransmissionEvent:
    """Recovery breakdown for one injected drop."""

    conn_key: Tuple[int, int, int]
    dropped_psn: int
    drop_iteration: int
    drop_time_ns: int
    #: First post-gap data packet that actually reached the receiver.
    detect_time_ns: Optional[int] = None
    nack_time_ns: Optional[int] = None
    retrans_time_ns: Optional[int] = None
    #: True when recovery was driven by a NACK / re-issued Read request;
    #: False means a retransmission timeout recovered the loss.
    fast_retransmission: bool = False
    #: False when a capture gap overlaps the recovery window — the NAK
    #: or retransmission may have crossed the switch unseen, so the
    #: timings (and fast_retransmission) cannot be trusted.
    conclusive: bool = True

    @property
    def nack_generation_ns(self) -> Optional[int]:
        """Receiver-side phase of Fig. 5."""
        if self.nack_time_ns is None or self.detect_time_ns is None:
            return None
        return self.nack_time_ns - self.detect_time_ns

    @property
    def nack_reaction_ns(self) -> Optional[int]:
        """Sender-side phase of Fig. 5."""
        if self.retrans_time_ns is None or self.nack_time_ns is None:
            return None
        return self.retrans_time_ns - self.nack_time_ns

    @property
    def total_recovery_ns(self) -> Optional[int]:
        if self.retrans_time_ns is None:
            return None
        return self.retrans_time_ns - self.drop_time_ns

    @property
    def recovered(self) -> bool:
        return self.retrans_time_ns is not None


def _is_read_response_stream(packets: List[TracePacket]) -> bool:
    return any(p.opcode.is_read_response for p in packets if p.is_data)


def _find_nack_for_write(trace: PacketTrace, drop: TracePacket,
                         after_ns: int) -> Optional[TracePacket]:
    """The Go-back-N NAK: reverse direction, AETH NAK, PSN == dropped."""
    src_ip, dst_ip, _ = drop.conn_key
    for pkt in trace.naks():
        if pkt.ip.src_ip == dst_ip and pkt.ip.dst_ip == src_ip \
                and pkt.psn == drop.psn and pkt.timestamp_ns >= after_ns:
            return pkt
    return None


def _find_nack_for_read(trace: PacketTrace, drop: TracePacket,
                        after_ns: int) -> Optional[TracePacket]:
    """Read's implied NACK: a re-issued Read request for the missing PSN."""
    src_ip, dst_ip, _ = drop.conn_key  # data flows responder -> requester
    for pkt in trace.by_opcode(Opcode.RDMA_READ_REQUEST):
        if pkt.ip.src_ip == dst_ip and pkt.ip.dst_ip == src_ip \
                and pkt.psn == drop.psn and pkt.timestamp_ns >= after_ns:
            return pkt
    return None


def _analyze_retransmissions(trace: PacketTrace) -> List[RetransmissionEvent]:
    """Breakdown for every drop-injected data packet in the trace."""
    events: List[RetransmissionEvent] = []
    for conn_key in trace.connections():
        conn_packets = trace.for_connection(conn_key)
        data = [p for p in conn_packets if p.is_data]
        if not data:
            continue
        read_stream = _is_read_response_stream(data)
        for drop in (p for p in data if p.was_dropped):
            event = RetransmissionEvent(
                conn_key=conn_key,
                dropped_psn=drop.psn,
                drop_iteration=drop.iteration,
                drop_time_ns=drop.timestamp_ns,
            )
            # Receiver detects the loss when the next data packet that
            # was actually delivered (not itself dropped) arrives.
            for pkt in data:
                if pkt.mirror_seq > drop.mirror_seq and not pkt.was_dropped \
                        and pkt.psn != drop.psn:
                    event.detect_time_ns = pkt.timestamp_ns
                    break
            if event.detect_time_ns is not None:
                finder = _find_nack_for_read if read_stream else _find_nack_for_write
                nack = finder(trace, drop, event.detect_time_ns)
                if nack is not None:
                    event.nack_time_ns = nack.timestamp_ns
                    event.fast_retransmission = True
            # First reappearance of the dropped PSN in a later round.
            for pkt in data:
                if pkt.psn == drop.psn and pkt.iteration > drop.iteration:
                    event.retrans_time_ns = pkt.timestamp_ns
                    break
            if trace.has_gaps:
                # The recovery window runs from the drop to the observed
                # retransmission, or to the end of the trace when the
                # loss appears unrecovered (a gap may hide the proof).
                window_end = event.retrans_time_ns
                if window_end is None:
                    last = trace.packets[-1] if trace.packets else None
                    window_end = last.timestamp_ns if last else drop.timestamp_ns
                event.conclusive = not trace.gaps_overlap_window(
                    drop.timestamp_ns, window_end)
            events.append(event)
    return events
