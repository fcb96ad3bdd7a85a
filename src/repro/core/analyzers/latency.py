"""Latency analyzer: RTT and service-time estimates from the trace.

§4 notes that retransmission measurements carry a half-RTT deviation
because timestamps come from the switch, and suggests pre-measuring the
testbed RTT to compensate. This analyzer provides that measurement from
a clean trace:

* **ACK RTT** — for Write/Send: the gap between a message's LAST data
  packet and its ACK passing the switch. Covers switch→responder
  propagation, the responder's RX pipeline + ACK generation, and the
  way back: exactly the "loop" a NACK measurement also traverses.
* **Read service time** — the gap between a Read request and the first
  response packet (responder fetch latency).
* **inter-arrival statistics** of a data stream, from which the
  effective pacing rate of a (possibly DCQCN-throttled) sender can be
  read off.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ...net.headers import Opcode
from ..trace import PacketTrace, TracePacket

__all__ = ["LatencySummary", "ack_rtt_samples", "read_service_samples",
           "stream_rate_bps", "summarize"]


@dataclass
class LatencySummary:
    count: int
    mean_ns: float
    min_ns: int
    max_ns: int

    @property
    def mean_us(self) -> float:
        return self.mean_ns / 1e3


def summarize(samples_ns: List[int]) -> Optional[LatencySummary]:
    if not samples_ns:
        return None
    return LatencySummary(
        count=len(samples_ns),
        mean_ns=sum(samples_ns) / len(samples_ns),
        min_ns=min(samples_ns),
        max_ns=max(samples_ns),
    )


def ack_rtt_samples(trace: PacketTrace) -> Dict[Tuple[int, int, int], List[int]]:
    """Per-connection ACK round-trip samples (LAST data → covering ACK).

    Only clean acknowledgements are sampled: NAK/RNR responses measure
    recovery paths, not the baseline RTT.
    """
    samples: Dict[Tuple[int, int, int], List[int]] = {}
    pending: Dict[Tuple[int, int, int], List[TracePacket]] = {}
    for pkt in trace:
        if pkt.is_data and pkt.opcode.is_last and not pkt.opcode.is_read_response:
            pending.setdefault(pkt.conn_key, []).append(pkt)
            continue
        if pkt.opcode != Opcode.ACKNOWLEDGE or pkt.aeth is None \
                or not pkt.aeth.is_ack:
            continue
        # Reverse direction: match the ACK to its data connection.
        for conn_key, lasts in pending.items():
            src, dst, _qpn = conn_key
            if pkt.ip.src_ip != dst or pkt.ip.dst_ip != src:
                continue
            covered = [p for p in lasts if _psn_le(p.psn, pkt.psn)]
            if not covered:
                continue
            newest = max(covered, key=lambda p: p.mirror_seq)
            samples.setdefault(conn_key, []).append(
                pkt.timestamp_ns - newest.timestamp_ns)
            for p in covered:
                lasts.remove(p)
            break
    return samples


def _psn_le(a: int, b: int) -> bool:
    return ((b - a) & 0xFFFFFF) < (1 << 23)


def read_service_samples(trace: PacketTrace) -> List[int]:
    """Gaps between Read requests and their first response packets."""
    requests: Dict[Tuple[int, int, int], List[TracePacket]] = {}
    samples: List[int] = []
    for pkt in trace:
        if pkt.opcode == Opcode.RDMA_READ_REQUEST:
            key = (pkt.ip.src_ip, pkt.ip.dst_ip, pkt.psn)
            requests.setdefault(key[:2] + (pkt.psn,), []).append(pkt)
        elif pkt.opcode in (Opcode.RDMA_READ_RESPONSE_FIRST,
                            Opcode.RDMA_READ_RESPONSE_ONLY):
            key = (pkt.ip.dst_ip, pkt.ip.src_ip, pkt.psn)
            queue = requests.get(key)
            if queue:
                request = queue.pop(0)
                samples.append(pkt.timestamp_ns - request.timestamp_ns)
    return samples


def stream_rate_bps(trace: PacketTrace,
                    conn_key: Tuple[int, int, int],
                    skip: int = 1) -> Optional[float]:
    """Effective wire rate of a data stream from switch timestamps."""
    data = trace.data_packets(conn_key)
    if len(data) <= skip + 1:
        return None
    window = data[skip:]
    elapsed = window[-1].timestamp_ns - window[0].timestamp_ns
    if elapsed <= 0:
        return None
    payload_bits = sum(p.payload_len * 8 for p in window[1:])
    return payload_bits / elapsed * 1e9
