"""Congestion-notification (CNP) analyzer (§4, §6.3).

Validates DCQCN notification-point behaviour from the packet trace:

* every CNP must be preceded by an ECN-marked data packet in the
  reverse direction (no spurious CNPs);
* consecutive CNPs must respect the configured / hidden minimum
  interval — :func:`min_cnp_interval_ns` measures the floor a NIC
  actually enforces (how the hidden E810 ~50 µs interval was found);
* :func:`infer_rate_limit_scope` recovers the vendor's rate-limiting
  granularity (per IP / per port / per QP) by comparing CNP streams
  across QPs and destination IPs, reproducing the §6.3 methodology.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ...rdma.profiles import CnpLimitMode
from ..trace import PacketTrace

__all__ = ["CnpReport", "min_cnp_interval_ns",
           "infer_rate_limit_scope"]


@dataclass
class CnpReport:
    """Per-trace CNP accounting."""

    total_cnps: int = 0
    total_ecn_marked: int = 0
    spurious_cnps: int = 0
    #: CNP timestamps grouped by (NP ip, RP ip, dest QP).
    streams: Dict[Tuple[int, int, int], List[int]] = field(default_factory=dict)
    #: False when the trace has capture gaps: a lost mirror clone could
    #: have been the ECN mark that "spurious" CNPs answered, or a CNP
    #: whose absence shrinks the measured interval floor.
    conclusive: bool = True

    def intervals_ns(self, key: Optional[Tuple[int, int, int]] = None) -> List[int]:
        """Gaps between consecutive CNPs of one stream (or all merged)."""
        if key is not None:
            times = self.streams.get(key, [])
        else:
            times = sorted(t for values in self.streams.values() for t in values)
        return [b - a for a, b in zip(times, times[1:])]


def _analyze_cnps(trace: PacketTrace) -> CnpReport:
    """Extract CNP streams and validate them against the marks seen."""
    report = CnpReport(conclusive=not trace.has_gaps)
    marked_times: Dict[Tuple[int, int], List[int]] = {}
    for pkt in trace:
        if pkt.is_data and pkt.was_ecn_marked:
            report.total_ecn_marked += 1
            key = (pkt.record.ip.dst_ip, pkt.record.ip.src_ip)  # NP ip, RP ip
            marked_times.setdefault(key, []).append(pkt.timestamp_ns)
    for pkt in trace.cnps():
        report.total_cnps += 1
        np_ip = pkt.record.ip.src_ip
        rp_ip = pkt.record.ip.dst_ip
        stream = (np_ip, rp_ip, pkt.record.dest_qp)
        report.streams.setdefault(stream, []).append(pkt.timestamp_ns)
        marks = marked_times.get((np_ip, rp_ip), [])
        if not any(t <= pkt.timestamp_ns for t in marks):
            report.spurious_cnps += 1
    for times in report.streams.values():
        times.sort()
    return report


def min_cnp_interval_ns(trace: PacketTrace, per_np_ip: bool = True) -> Optional[int]:
    """The smallest observed gap between CNPs from one notification point.

    Marking *every* data packet with ECN and measuring this floor is
    exactly how the paper discovered E810's hidden ~50 µs interval.
    """
    report = _analyze_cnps(trace)
    by_np: Dict[int, List[int]] = {}
    for (np_ip, _rp_ip, _qp), times in report.streams.items():
        key = np_ip if per_np_ip else 0
        by_np.setdefault(key, []).extend(times)
    gaps: List[int] = []
    for times in by_np.values():
        times.sort()
        gaps.extend(b - a for a, b in zip(times, times[1:]))
    return min(gaps) if gaps else None


def infer_rate_limit_scope(trace: PacketTrace,
                           interval_ns: int,
                           ip_to_port: Optional[Dict[int, object]] = None,
                           tolerance: float = 0.5) -> str:
    """Infer the CNP rate-limiter scope from a multi-QP, multi-IP trace.

    The experiment design (§6.3): mark ECN on several QPs spread across
    several destination IPs simultaneously, then look at which CNP
    streams share a limiter. If CNPs to *different* QPs of the same IP
    violate the interval when merged, the limiter cannot be per-port or
    per-IP; if different IPs' CNPs violate it when merged, it cannot be
    per-port; otherwise the coarsest consistent scope is reported.

    ``ip_to_port`` maps every NP IP to the physical port it lives on —
    required when multi-GID hosts carry several IPs per port (without
    it each IP is assumed to be its own port, and per-IP limiting is
    indistinguishable from per-port).
    """
    report = _analyze_cnps(trace)
    floor = interval_ns * (1.0 - tolerance)
    port_of = ip_to_port or {}

    def respects(times: List[int]) -> bool:
        times = sorted(times)
        return all(b - a >= floor for a, b in zip(times, times[1:]))

    # Merge per scope and test the interval at each granularity.
    per_port: Dict[object, List[int]] = {}
    per_ip: Dict[Tuple[object, int], List[int]] = {}
    for (np_ip, rp_ip, qp), times in report.streams.items():
        port = port_of.get(np_ip, np_ip)
        per_port.setdefault(port, []).extend(times)
        # Per-destination-IP limiting is shared across all GIDs of the
        # notifying port (CX4 Lx behaviour).
        per_ip.setdefault((port, rp_ip), []).extend(times)

    if all(respects(times) for times in per_port.values()):
        return CnpLimitMode.PER_PORT
    if all(respects(times) for times in per_ip.values()):
        return CnpLimitMode.PER_IP
    if all(respects(times) for times in report.streams.values()):
        return CnpLimitMode.PER_QP
    return "none"
