"""Hardware counter analyzer (§4, §6.2.4).

Recomputes, from the reconstructed packet trace alone, the value every
NIC counter *should* have, and diffs that against the counters the
orchestrator collected from the hosts. A mismatch means the NIC's
counter lies — which is how Lumina exposed E810's stuck ``cnpSent`` and
CX4 Lx's stuck ``implied_nak_seq_err``.

The expected values are derived only from on-the-wire evidence, never
from simulation internals, so the analyzer works exactly as it would
against real hardware.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ...net.packet import EventType
from ..results import HostCounters, TestResult
from ..trace import PacketTrace

__all__ = ["CounterMismatch", "CounterReport", "expected_counters"]

_PSN_MASK = 0xFFFFFF
_HALF = 1 << 23


def _psn_later(a: int, b: int) -> bool:
    return a != b and ((a - b) & _PSN_MASK) < _HALF


@dataclass
class CounterMismatch:
    host: str
    counter: str            # canonical name
    vendor_counter: str     # what the operator sees
    expected: int
    reported: int

    def __str__(self) -> str:
        return (f"{self.host}.{self.vendor_counter}: expected {self.expected}, "
                f"NIC reports {self.reported}")


@dataclass
class CounterReport:
    mismatches: List[CounterMismatch] = field(default_factory=list)
    checked: int = 0
    #: False when the trace has capture gaps: expectations derived from
    #: an incomplete trace would indict healthy counters.
    conclusive: bool = True

    @property
    def consistent(self) -> bool:
        return not self.mismatches


def _replay_receiver(trace: PacketTrace, host_ips: set) -> Dict[str, int]:
    """Replay delivered data streams to count receiver-side events."""
    counts = {"out_of_sequence": 0, "implied_nak_seq_err": 0,
              "rx_icrc_errors": 0, "duplicate_request": 0}
    for conn_key in trace.connections():
        _src, dst, _qp = conn_key
        if dst not in host_ips:
            continue
        data = [p for p in trace.for_connection(conn_key) if p.is_data]
        if not data:
            continue
        read_stream = any(p.opcode.is_read_response for p in data)
        expected = None
        for pkt in data:
            if pkt.event_type == EventType.DROP:
                if expected is None:
                    expected = (pkt.psn + 1) & _PSN_MASK
                continue
            if pkt.event_type == EventType.CORRUPT:
                counts["rx_icrc_errors"] += 1
                if expected is None:
                    expected = (pkt.psn + 1) & _PSN_MASK
                continue
            if expected is None or pkt.psn == expected:
                expected = ((pkt.psn if expected is None else expected) + 1) & _PSN_MASK
                continue
            if _psn_later(pkt.psn, expected):
                key = "implied_nak_seq_err" if read_stream else "out_of_sequence"
                counts[key] += 1
            else:
                if not read_stream:
                    counts["duplicate_request"] += 1
    return counts


def expected_counters(trace: PacketTrace, host_ips: set) -> Dict[str, int]:
    """Counter values implied by the wire trace for one host."""
    counts = _replay_receiver(trace, host_ips)
    counts["cnp_sent"] = sum(
        1 for p in trace.cnps() if p.ip.src_ip in host_ips
    )
    counts["cnp_handled"] = sum(
        1 for p in trace.cnps() if p.ip.dst_ip in host_ips
    )
    counts["ecn_marked_packets"] = sum(
        1 for p in trace
        if p.is_data and p.was_ecn_marked and p.ip.dst_ip in host_ips
    )
    counts["nak_sent"] = sum(
        1 for p in trace.naks() if p.ip.src_ip in host_ips
    )
    counts["packet_seq_err"] = sum(
        1 for p in trace.naks() if p.ip.dst_ip in host_ips
    )
    return counts


#: Counters whose trace-derived expectation is exact (not a lower bound).
_EXACT = ("cnp_sent", "cnp_handled", "ecn_marked_packets", "nak_sent",
          "packet_seq_err", "implied_nak_seq_err", "out_of_sequence",
          "rx_icrc_errors")


def _check_counters(result: TestResult) -> CounterReport:
    """Diff reported NIC counters against trace-derived expectations.

    A gapped trace cannot ground-truth any counter — every expectation
    is an undercount — so the report carries no mismatches and is
    flagged inconclusive instead.
    """
    if result.trace.has_gaps:
        return CounterReport(conclusive=False)
    report = CounterReport()
    hosts: List[Tuple[HostCounters, set]] = [
        (result.requester_counters,
         {meta.requester_ip for meta in result.metadata}),
        (result.responder_counters,
         {meta.responder_ip for meta in result.metadata}),
    ]
    for counters, ips in hosts:
        expected = expected_counters(result.trace, ips)
        for name in _EXACT:
            want = expected.get(name, 0)
            got = counters.canonical.get(name, 0)
            report.checked += 1
            if want != got:
                report.mismatches.append(CounterMismatch(
                    host=counters.host,
                    counter=name,
                    vendor_counter=_vendor_name(counters, name),
                    expected=want,
                    reported=got,
                ))
    return report


def _vendor_name(counters: HostCounters, canonical: str) -> str:
    from ...rdma.profiles import get_profile

    profile = get_profile(counters.nic_type)
    return profile.counter_names.get(canonical, canonical)
