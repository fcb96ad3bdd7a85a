"""Reliable-Connected queue pair state machine.

Implements both roles of an RC connection on top of the NIC model:

* **Requester**: packetises Send/Write messages, issues Read requests,
  reacts to ACK/NAK (Go-back-N rewind after the profile's NACK-reaction
  delay), runs the retransmission timer (spec or adaptive mode, §6.3),
  and receives Read responses — re-issuing a Read request on an
  out-of-order response, which is Read's "implied NACK" (§6.1).
* **Responder**: the Go-back-N receiver — accepts in-order data,
  NAKs the expected PSN on a sequence gap (once per gap), ACKs on
  ack-request packets, and serves Read requests, including re-serving
  ranges for retransmitted requests after the NACK-reaction delay.

PSN accounting follows the IB spec: every data packet consumes one PSN
and a Read request consumes as many PSNs as it will generate response
packets, so request and response streams share one sequence space.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Deque, Dict, List, Optional, TYPE_CHECKING

from ..net.headers import (
    AckExtendedHeader,
    BaseTransportHeader,
    EthernetHeader,
    Ipv4Header,
    Opcode,
    RdmaExtendedHeader,
    UdpHeader,
    ECN_ECT0,
)
from .. import observe
from ..net.packet import Packet
from ..net.addressing import ROCEV2_UDP_PORT
from .dcqcn import DcqcnRp
from .verbs import (
    CompletionQueue,
    Verb,
    WcStatus,
    WorkCompletion,
    WorkRequest,
)

if TYPE_CHECKING:  # pragma: no cover
    from .nic import RdmaNic

__all__ = ["QpState", "QueuePair", "PSN_MASK"]

PSN_MASK = 0xFFFFFF


def psn_add(psn: int, delta: int) -> int:
    return (psn + delta) & PSN_MASK


def psn_distance(later: int, earlier: int) -> int:
    """Forward distance from ``earlier`` to ``later`` in 24-bit space."""
    return (later - earlier) & PSN_MASK


def psn_geq(a: int, b: int) -> bool:
    """a >= b under the IB 24-bit window comparison."""
    return psn_distance(a, b) < (1 << 23)


class QpState(str, Enum):
    RESET = "reset"
    RTS = "rts"  # ready to send (connected)
    ERROR = "error"


@dataclass(slots=True)
class _PacketTemplate:
    """Everything needed to (re)build one data packet of the request stream."""

    psn: int
    opcode: Opcode
    payload_len: int
    ack_request: bool
    wr_id: int
    reth: Optional[RdmaExtendedHeader] = None


@dataclass
class _SendMessage:
    """An in-flight Send/Write message awaiting its covering ACK."""

    wr: WorkRequest
    first_psn: int
    last_psn: int
    posted_at: int


@dataclass
class _ReadRange:
    """An outstanding Read: PSN range its responses will occupy."""

    wr: WorkRequest
    first_psn: int
    last_psn: int
    posted_at: int
    base_address: int
    rkey: int


class QueuePair:
    """One RC queue pair hosted on an :class:`~repro.rdma.nic.RdmaNic`."""

    def __init__(self, nic: "RdmaNic", qp_num: int, initial_psn: int,
                 cq: CompletionQueue, src_ip: int, mtu: int = 1024):
        self.nic = nic
        self.sim = nic.sim
        self.profile = nic.profile
        self.qp_num = qp_num
        self.initial_psn = initial_psn & PSN_MASK
        self.cq = cq
        self.src_ip = src_ip
        self.mtu = mtu
        self.state = QpState.RESET
        self.ets_queue_index = 0

        # Connection parameters (filled by connect()).
        self.dest_ip = 0
        self.dest_mac = 0
        self.dest_qp_num = 0
        self.dest_initial_psn = 0

        # Loss-recovery configuration (Listing 2 knobs).
        self.timeout_cfg = 14          # min RTO = 4.096 µs * 2^timeout
        self.retry_cnt = 7
        self.adaptive_retrans = False

        # ---- requester state ------------------------------------------
        self.next_psn = self.initial_psn
        self.snd_una = self.initial_psn      # oldest unacked request PSN
        self.pending_tx: Deque[Packet] = deque()
        self._templates: Dict[int, _PacketTemplate] = {}
        self._messages: List[_SendMessage] = []
        self._read_ranges: Deque[_ReadRange] = deque()
        self._highest_psn_sent: Optional[int] = None
        self.retry_count = 0
        self._timeout_event = None
        self._last_progress = 0
        self._adaptive_stage = 0
        self._adaptive_retry_budget: Optional[int] = None
        self._react_pending = False    # NACK reaction delay in progress
        self._read_gap_pending = False   # re-issued Read req being prepared
        self._read_nak_outstanding = False  # one implied NACK per gap

        # Read-response reception cursor (requester side).
        self._expected_resp_psn: Optional[int] = None

        # ---- responder state ------------------------------------------
        self.epsn = 0                  # expected PSN from the remote peer
        self._nak_sent_for_gap = False
        self.msn = 0
        self._resp_templates: Dict[int, _PacketTemplate] = {}
        self._first_message_done = False  # MigReq slow-path cache signal
        # Receive queue for inbound Sends. ``auto_recv`` models the
        # paper's responder, which continuously posts Recv requests
        # (§3.2); turning it off exposes the RC RNR-NAK path.
        self.auto_recv = True
        self._recv_wqes = 0
        self._rnr_nak_pending = False

        # ---- requester RNR handling ------------------------------------
        self.rnr_timer_ns = 10_000
        self.rnr_retry_limit = 7
        self._rnr_retry_count = 0

        # DCQCN reaction point paces this QP's data transmissions; rate
        # updates are surfaced through the NIC's telemetry handles.
        self.dcqcn = DcqcnRp(self.sim, nic.port.bandwidth_bps,
                             params=nic.dcqcn_params,
                             on_rate_change=nic.on_dcqcn_rate_change)
        self.dcqcn_enabled = True
        self._pacing_next = 0

        # Per-QP statistics surfaced through the traffic generator log.
        self.bytes_completed = 0
        self.messages_completed = 0

        # Coverage: GBN state-machine edges share the NIC's domain
        # handle; the flight recorder ring is per-QP.
        self._cov_gbn = nic._cov_gbn
        self._rec = observe.current().recorder(
            f"qp:{nic.name}:{qp_num:#x}")

    # ------------------------------------------------------------------
    # Connection management
    # ------------------------------------------------------------------
    def connect(self, dest_ip: int, dest_qp_num: int, dest_initial_psn: int,
                timeout_cfg: Optional[int] = None, retry_cnt: Optional[int] = None,
                adaptive_retrans: Optional[bool] = None) -> None:
        """Transition to RTS with the peer's metadata (exchanged in §3.2)."""
        self.dest_ip = dest_ip
        self.dest_mac = self.nic.resolve_mac(dest_ip)
        self.dest_qp_num = dest_qp_num
        self.dest_initial_psn = dest_initial_psn & PSN_MASK
        self.epsn = self.dest_initial_psn
        if timeout_cfg is not None:
            self.timeout_cfg = timeout_cfg
        if retry_cnt is not None:
            self.retry_cnt = retry_cnt
        if adaptive_retrans is not None:
            self.adaptive_retrans = adaptive_retrans and self.profile.supports_adaptive_retrans
        self.state = QpState.RTS
        self._last_progress = self.sim.now

    # ------------------------------------------------------------------
    # Pacing interface used by the NIC's ETS scheduler
    # ------------------------------------------------------------------
    def has_pending_tx(self) -> bool:
        return bool(self.pending_tx)

    @property
    def pacing_ready_at(self) -> int:
        return self._pacing_next if self.dcqcn_enabled else 0

    def dequeue_tx(self) -> Packet:
        packet = self.pending_tx.popleft()
        bth = packet.bth
        psn = bth.psn
        if self.dcqcn_enabled:
            size = packet.size
            rate = self.dcqcn.rate_bps
            if rate < 1:
                rate = 1
            gap = size * 8_000_000_000 // rate
            now = self.sim.now
            prev = self._pacing_next
            self._pacing_next = (now if now > prev else prev) + gap
            self.dcqcn.on_bytes_sent(size)
        highest = self._highest_psn_sent
        if highest is not None and psn in self._templates and \
                psn_geq(highest, psn):
            self.nic.counters.incr("retransmitted_packets")
            self.nic._m_retrans.inc()
        opcode = bth.opcode
        if opcode.is_data or opcode == Opcode.RDMA_READ_REQUEST:
            if highest is None or psn_geq(psn, highest):
                self._highest_psn_sent = psn
        return packet

    # ------------------------------------------------------------------
    # Posting work
    # ------------------------------------------------------------------
    def post_send(self, wr: WorkRequest) -> None:
        """Post a Send/Write/Read work request (requester role)."""
        if self.state is not QpState.RTS:
            raise RuntimeError(f"QP {self.qp_num:#x} not in RTS (is {self.state})")
        posted_at = self.sim.now
        if wr.verb is Verb.READ:
            self._post_read(wr, posted_at)
        else:
            self._post_send_or_write(wr, posted_at)
        self._arm_timeout()
        self.nic.notify_tx()

    def _post_send_or_write(self, wr: WorkRequest, posted_at: int) -> None:
        npkts = max(1, (wr.length + self.mtu - 1) // self.mtu)
        first_psn = self.next_psn
        remaining = wr.length
        for i in range(npkts):
            payload = min(self.mtu, remaining)
            remaining -= payload
            opcode = self._data_opcode(wr.verb, i, npkts)
            is_last = i == npkts - 1
            reth = None
            if wr.verb is Verb.WRITE and i == 0:
                reth = RdmaExtendedHeader(
                    virtual_address=wr.remote_address,
                    rkey=wr.remote_rkey,
                    dma_length=wr.length,
                )
            psn = psn_add(first_psn, i)
            template = _PacketTemplate(
                psn=psn, opcode=opcode, payload_len=payload,
                ack_request=is_last, wr_id=wr.wr_id, reth=reth,
            )
            self._templates[psn] = template
            self.pending_tx.append(self._build_from_template(template))
        last_psn = psn_add(first_psn, npkts - 1)
        self.next_psn = psn_add(first_psn, npkts)
        self._messages.append(_SendMessage(wr, first_psn, last_psn, posted_at))

    def _post_read(self, wr: WorkRequest, posted_at: int) -> None:
        npkts = max(1, (wr.length + self.mtu - 1) // self.mtu)
        first_psn = self.next_psn
        last_psn = psn_add(first_psn, npkts - 1)
        self.next_psn = psn_add(first_psn, npkts)
        rng = _ReadRange(wr, first_psn, last_psn, posted_at,
                         base_address=wr.remote_address, rkey=wr.remote_rkey)
        self._read_ranges.append(rng)
        if self._expected_resp_psn is None:
            self._expected_resp_psn = first_psn
        self.pending_tx.append(
            self._build_read_request(first_psn, wr.remote_address, wr.remote_rkey, wr.length)
        )

    @staticmethod
    def _data_opcode(verb: Verb, index: int, total: int) -> Opcode:
        if verb is Verb.SEND:
            if total == 1:
                return Opcode.SEND_ONLY
            if index == 0:
                return Opcode.SEND_FIRST
            return Opcode.SEND_LAST if index == total - 1 else Opcode.SEND_MIDDLE
        if verb is Verb.WRITE:
            if total == 1:
                return Opcode.RDMA_WRITE_ONLY
            if index == 0:
                return Opcode.RDMA_WRITE_FIRST
            return Opcode.RDMA_WRITE_LAST if index == total - 1 else Opcode.RDMA_WRITE_MIDDLE
        raise ValueError(f"no data opcode for verb {verb}")

    @staticmethod
    def _response_opcode(index: int, total: int) -> Opcode:
        if total == 1:
            return Opcode.RDMA_READ_RESPONSE_ONLY
        if index == 0:
            return Opcode.RDMA_READ_RESPONSE_FIRST
        if index == total - 1:
            return Opcode.RDMA_READ_RESPONSE_LAST
        return Opcode.RDMA_READ_RESPONSE_MIDDLE

    # ------------------------------------------------------------------
    # Packet builders
    # ------------------------------------------------------------------
    def _headers(self, payload_len: int, opcode: Opcode) -> Packet:
        # Positional header construction: this runs once per data packet
        # of every posted message, and keyword processing was measurable.
        return Packet(
            EthernetHeader(self.dest_mac, self.nic.mac),
            Ipv4Header(self.src_ip, self.dest_ip, ecn=ECN_ECT0),
            UdpHeader(0xC000 | (self.qp_num & 0x3FFF), ROCEV2_UDP_PORT),
            BaseTransportHeader(
                opcode,
                dest_qp=self.dest_qp_num,
                migreq=bool(self.profile.migreq_initial),
            ),
            payload_len=payload_len,
        )

    def _finalize_lengths(self, packet: Packet) -> Packet:
        ip = packet.ip
        udp = packet.udp
        assert ip is not None and udp is not None
        total = packet.size - 14  # everything after Ethernet
        ip.total_length = total
        udp.length = total - 20
        return packet

    def _build_from_template(self, template: _PacketTemplate) -> Packet:
        packet = self._headers(template.payload_len, template.opcode)
        packet.bth.psn = template.psn
        packet.bth.ack_request = template.ack_request
        if template.reth is not None:
            packet.reth = template.reth.copy()
        return self._finalize_lengths(packet)

    def _build_read_request(self, psn: int, address: int, rkey: int, length: int) -> Packet:
        packet = self._headers(0, Opcode.RDMA_READ_REQUEST)
        packet.bth.psn = psn
        packet.bth.ack_request = True
        packet.reth = RdmaExtendedHeader(virtual_address=address, rkey=rkey,
                                         dma_length=length)
        return self._finalize_lengths(packet)

    def _build_ack(self, psn: int, nak: bool = False) -> Packet:
        packet = self._headers(0, Opcode.ACKNOWLEDGE)
        packet.bth.psn = psn
        packet.aeth = (AckExtendedHeader.nak_sequence_error(self.msn) if nak
                       else AckExtendedHeader.ack(self.msn))
        return self._finalize_lengths(packet)

    def build_cnp(self) -> Packet:
        """A CNP addressed to this QP's peer (used by the NIC's NP block)."""
        packet = self._headers(0, Opcode.CNP)
        packet.bth.psn = 0
        return self._finalize_lengths(packet)

    # ------------------------------------------------------------------
    # Receive dispatch (called by the NIC after its RX pipeline delay)
    # ------------------------------------------------------------------
    def receive(self, packet: Packet) -> None:
        if self.state is QpState.ERROR:
            return
        opcode = packet.bth.opcode
        if opcode == Opcode.ACKNOWLEDGE:
            self._handle_ack(packet)
        elif opcode.is_read_response:
            self._handle_read_response(packet)
        elif opcode == Opcode.RDMA_READ_REQUEST:
            self._handle_read_request(packet)
        elif opcode.is_data:
            self._handle_data(packet)

    def handle_cnp(self) -> None:
        """RP role: a CNP arrived for this QP."""
        self.nic.counters.incr("cnp_handled")
        self.nic._m_cnp_handled.inc()
        self.nic._cov_nic.hit("cnp-handled", self.sim.now)
        if self.dcqcn_enabled:
            self.dcqcn.handle_cnp()

    def post_recv(self, count: int = 1) -> None:
        """Post receive WQEs for inbound Sends (responder role)."""
        if count < 1:
            raise ValueError("post_recv count must be positive")
        self._recv_wqes += count

    @property
    def recv_wqes_available(self) -> int:
        return self._recv_wqes

    # ---- responder: Send/Write data ----------------------------------
    def _handle_data(self, packet: Packet) -> None:
        psn = packet.bth.psn
        if psn == self.epsn:
            opcode = packet.bth.opcode
            if opcode in (Opcode.SEND_FIRST, Opcode.SEND_ONLY) \
                    and not self.auto_recv:
                # A new inbound Send consumes a receive WQE; with none
                # available the responder answers RNR NAK and does not
                # advance its expected PSN (IB spec 9.7.5.2.8).
                if self._recv_wqes <= 0:
                    self.nic.counters.incr("rnr_nak_sent")
                    self._cov_gbn.hit("rnr-nak-sent", self.sim.now)
                    self._rec.note(self.sim.now, "rnr-nak-sent",
                                   f"psn={psn}")
                    if not self._rnr_nak_pending:
                        self._rnr_nak_pending = True
                        delay = self.nic.rng.jitter_ns(
                            self.profile.ack_gen_ns,
                            self.profile.latency_jitter_frac)
                        self.sim.schedule(delay, self._emit_rnr_nak, psn)
                    return
                self._recv_wqes -= 1
                self._rnr_nak_pending = False
            self._cov_gbn.hit("in-order-accept", self.sim.now)
            self.epsn = psn_add(self.epsn, 1)
            self._nak_sent_for_gap = False
            if packet.bth.opcode.is_last:
                self.msn = (self.msn + 1) & PSN_MASK
                self._first_message_done = True
            if packet.bth.ack_request:
                self._schedule_ack(psn)
        elif psn_geq(psn, self.epsn):
            # Sequence gap: Go-back-N receiver NAKs the expected PSN,
            # once per gap (IB spec 9.7.5.2.8).
            self.nic.counters.incr("out_of_sequence")
            if not self._nak_sent_for_gap:
                self._nak_sent_for_gap = True
                self._cov_gbn.hit("gap-nak", self.sim.now)
                self._rec.note(self.sim.now, "gap-nak",
                               f"psn={psn} epsn={self.epsn}")
                self._schedule_nak(self.epsn)
        else:
            # Duplicate from a Go-back-N replay; re-ACK so the sender
            # can make progress if our ACK was lost.
            self.nic.counters.incr("duplicate_request")
            self._cov_gbn.hit("duplicate-request", self.sim.now)
            if packet.bth.ack_request:
                self._schedule_ack(psn)

    def _schedule_ack(self, psn: int) -> None:
        delay = self.nic.rng.jitter_ns(self.profile.ack_gen_ns,
                                       self.profile.latency_jitter_frac)
        self.sim.schedule(delay, self._emit_ack, psn, False)

    def _schedule_nak(self, psn: int) -> None:
        delay = self.nic.rng.jitter_ns(self.profile.nack_gen_write_ns,
                                       self.profile.latency_jitter_frac)
        self.sim.schedule(delay, self._emit_ack, psn, True)

    def _emit_ack(self, psn: int, nak: bool) -> None:
        if self.state is QpState.ERROR:
            return
        if nak:
            self.nic.counters.incr("nak_sent")
        self.nic.send_control(self._build_ack(psn, nak=nak))

    def _emit_rnr_nak(self, psn: int) -> None:
        self._rnr_nak_pending = False  # one RNR NAK per Send attempt
        if self.state is QpState.ERROR:
            return
        packet = self._headers(0, Opcode.ACKNOWLEDGE)
        packet.bth.psn = psn
        packet.aeth = AckExtendedHeader.rnr_nak(msn=self.msn)
        self.nic.send_control(self._finalize_lengths(packet))

    # ---- responder: Read requests -------------------------------------
    def _handle_read_request(self, packet: Packet) -> None:
        psn = packet.bth.psn
        reth = packet.reth
        if reth is None:
            return
        npkts = max(1, (reth.dma_length + self.mtu - 1) // self.mtu)
        if psn == self.epsn:
            self.epsn = psn_add(self.epsn, npkts)
            self._nak_sent_for_gap = False
            self._first_message_done = True
            self._cov_gbn.hit("read-in-order", self.sim.now)
            self._serve_read(psn, reth.dma_length, retransmit=False)
        elif psn_geq(psn, self.epsn):
            self.nic.counters.incr("out_of_sequence")
            if not self._nak_sent_for_gap:
                self._nak_sent_for_gap = True
                self._cov_gbn.hit("read-gap-nak", self.sim.now)
                self._rec.note(self.sim.now, "read-gap-nak",
                               f"psn={psn} epsn={self.epsn}")
                self._schedule_nak(self.epsn)
        else:
            # A re-issued (implied-NACK) or replayed Read request: serve
            # it again from the requested offset after the NACK-reaction
            # delay — this is the Fig. 9b latency.
            self.nic.counters.incr("duplicate_request")
            self._cov_gbn.hit("read-duplicate-retransmit", self.sim.now)
            self._rec.note(self.sim.now, "read-duplicate-retransmit",
                           f"psn={psn}")
            delay = self.nic.rng.jitter_ns(self.profile.nack_react_read_ns,
                                           self.profile.latency_jitter_frac)
            self.sim.schedule(delay, self._serve_read, psn, reth.dma_length, True)

    def _serve_read(self, first_psn: int, length: int, retransmit: bool) -> None:
        if self.state is QpState.ERROR:
            return
        npkts = max(1, (length + self.mtu - 1) // self.mtu)
        remaining = length
        for i in range(npkts):
            payload = min(self.mtu, remaining)
            remaining -= payload
            psn = psn_add(first_psn, i)
            template = _PacketTemplate(
                psn=psn,
                opcode=self._response_opcode(i, npkts),
                payload_len=payload,
                ack_request=False,
                wr_id=0,
            )
            self._resp_templates[psn] = template
            packet = self._build_from_template(template)
            if packet.bth.opcode in (Opcode.RDMA_READ_RESPONSE_LAST,
                                     Opcode.RDMA_READ_RESPONSE_ONLY):
                packet.aeth = AckExtendedHeader.ack(self.msn)
            if retransmit:
                self.nic.counters.incr("retransmitted_packets")
                self.nic._m_retrans.inc()
            self.pending_tx.append(packet)
        self.nic.notify_tx()

    # ---- requester: ACK / NAK -----------------------------------------
    def _handle_ack(self, packet: Packet) -> None:
        aeth = packet.aeth
        if aeth is None:
            return
        psn = packet.bth.psn
        if aeth.is_ack:
            self._cov_gbn.hit("ack-advance", self.sim.now)
            self._advance_una(psn_add(psn, 1))
        elif aeth.is_rnr:
            # Receiver not ready: back off for the RNR timer, then
            # resend from the NAK'd PSN (a separate retry budget from
            # the transport retry count, per the IB spec).
            self.nic.counters.incr("rnr_nak_received")
            self._cov_gbn.hit("rnr-nak-received", self.sim.now)
            self._advance_una(psn)
            self._rnr_retry_count += 1
            if self._rnr_retry_count > self.rnr_retry_limit:
                self._cov_gbn.hit("rnr-retry-exceeded", self.sim.now)
                self._rec.note(self.sim.now, "rnr-retry-exceeded",
                               f"retries={self._rnr_retry_count}")
                self._enter_error()
                return
            if not self._react_pending:
                self._react_pending = True
                self._cov_gbn.hit("rnr-backoff", self.sim.now)
                self._rec.note(self.sim.now, "rnr-backoff",
                               f"psn={psn} timer={self.rnr_timer_ns}")
                self.sim.schedule(self.rnr_timer_ns, self._rewind_to, psn, False)
        elif aeth.is_nak:
            self.nic.counters.incr("packet_seq_err")
            self._cov_gbn.hit("nak-rewind", self.sim.now)
            self._rec.note(self.sim.now, "nak-rewind", f"psn={psn}")
            self._advance_una(psn)  # everything before the NAK'd PSN is in
            self._schedule_rewind(psn)

    def _advance_una(self, new_una: int) -> None:
        if not psn_geq(new_una, self.snd_una) or new_una == self.snd_una:
            return
        for psn in self._iter_psns(self.snd_una, new_una):
            self._templates.pop(psn, None)
        self.snd_una = new_una
        self._note_progress()
        completed = [m for m in self._messages
                     if psn_geq(new_una, psn_add(m.last_psn, 1))]
        for message in completed:
            self._messages.remove(message)
            self._complete(message.wr, message.posted_at)
        if not self._outstanding():
            self._cancel_timeout()

    @staticmethod
    def _iter_psns(start: int, end: int):
        psn = start
        while psn != end:
            yield psn
            psn = psn_add(psn, 1)

    def _schedule_rewind(self, psn: int) -> None:
        """Go-back-N after the profile's NACK reaction latency (Fig. 9a)."""
        if self._react_pending:
            return
        self._react_pending = True
        delay = self.nic.rng.jitter_ns(self.profile.nack_react_write_ns,
                                       self.profile.latency_jitter_frac)
        self.sim.schedule(delay, self._rewind_to, psn, False)

    def _rewind_to(self, psn: int, from_timeout: bool) -> None:
        self._react_pending = False
        if from_timeout:
            # A timeout starts a fresh recovery round; a new implied
            # NACK may be generated for whatever gap remains.
            self._read_nak_outstanding = False
            self._read_gap_pending = False
        if self.state is QpState.ERROR:
            return
        if not psn_geq(psn, self.snd_una):
            psn = self.snd_una
        # Drop never-sent copies queued beyond the rewind point; they
        # will be regenerated in order.
        self.pending_tx = deque(
            p for p in self.pending_tx
            if not (p.bth.opcode.is_data or p.bth.opcode == Opcode.RDMA_READ_REQUEST)
            or not psn_geq(p.bth.psn, psn)
        )
        cursor = psn
        while cursor != self.next_psn:
            template = self._templates.get(cursor)
            if template is not None:
                self.pending_tx.append(self._build_from_template(template))
                cursor = psn_add(cursor, 1)
                continue
            read_range = self._find_read_range(cursor)
            if read_range is not None:
                offset = psn_distance(cursor, read_range.first_psn) * self.mtu
                length = read_range.wr.length - offset
                self.pending_tx.append(self._build_read_request(
                    cursor, read_range.base_address + offset, read_range.rkey, length))
                cursor = psn_add(read_range.last_psn, 1)
                continue
            cursor = psn_add(cursor, 1)
        self._arm_timeout()
        self.nic.notify_tx()

    def _find_read_range(self, psn: int) -> Optional[_ReadRange]:
        for read_range in self._read_ranges:
            if psn_geq(psn, read_range.first_psn) and psn_geq(read_range.last_psn, psn):
                return read_range
        return None

    # ---- requester: Read responses --------------------------------------
    def _handle_read_response(self, packet: Packet) -> None:
        if self._expected_resp_psn is None or not self._read_ranges:
            return
        psn = packet.bth.psn
        expected = self._expected_resp_psn
        if psn == expected:
            self._cov_gbn.hit("read-response-in-order", self.sim.now)
            self._read_nak_outstanding = False
            self._expected_resp_psn = psn_add(psn, 1)
            self._note_progress()
            head = self._read_ranges[0]
            if psn == head.last_psn:
                self._read_ranges.popleft()
                self._complete(head.wr, head.posted_at)
                if self._read_ranges:
                    nxt = self._read_ranges[0]
                    if not psn_geq(self._expected_resp_psn, nxt.first_psn):
                        self._expected_resp_psn = nxt.first_psn
                else:
                    self._expected_resp_psn = None
                    if not self._outstanding():
                        self._cancel_timeout()
        elif psn_geq(psn, expected):
            # Out-of-order Read response: the "implied NACK" path. The
            # requester re-issues a Read request for the missing range
            # after the (vendor-specific) NACK generation delay — this
            # is the Fig. 8b latency, 83 ms on E810.
            self.nic.counters.incr("implied_nak_seq_err")
            if not self._read_nak_outstanding:
                self._cov_gbn.hit("read-implied-nak", self.sim.now)
                self._rec.note(self.sim.now, "read-implied-nak",
                               f"psn={psn} expected={expected}")
                self.nic.note_read_loss_event(self)
                # One implied NACK per gap (mirrors the responder's
                # one-NAK-per-gap rule); a re-dropped retransmission is
                # recovered by the timeout, as the IB spec prescribes.
                self._read_nak_outstanding = True
                self._read_gap_pending = True
                delay = self.nic.rng.jitter_ns(self.profile.nack_gen_read_ns,
                                               self.profile.latency_jitter_frac)
                self.sim.schedule(delay, self._reissue_read_from, expected)
        # Duplicates (psn < expected) are silently dropped.

    def _reissue_read_from(self, psn: int) -> None:
        self._read_gap_pending = False
        if self.state is QpState.ERROR:
            return
        if self._expected_resp_psn is None or psn != self._expected_resp_psn:
            return  # the gap healed in the meantime
        read_range = self._find_read_range(psn)
        if read_range is None:
            return
        offset = psn_distance(psn, read_range.first_psn) * self.mtu
        length = read_range.wr.length - offset
        self.pending_tx.appendleft(self._build_read_request(
            psn, read_range.base_address + offset, read_range.rkey, length))
        self._arm_timeout()
        self.nic.notify_tx()

    # ------------------------------------------------------------------
    # Retransmission timer (spec §12.7.38 semantics + adaptive mode §6.3)
    # ------------------------------------------------------------------
    @property
    def base_timeout_ns(self) -> int:
        """4.096 µs * 2^timeout, the IB minimum retransmission timeout."""
        return int(4096 * (2 ** self.timeout_cfg))

    def _current_timeout_ns(self) -> int:
        if not self.adaptive_retrans:
            return self.base_timeout_ns
        ladder = self.profile.adaptive_timeout_ladder
        if not ladder:
            return self.base_timeout_ns
        if self._adaptive_stage < len(ladder):
            factor = ladder[self._adaptive_stage]
        else:
            # Beyond the measured ladder the timeout keeps doubling.
            factor = ladder[-1] * (2 ** (self._adaptive_stage - len(ladder) + 1))
        return max(4096, int(self.base_timeout_ns * factor))

    def _allowed_retries(self) -> int:
        if not self.adaptive_retrans:
            return self.retry_cnt
        if self._adaptive_retry_budget is None:
            lo, hi = self.profile.adaptive_extra_retries
            self._adaptive_retry_budget = self.retry_cnt + self.nic.rng.randint(lo, hi)
        return self._adaptive_retry_budget

    def _outstanding(self) -> bool:
        return self.snd_una != self.next_psn or bool(self._read_ranges)

    def _note_progress(self) -> None:
        self._last_progress = self.sim.now
        self.retry_count = 0
        self._rnr_retry_count = 0
        self._adaptive_stage = 0
        if self._outstanding():
            self._arm_timeout()

    def _arm_timeout(self) -> None:
        if self._timeout_event is not None:
            return
        if not self._outstanding():
            return
        self._timeout_event = self.sim.schedule(self._current_timeout_ns(),
                                                self._timeout_fired)
        self.nic._m_timer_arm.inc()

    def _cancel_timeout(self) -> None:
        if self._timeout_event is not None:
            self._timeout_event.cancel()
            self._timeout_event = None
            self.nic._m_timer_cancel.inc()

    def _timeout_fired(self) -> None:
        self._timeout_event = None
        if self.state is QpState.ERROR or not self._outstanding():
            return
        timeout = self._current_timeout_ns()
        elapsed = self.sim.now - self._last_progress
        if elapsed < timeout:
            # Progress happened since arming: re-arm for the remainder.
            self._cov_gbn.hit("timeout-rearm", self.sim.now)
            self._timeout_event = self.sim.schedule(timeout - elapsed, self._timeout_fired)
            return
        if self._read_gap_pending or self._react_pending:
            # The NIC is already in a loss-recovery slow path; hardware
            # defers the timer until that completes.
            self._cov_gbn.hit("timeout-deferred", self.sim.now)
            self._timeout_event = self.sim.schedule(timeout, self._timeout_fired)
            return
        self.nic.counters.incr("local_ack_timeout_err")
        self.nic._m_timeout.inc()
        self._cov_gbn.hit("timeout-retransmit", self.sim.now)
        self._rec.note(self.sim.now, "timeout-retransmit",
                       f"retry={self.retry_count + 1} psn={self.snd_una}")
        if self.nic._tel is not None:
            self.nic._tel.instant(
                "nic.retransmit", pid=self.nic.name,
                tid=f"qp-{self.qp_num:#x}", category="recovery",
                retry=self.retry_count + 1, psn=self.snd_una)
        self.retry_count += 1
        self._adaptive_stage += 1
        if self.retry_count > self._allowed_retries():
            self._cov_gbn.hit("retry-exceeded", self.sim.now)
            self._enter_error()
            return
        self._last_progress = self.sim.now
        rewind_psn = self.snd_una
        if self._read_ranges and self._expected_resp_psn is not None:
            head = self._read_ranges[0]
            if psn_geq(self._expected_resp_psn, head.first_psn) and \
                    not psn_geq(self._expected_resp_psn, psn_add(head.last_psn, 1)):
                rewind_psn = self._expected_resp_psn
        self._rewind_to(rewind_psn, True)

    def _enter_error(self) -> None:
        self.state = QpState.ERROR
        self.nic.counters.incr("qp_retry_exceeded")
        self._rec.note(self.sim.now, "qp-error",
                       f"retry={self.retry_count} "
                       f"rnr_retry={self._rnr_retry_count}")
        self._cancel_timeout()
        self.pending_tx.clear()
        for message in self._messages:
            self.cq.push(WorkCompletion(
                wr_id=message.wr.wr_id, verb=message.wr.verb,
                status=WcStatus.RETRY_EXC_ERR, qp_num=self.qp_num,
                length=message.wr.length, posted_at=message.posted_at,
                completed_at=self.sim.now,
            ))
        for read_range in self._read_ranges:
            self.cq.push(WorkCompletion(
                wr_id=read_range.wr.wr_id, verb=read_range.wr.verb,
                status=WcStatus.RETRY_EXC_ERR, qp_num=self.qp_num,
                length=read_range.wr.length, posted_at=read_range.posted_at,
                completed_at=self.sim.now,
            ))
        self._messages.clear()
        self._read_ranges.clear()

    def _complete(self, wr: WorkRequest, posted_at: int) -> None:
        self.bytes_completed += wr.length
        self.messages_completed += 1
        self.cq.push(WorkCompletion(
            wr_id=wr.wr_id, verb=wr.verb, status=WcStatus.SUCCESS,
            qp_num=self.qp_num, length=wr.length,
            posted_at=posted_at, completed_at=self.sim.now,
        ))

    @property
    def first_message_done(self) -> bool:
        """Responder-side: has a full message been received yet?

        The CX5 MigReq slow path stops applying to a QP once its first
        message completes (the NIC caches the connection, §6.2.3).
        """
        return self._first_message_done

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<QP {self.qp_num:#x} on {self.nic.name} state={self.state.value} "
                f"psn={self.next_psn} una={self.snd_una} epsn={self.epsn}>")
