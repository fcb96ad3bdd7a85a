"""The RNIC node: RX/TX pipelines around the queue pairs.

This is the "hardware network stack under test". The TX side arbitrates
across QPs with the ETS scheduler and enforces per-QP DCQCN pacing; the
RX side validates iCRC, runs the DCQCN notification point (CNP
generation with the vendor's rate-limiting scope) and dispatches to QPs
after the profile's RX pipeline delay.

Two vendor-confirmed bugs live in the RX path because that is where
they physically occur:

* **Noisy neighbor** (§6.2.2, CX4 Lx): when too many QPs are in the
  Read loss-recovery slow path at once, the whole pipeline stalls and
  every arriving packet — whoever it belongs to — is discarded
  (visible as ``rx_discards_phy``).
* **MigReq slow path** (§6.2.3, CX5): packets carrying MigReq=0 are
  diverted to a slow path with a small buffer; many QPs starting
  simultaneously overflow it, so first messages get discarded.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional

from .. import observe
from ..net.headers import Opcode, ECN_CE
from ..net.link import Node, Port, gbps
from ..net.packet import Packet
from ..sim.engine import Simulator, MS
from ..sim.rng import SimRandom
from .counters import NicCounters
from .dcqcn import CnpRateLimiter, DcqcnParams
from .ets import EtsQueueConfig, EtsScheduler
from .profiles import RnicProfile
from .qp import QueuePair
from .verbs import CompletionQueue

__all__ = ["RdmaNic"]

#: Width of the sliding window used to detect *concurrent* Read-loss
#: slow-path activations for the noisy-neighbor stall.
_READ_LOSS_WINDOW_NS = 1 * MS


class RdmaNic(Node):
    """A host NIC with a hardware-offloaded RoCEv2 stack."""

    def __init__(self, sim: Simulator, name: str, profile: RnicProfile,
                 rng: SimRandom, bandwidth_gbps: Optional[float] = None,
                 mtu: int = 1024,
                 min_time_between_cnps_ns: Optional[int] = None,
                 dcqcn_rp_enable: bool = True,
                 dcqcn_np_enable: bool = True,
                 adaptive_retrans: bool = False):
        super().__init__(sim, name)
        self.profile = profile
        self.rng = rng.child(f"nic/{name}")
        self.mtu = mtu
        bandwidth = gbps(bandwidth_gbps or profile.default_bandwidth_gbps)
        self.port: Port = self.add_port(bandwidth, name=f"{name}.eth0")
        self.mac = self.rng.randint(0x02_00_00_00_00_00, 0x02_FF_FF_FF_FF_FF)
        #: IP -> MAC resolution table, populated by the testbed builder.
        self.arp: Dict[int, int] = {}
        self.ip_list: List[int] = []

        self.counters = NicCounters(profile.counter_names, profile.stuck_counters)
        self.ets = EtsScheduler(bandwidth, work_conserving=profile.ets_work_conserving)
        self.dcqcn_params = DcqcnParams()
        self.dcqcn_rp_enable = dcqcn_rp_enable
        self.dcqcn_np_enable = dcqcn_np_enable
        self.adaptive_retrans_default = adaptive_retrans
        self.cnp_limiter = CnpRateLimiter(profile, min_time_between_cnps_ns)

        self.qps: Dict[int, QueuePair] = {}
        self._control_queue: Deque[Packet] = deque()
        self._tx_busy_until = 0
        self._kick_event = None
        self._kick_time: Optional[int] = None

        # Noisy-neighbor stall state: (time, qp_num) of recent slow-path
        # entries; the stall triggers on *distinct QPs* in the window.
        self._read_loss_events: Deque[tuple] = deque()
        self._stall_until = 0
        self.pipeline_stalls = 0

        # MigReq slow-path state: QPNs holding a slow-path context.
        self._migreq_contexts: set = set()
        self.migreq_slowpath_packets = 0

        # RX pipeline ordering: per-packet latency jitter must never
        # reorder packets (the pipeline is a FIFO in hardware).
        self._rx_dispatch_floor = 0

        # Observation handles, shared by this NIC's QPs (no-op twins when
        # nothing is observed — see repro.observe).
        obs = observe.current()
        self._tel = obs if obs.metrics else None
        self._m_retrans = obs.counter("nic_retransmitted_packets", host=name)
        self._m_timer_arm = obs.counter("nic_timer_armed", host=name)
        self._m_timer_cancel = obs.counter("nic_timer_cancelled", host=name)
        self._m_timeout = obs.counter("nic_timeout_fired", host=name)
        self._m_cnp_sent = obs.counter("nic_cnp_sent", host=name)
        self._m_cnp_handled = obs.counter("nic_cnp_handled", host=name)
        self._m_rate_updates = obs.counter("nic_dcqcn_rate_updates", host=name)
        self._m_rate = obs.gauge("nic_dcqcn_rate_bps", host=name)
        self._cov_nic = obs.domain("rdma.nic")
        self._cov_gbn = obs.domain("rdma.gbn")
        self._rec = obs.recorder(f"nic:{name}")

    # ------------------------------------------------------------------
    # QP management
    # ------------------------------------------------------------------
    def create_qp(self, cq: CompletionQueue, src_ip: int,
                  mtu: Optional[int] = None) -> QueuePair:
        """Allocate a QP with runtime-random QPN and initial PSN (§3.2)."""
        qp_num = self.rng.qpn()
        while qp_num in self.qps:
            qp_num = self.rng.qpn()
        qp = QueuePair(self, qp_num, self.rng.psn(), cq, src_ip,
                       mtu=mtu or self.mtu)
        qp.adaptive_retrans = (self.adaptive_retrans_default
                               and self.profile.supports_adaptive_retrans)
        qp.dcqcn_enabled = self.dcqcn_rp_enable
        self.qps[qp_num] = qp
        self.ets.assign(qp, 0)
        return qp

    def configure_ets(self, configs: List[EtsQueueConfig]) -> None:
        """Install ETS traffic classes and remap existing QPs to queue 0."""
        existing = list(self.qps.values())
        self.ets.configure(configs)
        for qp in existing:
            self.ets.assign(qp, configs[0].index)

    def resolve_mac(self, ip: int) -> int:
        return self.arp.get(ip, 0xFF_FF_FF_FF_FF_FF)

    # ------------------------------------------------------------------
    # RX path
    # ------------------------------------------------------------------
    def handle_packet(self, port: Port, packet: Packet) -> None:
        now = self.sim.now
        if now < self._stall_until:
            # Noisy-neighbor stall: the pipeline discards everything.
            self.counters.incr("rx_discards_phy")
            self._cov_nic.hit("stall-discard", now)
            return
        if packet.bth is None:
            return
        counters = self.counters
        counters.incr("rx_packets")
        counters.incr("rx_bytes", packet.size)
        if not packet.icrc_ok:
            counters.incr("rx_icrc_errors")
            self._cov_nic.hit("icrc-discard", now)
            self._rec.note(now, "icrc-discard",
                           f"qpn={packet.bth.dest_qp} psn={packet.bth.psn}")
            return
        if self._divert_to_migreq_slowpath(packet):
            return
        profile = self.profile
        delay = self.rng.jitter_ns(profile.rx_pipeline_ns,
                                   profile.latency_jitter_frac)
        dispatch_at = now + delay
        if dispatch_at < self._rx_dispatch_floor:
            dispatch_at = self._rx_dispatch_floor
        self._rx_dispatch_floor = dispatch_at
        self.sim.schedule_at(dispatch_at, self._dispatch, packet)

    def _divert_to_migreq_slowpath(self, packet: Packet) -> bool:
        """CX5 MigReq=0 slow path (§6.2.3). Returns True if diverted."""
        if not self.profile.migreq_zero_slow_path:
            return False
        if packet.bth.migreq:
            return False
        opcode = packet.bth.opcode
        if not (opcode.is_send or opcode.is_write or opcode == Opcode.RDMA_READ_REQUEST):
            return False
        qp = self.qps.get(packet.bth.dest_qp)
        if qp is None:
            return False
        if qp.first_message_done:
            # The NIC has cached this connection; later messages take
            # the fast path — which is why the paper sees drops mostly
            # on the *first* message of each QP.
            return False
        # Connections whose first message completed release their
        # slow-path context (the fast-path cache took over).
        self._migreq_contexts = {
            qpn for qpn in self._migreq_contexts
            if qpn in self.qps and not self.qps[qpn].first_message_done
        }
        if packet.bth.dest_qp not in self._migreq_contexts:
            if len(self._migreq_contexts) >= self.profile.migreq_slow_path_contexts:
                # Context table full: the APM slow path cannot admit
                # another new connection and the port discards.
                self.counters.incr("rx_discards_phy")
                self._cov_nic.hit("migreq-context-full-discard", self.sim.now)
                self._rec.note(self.sim.now, "migreq-context-full-discard",
                               f"qpn={packet.bth.dest_qp}")
                return True
            self._migreq_contexts.add(packet.bth.dest_qp)
        self.migreq_slowpath_packets += 1
        self._cov_nic.hit("migreq-slow-path", self.sim.now)
        delay = self.rng.jitter_ns(
            self.profile.rx_pipeline_ns + self.profile.migreq_slow_path_service_ns,
            self.profile.latency_jitter_frac)
        dispatch_at = max(self.sim.now + delay, self._rx_dispatch_floor)
        self._rx_dispatch_floor = dispatch_at
        self.sim.schedule_at(dispatch_at, self._dispatch, packet)
        return True

    def _dispatch(self, packet: Packet) -> None:
        qp = self.qps.get(packet.bth.dest_qp)
        if qp is None:
            return
        if packet.bth.opcode == Opcode.CNP:
            qp.handle_cnp()
            return
        if packet.ip is not None and packet.ip.ecn == ECN_CE and packet.bth.opcode.is_data:
            self._notification_point(qp, packet)
        qp.receive(packet)

    def _notification_point(self, qp: QueuePair, packet: Packet) -> None:
        """DCQCN NP: maybe generate a CNP for an ECN-marked data packet."""
        self.counters.incr("ecn_marked_packets")
        self._cov_nic.hit("ecn-marked-rx", self.sim.now)
        if not self.dcqcn_np_enable:
            return
        if not self.cnp_limiter.allow(self.sim.now, qp.qp_num, qp.dest_ip):
            self._cov_nic.hit("cnp-suppressed", self.sim.now)
            return
        self.counters.incr("cnp_sent")
        self._m_cnp_sent.inc()
        self._cov_nic.hit("cnp-sent", self.sim.now)
        cnp = qp.build_cnp()
        self.sim.schedule(self.rng.jitter_ns(500, 0.2), self.send_control, cnp)

    def on_dcqcn_rate_change(self, rate_bps: int) -> None:
        """Telemetry sink for per-QP DCQCN reaction-point rate updates."""
        self._m_rate_updates.inc()
        self._m_rate.set(rate_bps)

    # ------------------------------------------------------------------
    # Noisy-neighbor stall (§6.2.2)
    # ------------------------------------------------------------------
    def note_read_loss_event(self, qp: QueuePair) -> None:
        """A QP entered the Read loss-recovery slow path."""
        threshold = self.profile.pipeline_stall_read_loss_threshold
        if threshold is None:
            return
        now = self.sim.now
        self._read_loss_events.append((now, qp.qp_num))
        while self._read_loss_events and \
                now - self._read_loss_events[0][0] > _READ_LOSS_WINDOW_NS:
            self._read_loss_events.popleft()
        distinct_qps = {qp_num for _, qp_num in self._read_loss_events}
        if len(distinct_qps) >= threshold:
            self._stall_until = max(self._stall_until,
                                    now + self.profile.pipeline_stall_duration_ns)
            self.pipeline_stalls += 1
            self._cov_nic.hit("noisy-neighbor-stall", now)
            self._rec.note(now, "noisy-neighbor-stall",
                           f"qps={len(distinct_qps)} "
                           f"until={self._stall_until}")
            self._read_loss_events.clear()

    # ------------------------------------------------------------------
    # TX path
    # ------------------------------------------------------------------
    def send_control(self, packet: Packet) -> None:
        """Queue an ACK/NAK/CNP; control traffic bypasses ETS and pacing."""
        self._control_queue.append(packet)
        self.notify_tx()

    def notify_tx(self) -> None:
        """A QP has work queued: make sure the TX loop will run."""
        self._request_kick(self.sim.now)

    def _request_kick(self, at: int) -> None:
        at = max(at, self.sim.now)
        if self._kick_event is not None and self._kick_time is not None \
                and self._kick_time <= at:
            return
        if self._kick_event is not None:
            self._kick_event.cancel()
        self._kick_time = at
        self._kick_event = self.sim.schedule_at(at, self._tx_loop)

    def _tx_loop(self) -> None:
        self._kick_event = None
        self._kick_time = None
        now = self.sim.now
        if self._tx_busy_until > now:
            self._request_kick(self._tx_busy_until)
            return
        if self._control_queue:
            self._transmit(self._control_queue.popleft(), None)
            return
        qp, next_time = self.ets.select(now)
        if qp is not None:
            self._transmit(qp.dequeue_tx(), qp)
        elif next_time is not None:
            self._request_kick(next_time)

    def _transmit(self, packet: Packet, qp: Optional[QueuePair]) -> None:
        now = self.sim.now
        size = packet.size
        port = self.port
        port.send(packet)
        counters = self.counters
        counters.incr("tx_packets")
        counters.incr("tx_bytes", size)
        busy_until = now + port.serialization_delay_ns(size)
        self._tx_busy_until = busy_until
        if qp is not None:
            self.ets.account(qp, now, size)
        self._request_kick(busy_until)
