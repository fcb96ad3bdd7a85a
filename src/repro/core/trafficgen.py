"""Traffic generation (§3.2): requester/responder apps over the RNIC model.

The session object owns both hosts' QPs, performs the metadata exchange
(the TCP side-channel of the real tool is control-plane state here),
and runs the requester as a simulation process: posting work requests
with a bounded per-QP depth, optionally barrier-synchronising rounds
across QPs, and recording a completion log with per-message timings —
the "traffic generator log" of Table 1.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..rdma.ets import EtsQueueConfig
from ..rdma.qp import QueuePair
from ..rdma.verbs import (
    CompletionQueue,
    MemoryRegion,
    Verb,
    WcStatus,
    WorkCompletion,
    WorkRequest,
)
from ..sim.process import Process, Signal, spawn
from .config import ConfigError, TrafficConfig
from .intent import QpMetadata
from .testbed import Testbed

__all__ = ["MessageRecord", "QpStats", "TrafficGenLog", "TrafficSession"]

#: Base virtual address of the responder's registered region.
_RESPONDER_MR_BASE = 0x10_0000_0000


@dataclass
class MessageRecord:
    """One message's lifecycle, recorded by the requester."""

    qp_index: int           # 1-based connection index
    msg_index: int          # 0-based message number within the QP
    wr_id: int
    verb: Verb
    size: int
    posted_at: int = 0
    completed_at: Optional[int] = None
    status: Optional[WcStatus] = None

    @property
    def completion_time_ns(self) -> Optional[int]:
        if self.completed_at is None:
            return None
        return self.completed_at - self.posted_at

    @property
    def ok(self) -> bool:
        return self.status is WcStatus.SUCCESS


@dataclass
class QpStats:
    """Per-connection application metrics (goodput, MCT)."""

    qp_index: int
    messages: List[MessageRecord] = field(default_factory=list)

    @property
    def completed_messages(self) -> List[MessageRecord]:
        return [m for m in self.messages if m.ok]

    @property
    def bytes_completed(self) -> int:
        return sum(m.size for m in self.completed_messages)

    @property
    def avg_mct_ns(self) -> Optional[float]:
        times = [m.completion_time_ns for m in self.completed_messages
                 if m.completion_time_ns is not None]
        if not times:
            return None
        return sum(times) / len(times)

    @property
    def max_mct_ns(self) -> Optional[int]:
        times = [m.completion_time_ns for m in self.completed_messages
                 if m.completion_time_ns is not None]
        return max(times) if times else None

    def goodput_bps(self) -> Optional[float]:
        done = self.completed_messages
        if not done:
            return None
        start = min(m.posted_at for m in done)
        end = max(m.completed_at for m in done if m.completed_at is not None)
        if end <= start:
            return None
        return self.bytes_completed * 8 / (end - start) * 1e9


@dataclass
class TrafficGenLog:
    """The requester's application log (one entry of Table 1)."""

    per_qp: List[QpStats]
    started_at: int = 0
    finished_at: int = 0
    aborted_qps: int = 0

    @property
    def all_messages(self) -> List[MessageRecord]:
        return [m for qp in self.per_qp for m in qp.messages]

    @property
    def total_bytes_completed(self) -> int:
        return sum(qp.bytes_completed for qp in self.per_qp)

    def total_goodput_bps(self) -> float:
        duration = self.finished_at - self.started_at
        if duration <= 0:
            return 0.0
        return self.total_bytes_completed * 8 / duration * 1e9

    @property
    def avg_mct_ns(self) -> Optional[float]:
        times = [m.completion_time_ns for m in self.all_messages
                 if m.ok and m.completion_time_ns is not None]
        if not times:
            return None
        return sum(times) / len(times)


class TrafficSession:
    """Sets up QPs on both hosts and drives the requester's workload."""

    def __init__(self, testbed: Testbed, traffic: TrafficConfig):
        self.testbed = testbed
        self.sim = testbed.sim
        self.traffic = traffic
        self.requester_cq = CompletionQueue(capacity=65536)
        self.responder_cq = CompletionQueue(capacity=65536)
        self.requester_qps: List[QueuePair] = []
        self.responder_qps: List[QueuePair] = []
        self.metadata: List[QpMetadata] = []
        # Work-request ids land in the result document, so they are
        # numbered per session, not by the process-wide default
        # allocator (which would differ between runs in one process).
        self._wr_ids = itertools.count(1)
        # The rkey goes into RETH headers on the wire, so it must be
        # derived from the run seed (a global allocator would make
        # traces differ between runs inside one process).
        self.responder_mr = MemoryRegion(
            address=_RESPONDER_MR_BASE,
            length=max(traffic.message_size, 1) * 4,
            rkey=testbed.rng.child("responder-mr").randint(0x1000, 0xFFFFFFFF),
        )
        self.log = TrafficGenLog(per_qp=[])
        self._records_by_wr: Dict[int, MessageRecord] = {}
        self._round_signal: Optional[Signal] = None
        self._round_remaining = 0
        self._inflight: Dict[int, int] = {}
        self._completion_signal: Optional[Signal] = None
        self._create_qps()

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------
    def _pick_ip(self, ips: List[int], index: int) -> int:
        if self.traffic.multi_gid and len(ips) > 1:
            return ips[index % len(ips)]
        return ips[0]

    def _create_qps(self) -> None:
        requester, responder = self.testbed.requester, self.testbed.responder
        verbs = self.traffic.verbs
        for i in range(self.traffic.num_connections):
            req_ip = self._pick_ip(requester.ips, i)
            resp_ip = self._pick_ip(responder.ips, i)
            req_qp = requester.nic.create_qp(self.requester_cq, req_ip,
                                             mtu=self.traffic.mtu)
            resp_qp = responder.nic.create_qp(self.responder_cq, resp_ip,
                                              mtu=self.traffic.mtu)
            self.requester_qps.append(req_qp)
            self.responder_qps.append(resp_qp)
            self.metadata.append(QpMetadata(
                index=i + 1,
                requester_ip=req_ip,
                requester_qpn=req_qp.qp_num,
                requester_ipsn=req_qp.initial_psn,
                responder_ip=resp_ip,
                responder_qpn=resp_qp.qp_num,
                responder_ipsn=resp_qp.initial_psn,
                verb=verbs[0],
            ))
            self.log.per_qp.append(QpStats(qp_index=i + 1))

    def connect_all(self) -> None:
        """The §3.2 metadata exchange: move every QP pair to RTS."""
        t = self.traffic
        for req_qp, resp_qp, meta in zip(self.requester_qps, self.responder_qps,
                                         self.metadata):
            req_qp.connect(meta.responder_ip, meta.responder_qpn,
                           meta.responder_ipsn,
                           timeout_cfg=t.min_retransmit_timeout,
                           retry_cnt=t.max_retransmit_retry)
            resp_qp.connect(meta.requester_ip, meta.requester_qpn,
                            meta.requester_ipsn,
                            timeout_cfg=t.min_retransmit_timeout,
                            retry_cnt=t.max_retransmit_retry)

    def configure_ets(self) -> None:
        """Apply the ETS queue layout on the data-sending NIC (§6.2.1)."""
        ets = self.traffic.ets
        if ets is None or not ets.queues:
            return
        data_sender = (self.testbed.responder if self.traffic.verbs[0].data_from_responder
                       else self.testbed.requester)
        configs = [
            EtsQueueConfig(index=q.index,
                           weight=(q.weight_percent / 100.0) if not q.strict_priority else 0.0,
                           strict_priority=q.strict_priority)
            for q in ets.queues
        ]
        data_sender.nic.configure_ets(configs)
        sender_qps = (self.responder_qps if self.traffic.verbs[0].data_from_responder
                      else self.requester_qps)
        for rel_qpn, queue_index in ets.qp_to_queue.items():
            if not 1 <= rel_qpn <= len(sender_qps):
                raise ConfigError(f"ETS mapping references connection {rel_qpn}")
            data_sender.nic.ets.assign(sender_qps[rel_qpn - 1], queue_index)

    # ------------------------------------------------------------------
    # Requester workload
    # ------------------------------------------------------------------
    def start(self) -> Process:
        """Spawn the requester process; returns its handle."""
        self.requester_cq.on_completion(self._on_completion)
        self.log.started_at = self.sim.now
        generator = (self._run_barrier() if self.traffic.barrier_sync
                     else self._run_windowed())
        return spawn(self.sim, generator, name="traffic-requester")

    def _verb_for(self, msg_index: int) -> Verb:
        verbs = self.traffic.verbs
        return verbs[msg_index % len(verbs)]

    def _post_message(self, qp_index: int, msg_index: int) -> None:
        qp = self.requester_qps[qp_index]
        verb = self._verb_for(msg_index)
        wr = WorkRequest(
            verb=verb,
            length=self.traffic.message_size,
            wr_id=next(self._wr_ids),
            remote_address=self.responder_mr.address,
            remote_rkey=self.responder_mr.rkey,
        )
        record = MessageRecord(
            qp_index=qp_index + 1, msg_index=msg_index, wr_id=wr.wr_id,
            verb=verb, size=wr.length, posted_at=self.sim.now,
        )
        self._records_by_wr[wr.wr_id] = record
        self.log.per_qp[qp_index].messages.append(record)
        qp.post_send(wr)

    def _on_completion(self, wc: WorkCompletion) -> None:
        record = self._records_by_wr.pop(wc.wr_id, None)
        if record is None:
            return
        record.completed_at = wc.completed_at
        record.status = wc.status
        if self._round_signal is not None:
            self._round_remaining -= 1
            if self._round_remaining == 0:
                signal, self._round_signal = self._round_signal, None
                signal.fire()
        qp_slot = record.qp_index - 1
        if qp_slot in self._inflight:
            self._inflight[qp_slot] -= 1
            self._maybe_refill(qp_slot)

    # --- barrier-synchronised mode (Listing 2: barrier-sync) ------------
    def _run_barrier(self):
        t = self.traffic
        for msg_index in range(t.num_msgs_per_qp):
            live = [i for i, qp in enumerate(self.requester_qps)
                    if qp.state.value != "error"]
            if not live:
                break
            self._round_remaining = len(live)
            self._round_signal = Signal(self.sim)
            signal = self._round_signal
            for qp_index in live:
                self._post_message(qp_index, msg_index)
            yield signal
        self._finish()

    # --- free-running windowed mode --------------------------------------
    def _run_windowed(self):
        t = self.traffic
        self._remaining = {i: t.num_msgs_per_qp for i in range(len(self.requester_qps))}
        self._next_msg = {i: 0 for i in range(len(self.requester_qps))}
        self._inflight = {i: 0 for i in range(len(self.requester_qps))}
        self._completion_signal = Signal(self.sim)
        for qp_index in range(len(self.requester_qps)):
            self._maybe_refill(qp_index)
        yield self._completion_signal
        self._finish()

    def _maybe_refill(self, qp_index: int) -> None:
        if self._completion_signal is None:
            return
        qp = self.requester_qps[qp_index]
        while (self._remaining.get(qp_index, 0) > 0
               and self._inflight[qp_index] < self.traffic.tx_depth
               and qp.state.value != "error"):
            self._remaining[qp_index] -= 1
            self._inflight[qp_index] += 1
            self._post_message(qp_index, self._next_msg[qp_index])
            self._next_msg[qp_index] += 1
        if all(r == 0 for r in self._remaining.values()) and \
                all(c == 0 for c in self._inflight.values()):
            self._completion_signal.fire()
        elif all(qp.state.value == "error" for qp in self.requester_qps):
            self._completion_signal.fire()

    def _finish(self) -> None:
        self.log.finished_at = self.sim.now
        self.log.aborted_qps = sum(
            1 for qp in self.requester_qps if qp.state.value == "error"
        )
