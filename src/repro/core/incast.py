"""Incast topology: N senders → one receiver through the switch.

An extension of the paper's two-host testbed (§7 positions Lumina's
topology as deliberately simple). Incast is *the* scenario the paper's
motivation keeps returning to — "such concurrent packet drops are
common in incast congestion" (§6.2.2) — but two hosts can only emulate
it with multi-GID tricks that share a single link. This module builds a
genuine fan-in: every sender gets its own port, the receiver's egress
port on the switch is the bottleneck, and (with the organic ECN
threshold) DCQCN runs as a real multi-flow control loop.

The orchestration mirrors §3: metadata exchange, optional event
installation, mirroring to the dumper pool, trace reconstruction and
integrity checking all reuse the standard components.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..dumper.pool import DumperPool
from ..net.addressing import ip_to_int
from ..net.link import connect
from ..rdma.nic import RdmaNic
from ..rdma.profiles import get_profile
from ..rdma.qp import QueuePair
from ..rdma.verbs import CompletionQueue, Verb, WcStatus, WorkRequest
from ..sim.engine import Simulator
from ..sim.rng import SimRandom
from ..switch.controlplane import SwitchController
from ..switch.pipeline import TofinoSwitch
from .config import ConfigError, RoceParameters
from .trace import IntegrityReport, PacketTrace, check_integrity, reconstruct_trace

__all__ = ["IncastConfig", "IncastResult", "run_incast", "jain_fairness"]


@dataclass(frozen=True)
class IncastConfig:
    """An N-to-1 Write workload over a fan-in bottleneck."""

    num_senders: int = 4
    nic_type: str = "cx6"
    sender_bandwidth_gbps: Optional[float] = None
    receiver_bandwidth_gbps: Optional[float] = None
    message_size: int = 256 * 1024
    num_msgs_per_sender: int = 10
    mtu: int = 1024
    tx_depth: int = 2
    #: Switch egress queue capacity toward the receiver (bytes); None
    #: models deep buffers, a value enables genuine congestion drops.
    receiver_queue_bytes: Optional[int] = None
    ecn_threshold_kb: Optional[int] = None
    roce: RoceParameters = field(default_factory=RoceParameters)
    min_retransmit_timeout: int = 14
    max_retransmit_retry: int = 7
    dumper_servers: int = 3
    seed: int = 1
    max_duration_ns: int = 200_000_000_000
    link_delay_ns: int = 500

    def __post_init__(self) -> None:
        if self.num_senders < 1:
            raise ConfigError("incast needs at least one sender")
        if self.message_size < 1 or self.num_msgs_per_sender < 1:
            raise ConfigError("message geometry must be positive")
        if self.tx_depth < 1:
            raise ConfigError("tx depth must be >= 1")


@dataclass
class IncastResult:
    config: IncastConfig
    trace: PacketTrace
    integrity: IntegrityReport
    per_sender_goodput_bps: Dict[int, float]
    per_sender_retransmits: Dict[int, int]
    receiver_counters: Dict[int, int]
    switch_counters: Dict[str, object]
    duration_ns: int
    aborted_senders: int

    @property
    def aggregate_goodput_bps(self) -> float:
        return sum(self.per_sender_goodput_bps.values())

    @property
    def fairness(self) -> float:
        return jain_fairness(list(self.per_sender_goodput_bps.values()))


def jain_fairness(values: List[float]) -> float:
    """Jain's fairness index: 1.0 = perfectly fair, 1/n = one hog."""
    if not values:
        return 0.0
    total = sum(values)
    squares = sum(v * v for v in values)
    if squares == 0:
        return 0.0
    return (total * total) / (len(values) * squares)


def run_incast(config: IncastConfig) -> IncastResult:
    """Build the fan-in testbed, run the workload, collect results."""
    sim = Simulator()
    rng = SimRandom(config.seed)
    profile = get_profile(config.nic_type)
    roce = config.roce

    def make_nic(name: str, bandwidth: Optional[float]) -> RdmaNic:
        return RdmaNic(
            sim, name, profile, rng,
            bandwidth_gbps=bandwidth,
            mtu=config.mtu,
            min_time_between_cnps_ns=roce.min_time_between_cnps_us * 1_000,
            dcqcn_rp_enable=roce.dcqcn_rp_enable,
            dcqcn_np_enable=roce.dcqcn_np_enable,
            adaptive_retrans=roce.adaptive_retrans,
        )

    receiver = make_nic("receiver", config.receiver_bandwidth_gbps)
    receiver_ip = ip_to_int("10.0.1.1")
    receiver.ip_list = [receiver_ip]
    senders = [make_nic(f"sender{i}", config.sender_bandwidth_gbps)
               for i in range(config.num_senders)]
    sender_ips = [ip_to_int(f"10.0.0.{i + 1}") for i in range(config.num_senders)]

    switch = TofinoSwitch(
        sim, "tofino", rng,
        ecn_threshold_bytes=(config.ecn_threshold_kb * 1024
                             if config.ecn_threshold_kb else None),
    )
    controller = SwitchController(switch)

    # Receiver link: the fan-in bottleneck (optionally shallow-buffered).
    recv_port = switch.add_port(receiver.port.bandwidth_bps,
                                queue_bytes=config.receiver_queue_bytes,
                                name="tofino->receiver")
    connect(recv_port, receiver.port, config.link_delay_ns)
    switch.set_forwarding(receiver_ip, recv_port)

    arp = {receiver_ip: receiver.mac}
    for nic, ip in zip(senders, sender_ips):
        nic.ip_list = [ip]
        sw_port = switch.add_host_port(nic.port.bandwidth_bps,
                                       name=f"tofino->{nic.name}")
        connect(sw_port, nic.port, config.link_delay_ns)
        switch.set_forwarding(ip, sw_port)
        arp[ip] = nic.mac
    receiver.arp.update(arp)
    for nic in senders:
        nic.arp.update(arp)

    dumpers = DumperPool(sim)
    fastest = max([receiver.port.bandwidth_bps]
                  + [nic.port.bandwidth_bps for nic in senders])
    for _ in range(config.dumper_servers):
        dumpers.add_server(switch, bandwidth_bps=fastest,
                           propagation_delay_ns=config.link_delay_ns)

    # QP setup + metadata exchange (one connection per sender).
    sender_qps: List[QueuePair] = []
    sender_cqs: List[CompletionQueue] = []
    recv_cq = CompletionQueue(capacity=65536)
    for nic, ip in zip(senders, sender_ips):
        cq = CompletionQueue(capacity=65536)
        sqp = nic.create_qp(cq, ip, mtu=config.mtu)
        rqp = receiver.create_qp(recv_cq, receiver_ip, mtu=config.mtu)
        sqp.connect(receiver_ip, rqp.qp_num, rqp.initial_psn,
                    timeout_cfg=config.min_retransmit_timeout,
                    retry_cnt=config.max_retransmit_retry)
        rqp.connect(ip, sqp.qp_num, sqp.initial_psn,
                    timeout_cfg=config.min_retransmit_timeout,
                    retry_cnt=config.max_retransmit_retry)
        sender_qps.append(sqp)
        sender_cqs.append(cq)

    # Windowed senders: keep tx_depth messages in flight each.
    state = {
        i: {"remaining": config.num_msgs_per_sender, "inflight": 0,
            "first_post": None, "last_done": None, "bytes": 0}
        for i in range(config.num_senders)
    }

    def post(i: int) -> None:
        qp = sender_qps[i]
        slot = state[i]
        while (slot["remaining"] > 0 and slot["inflight"] < config.tx_depth
               and qp.state.value != "error"):
            slot["remaining"] -= 1
            slot["inflight"] += 1
            if slot["first_post"] is None:
                slot["first_post"] = sim.now
            qp.post_send(WorkRequest(verb=Verb.WRITE,
                                     length=config.message_size))

    def on_completion(i: int):
        def _cb(wc) -> None:
            slot = state[i]
            slot["inflight"] -= 1
            if wc.status is WcStatus.SUCCESS:
                slot["bytes"] += wc.length
                slot["last_done"] = sim.now
            post(i)
        return _cb

    for i, cq in enumerate(sender_cqs):
        cq.on_completion(on_completion(i))
        post(i)

    sim.run(until=config.max_duration_ns)
    sim.run_for(2_000_000)

    records = dumpers.terminate_all()
    trace = reconstruct_trace(records)
    switch_counters = controller.dump_counters()
    integrity = check_integrity(trace, switch_counters)

    goodput = {}
    retransmits = {}
    for i, nic in enumerate(senders):
        slot = state[i]
        if slot["first_post"] is not None and slot["last_done"] and \
                slot["last_done"] > slot["first_post"]:
            goodput[i] = slot["bytes"] * 8 / (slot["last_done"]
                                              - slot["first_post"]) * 1e9
        else:
            goodput[i] = 0.0
        retransmits[i] = nic.counters["retransmitted_packets"]

    return IncastResult(
        config=config,
        trace=trace,
        integrity=integrity,
        per_sender_goodput_bps=goodput,
        per_sender_retransmits=retransmits,
        receiver_counters=receiver.counters.snapshot(),
        switch_counters=switch_counters,
        duration_ns=sim.now,
        aborted_senders=sum(1 for qp in sender_qps
                            if qp.state.value == "error"),
    )
