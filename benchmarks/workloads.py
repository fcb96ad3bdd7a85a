"""Workload generators shared by the benchmark harness.

Each function builds the exact traffic/injection configuration of one
paper experiment; the bench files sweep parameters and render tables.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.core.analyzers import AnalyzerContext, get_analyzer
from repro.core.config import (
    DataPacketEvent,
    DumperPoolConfig,
    EtsConfig,
    EtsQueueSpec,
    HostConfig,
    PeriodicEcnIntent,
    RoceParameters,
    SwitchConfig,
    TestConfig,
    TrafficConfig,
)

__all__ = [
    "analyzer_data",
    "two_host_config",
    "retrans_sweep_config",
    "ets_config",
    "noisy_neighbor_config",
    "interop_config",
    "cnp_interval_config",
    "cnp_scope_config",
    "adaptive_retrans_config",
]


def analyzer_data(name: str, result):
    """The rich report of registered analyzer ``name`` on a result."""
    return get_analyzer(name).analyze(
        result.trace, AnalyzerContext.for_result(result)).data


def two_host_config(nic: str, traffic: TrafficConfig, seed: int,
                    nic_responder: str = "", dumpers: int = 3,
                    roce: Optional[RoceParameters] = None,
                    switch: Optional[SwitchConfig] = None,
                    req_ips: Sequence[str] = ("10.0.0.1/24",),
                    resp_ips: Sequence[str] = ("10.0.0.2/24",),
                    max_duration_ns: int = 60_000_000_000) -> TestConfig:
    roce = roce or RoceParameters()
    return TestConfig(
        requester=HostConfig(nic_type=nic, ip_list=tuple(req_ips), roce=roce),
        responder=HostConfig(nic_type=nic_responder or nic,
                             ip_list=tuple(resp_ips), roce=roce),
        traffic=traffic,
        dumpers=DumperPoolConfig(num_servers=dumpers),
        switch=switch or SwitchConfig(),
        seed=seed,
        max_duration_ns=max_duration_ns,
    )


def retrans_sweep_config(nic: str, verb: str, drop_psn: int,
                         seed: int) -> TestConfig:
    """Fig. 8/9 point: 100 KB messages, drop one mid-message packet."""
    traffic = TrafficConfig(
        num_connections=1, rdma_verb=verb, num_msgs_per_qp=3,
        message_size=102400, mtu=1024, barrier_sync=True,
        min_retransmit_timeout=17,  # large RTO so fast retrans dominates
        data_pkt_events=(DataPacketEvent(qpn=1, psn=drop_psn, type="drop"),),
    )
    return two_host_config(nic, traffic, seed)


def ets_config(nic: str, setting: str, seed: int,
               messages: int = 12) -> TestConfig:
    """Fig. 10 settings: multi_vanilla / multi_ecn / single_ecn."""
    if setting in ("multi_vanilla", "multi_ecn"):
        ets = EtsConfig(queues=(EtsQueueSpec(0, 50.0), EtsQueueSpec(1, 50.0)),
                        qp_to_queue={1: 0, 2: 1})
    elif setting == "single_ecn":
        ets = EtsConfig(queues=(EtsQueueSpec(0, 100.0),),
                        qp_to_queue={1: 0, 2: 0})
    else:
        raise ValueError(f"unknown ETS setting {setting!r}")
    mark = setting in ("multi_ecn", "single_ecn")
    traffic = TrafficConfig(
        num_connections=2, rdma_verb="write", num_msgs_per_qp=messages,
        message_size=1024 * 1024, mtu=1024, barrier_sync=False, tx_depth=2,
        periodic_events=(PeriodicEcnIntent(qpn=1, period=50),) if mark else (),
        ets=ets,
    )
    return two_host_config(nic, traffic, seed)


def noisy_neighbor_config(injected_flows: int, nic: str, seed: int,
                          total_flows: int = 36) -> TestConfig:
    """Fig. 11: Read flows with simultaneous injected drops."""
    events = tuple(DataPacketEvent(qpn=q + 1, psn=5, type="drop")
                   for q in range(injected_flows))
    traffic = TrafficConfig(
        num_connections=total_flows, rdma_verb="read", num_msgs_per_qp=10,
        message_size=20480, mtu=1024, barrier_sync=True,
        data_pkt_events=events,
    )
    return two_host_config(nic, traffic, seed)


def interop_config(req_nic: str, resp_nic: str, qps: int,
                   seed: int) -> TestConfig:
    """§6.2.3: Send traffic over many simultaneously-started QPs."""
    traffic = TrafficConfig(
        num_connections=qps, rdma_verb="send", num_msgs_per_qp=5,
        message_size=102400, mtu=1024, barrier_sync=True,
    )
    return two_host_config(req_nic, traffic, seed, nic_responder=resp_nic,
                           max_duration_ns=120_000_000_000)


def cnp_interval_config(nic: str, configured_us: int, seed: int,
                        messages: int = 20) -> TestConfig:
    """§6.3: mark every packet ECN, DCQCN RP disabled (Listing 1)."""
    total = messages * 100
    traffic = TrafficConfig(
        num_connections=1, rdma_verb="write", num_msgs_per_qp=messages,
        message_size=102400, mtu=1024, barrier_sync=False, tx_depth=4,
        periodic_events=(PeriodicEcnIntent(qpn=1, period=1),),
    )
    del total
    roce = RoceParameters(dcqcn_rp_enable=False,
                          min_time_between_cnps_us=configured_us)
    return two_host_config(nic, traffic, seed, roce=roce)


def cnp_scope_config(nic: str, seed: int) -> TestConfig:
    """§6.3: 4 QPs across 2 GIDs per host, every packet marked."""
    traffic = TrafficConfig(
        num_connections=4, rdma_verb="write", num_msgs_per_qp=3,
        message_size=102400, mtu=1024, multi_gid=True, barrier_sync=False,
        periodic_events=tuple(PeriodicEcnIntent(qpn=q, period=1)
                           for q in range(1, 5)),
    )
    roce = RoceParameters(dcqcn_rp_enable=False)
    return two_host_config(nic, traffic, seed, roce=roce,
                           req_ips=("10.0.0.1/24", "10.0.0.11/24"),
                           resp_ips=("10.0.0.2/24", "10.0.0.12/24"))


def adaptive_retrans_config(nic: str, adaptive: bool, drops: int,
                            seed: int, timeout_cfg: int = 14) -> TestConfig:
    """§6.3: drop the last packet of the message ``drops`` times."""
    events = tuple(DataPacketEvent(qpn=1, psn=10, type="drop", iter=i)
                   for i in range(1, drops + 1))
    traffic = TrafficConfig(
        num_connections=1, rdma_verb="write", num_msgs_per_qp=1,
        message_size=10240, mtu=1024, min_retransmit_timeout=timeout_cfg,
        max_retransmit_retry=7, data_pkt_events=events,
    )
    roce = RoceParameters(adaptive_retrans=adaptive)
    return two_host_config(nic, traffic, seed, roce=roce, dumpers=2,
                           max_duration_ns=10_000_000_000)
