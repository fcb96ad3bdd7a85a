"""§3.4 — per-packet load balancing of the traffic dumper pool.

Paper: the initial two-host dumping design occasionally discarded
mirrored packets at line rate (flow-affine RSS concentrates a flow on
one core); the per-packet WRR + UDP-port-randomisation design raised
the complete-capture success ratio from ~30% to nearly 100%.
"""

from conftest import emit

from repro.core.config import (
    DumperPoolConfig,
    HostConfig,
    SwitchConfig,
    TestConfig,
    TrafficConfig,
)
from repro.core.orchestrator import run_test

SEEDS = tuple(range(70, 82))


def run_capture(randomize_port: bool, num_servers: int, seed: int,
                ring_slots: int = 64, cores: int = 8,
                num_connections: int = 2):
    config = TestConfig(
        requester=HostConfig(nic_type="cx5", ip_list=("10.0.0.1/24",)),
        responder=HostConfig(nic_type="cx5", ip_list=("10.0.0.2/24",)),
        traffic=TrafficConfig(num_connections=num_connections,
                              rdma_verb="write",
                              num_msgs_per_qp=8, message_size=102400,
                              mtu=1024, barrier_sync=False, tx_depth=4),
        dumpers=DumperPoolConfig(num_servers=num_servers,
                                 cores_per_server=cores,
                                 ring_slots=ring_slots),
        switch=SwitchConfig(randomize_mirror_udp_port=randomize_port),
        seed=seed,
    )
    return run_test(config)


def success_ratio(randomize_port: bool, num_servers: int) -> float:
    """Complete-capture ratio over varied workloads.

    The flow count varies per run (1–3 connections), as it did in the
    paper's day-to-day usage: RSS without port randomisation depends on
    the number of flows for its core spread, so few-flow workloads are
    the ones the naive design loses.
    """
    ok = sum(run_capture(randomize_port, num_servers, seed,
                         num_connections=1 + seed % 3).integrity.ok
             for seed in SEEDS)
    return ok / len(SEEDS)


def test_sec34_success_ratio(benchmark):
    naive = success_ratio(randomize_port=False, num_servers=1)
    balanced = success_ratio(randomize_port=True, num_servers=1)
    pooled = success_ratio(randomize_port=True, num_servers=3)

    lines = [
        f"naive (per-direction host, flow-affine RSS): "
        f"{naive * 100:.0f}% complete captures",
        f"+ UDP port randomisation:                    "
        f"{balanced * 100:.0f}%",
        f"+ pooled dumpers (3 servers, WRR):           "
        f"{pooled * 100:.0f}%",
        "",
        "paper: success ratio improved from ~30% to nearly 100%",
    ]
    emit("sec34_dumper_lb", lines)

    assert naive <= 0.75
    assert balanced == 1.0
    assert pooled == 1.0

    benchmark.pedantic(run_capture, args=(True, 1, 70), rounds=2,
                       iterations=1)


def test_sec34_weak_pooled_servers(benchmark):
    """Flexibility claim: several weak hosts replace one fast host."""
    result = run_capture(True, num_servers=4, seed=70, cores=3)
    per_server = {}
    for pkt in result.trace:
        per_server[pkt.server] = per_server.get(pkt.server, 0) + 1
    lines = [f"4 weak servers (3 cores each): integrity "
             f"{'PASS' if result.integrity.ok else 'FAIL'}",
             f"records per server: {dict(sorted(per_server.items()))}"]
    emit("sec34_weak_pool", lines)
    assert result.integrity.ok
    assert len(per_server) == 4
    benchmark.pedantic(run_capture, args=(True, 4, 70), rounds=1,
                       iterations=1)
