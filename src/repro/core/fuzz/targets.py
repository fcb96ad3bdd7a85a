"""Predefined fuzzing targets (§4: general vs specific targets).

Algorithm 1 takes a *target* that shapes the initial pool and the
scoring weights — "finding bugs in a network setting with 0.1% loss
rate" is general; "finding potential bugs where packet loss in one
connection affects other co-existing connections" is specific and has
a smaller search space. These presets package the targets used in the
paper's case studies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..config import (
    DataPacketEvent,
    DumperPoolConfig,
    HostConfig,
    TestConfig,
    TrafficConfig,
)
from .fuzzer import LuminaFuzzer
from .score import ScoreWeights

__all__ = ["FuzzTarget", "TARGETS", "make_fuzzer"]


@dataclass(frozen=True)
class FuzzTarget:
    """A named search objective: seed pool + scoring emphasis."""

    name: str
    description: str
    weights: ScoreWeights
    anomaly_threshold: float
    #: Coverage-guided fitness knobs (used only when an observation session
    #: is live): bonus per never-seen coverage point, bonus scale for
    #: rare points, and the minimized-corpus bound.
    novelty_first_bonus: float = 2.0
    novelty_rare_bonus: float = 1.0
    max_pool_size: int = 64

    def initial_pool(self) -> List[TrafficConfig]:
        raise NotImplementedError


class _GeneralTarget(FuzzTarget):
    """Anything anomalous under light loss (the paper's general example)."""

    def initial_pool(self) -> List[TrafficConfig]:
        pool = []
        for verb in ("write", "read", "send"):
            pool.append(TrafficConfig(
                num_connections=2, rdma_verb=verb, num_msgs_per_qp=3,
                message_size=10240, mtu=1024,
                data_pkt_events=(DataPacketEvent(1, 5, "drop"),),
            ))
        pool.append(TrafficConfig(
            num_connections=2, rdma_verb="write", num_msgs_per_qp=3,
            message_size=10240, mtu=1024,
            data_pkt_events=(DataPacketEvent(1, 3, "ecn"),),
        ))
        return pool


class _NoisyNeighborTarget(FuzzTarget):
    """Cross-connection interference (the paper's specific example)."""

    def initial_pool(self) -> List[TrafficConfig]:
        pool = []
        for conns in (16, 24):
            pool.append(TrafficConfig(
                num_connections=conns, rdma_verb="read", num_msgs_per_qp=3,
                message_size=20480, mtu=1024,
                data_pkt_events=tuple(
                    DataPacketEvent(q + 1, 5, "drop")
                    for q in range(conns // 3)),
            ))
        return pool


class _CounterBugTarget(FuzzTarget):
    """Counters that disagree with the wire (§6.2.4-shaped)."""

    def initial_pool(self) -> List[TrafficConfig]:
        return [
            TrafficConfig(num_connections=1, rdma_verb="write",
                          num_msgs_per_qp=2, message_size=10240, mtu=1024,
                          data_pkt_events=(DataPacketEvent(1, 3, "ecn"),)),
            TrafficConfig(num_connections=1, rdma_verb="read",
                          num_msgs_per_qp=2, message_size=10240, mtu=1024,
                          data_pkt_events=(DataPacketEvent(1, 2, "drop"),)),
        ]


TARGETS: Dict[str, FuzzTarget] = {
    "general": _GeneralTarget(
        name="general",
        description="any anomaly in a lightly lossy setting",
        weights=ScoreWeights(),
        anomaly_threshold=3.0,
    ),
    "noisy-neighbor": _NoisyNeighborTarget(
        name="noisy-neighbor",
        description="loss on some connections hurting innocent ones",
        weights=ScoreWeights(innocent_inflation=10.0,
                             unexplained_discards=4.0,
                             counter_inconsistency=0.5,
                             mct_inflation=0.5),
        anomaly_threshold=8.0,
    ),
    "counter-bugs": _CounterBugTarget(
        name="counter-bugs",
        description="NIC counters disagreeing with the dumped trace",
        weights=ScoreWeights(counter_inconsistency=8.0,
                             mct_inflation=0.2,
                             innocent_inflation=0.2),
        anomaly_threshold=6.0,
    ),
}


def make_fuzzer(target_name: str, nic: str, seed: int = 1,
                nic_responder: str = "") -> Tuple[LuminaFuzzer, FuzzTarget]:
    """Build a fuzzer configured for a named target on a NIC pair."""
    try:
        target = TARGETS[target_name]
    except KeyError:
        raise KeyError(f"unknown fuzz target {target_name!r}; "
                       f"known: {sorted(TARGETS)}") from None
    pool = target.initial_pool()
    base = TestConfig(
        requester=HostConfig(nic_type=nic, ip_list=("10.0.0.1/24",)),
        responder=HostConfig(nic_type=nic_responder or nic,
                             ip_list=("10.0.0.2/24",)),
        traffic=pool[0],
        dumpers=DumperPoolConfig(num_servers=3),
        seed=seed,
        max_duration_ns=60_000_000_000,
    )
    fuzzer = LuminaFuzzer(base, seed=seed, weights=target.weights,
                          anomaly_threshold=target.anomaly_threshold,
                          initial_pool=pool,
                          max_pool_size=target.max_pool_size,
                          novelty_first_bonus=target.novelty_first_bonus,
                          novelty_rare_bonus=target.novelty_rare_bonus)
    return fuzzer, target
