"""Integration tests reproducing every §6.2/§6.3 bug and hidden behaviour.

Each test is a miniature version of the paper experiment that exposed
the bug, asserting both that the affected NIC shows it and that the
unaffected NICs do not (Table 2's NIC column).
"""

import pytest

from conftest import run_scenario
from repro.core.config import (
    DataPacketEvent,
    DumperPoolConfig,
    EtsConfig,
    EtsQueueSpec,
    HostConfig,
    PeriodicEcnIntent,
    RoceParameters,
    TestConfig,
    TrafficConfig,
)
from repro.core.analyzers import per_qp_goodput_gbps, split_mct
from repro.core.orchestrator import Orchestrator, run_test
from repro.switch.events import RewriteRule


def _ets_result(nic, multi_queue, mark_qp0, seed=5, messages=8):
    """§6.2.1 topology: two QPs, 8x256KB writes, DCQCN on."""
    if multi_queue:
        ets = EtsConfig(queues=(EtsQueueSpec(0, 50.0), EtsQueueSpec(1, 50.0)),
                        qp_to_queue={1: 0, 2: 1})
    else:
        ets = EtsConfig(queues=(EtsQueueSpec(0, 100.0),),
                        qp_to_queue={1: 0, 2: 0})
    traffic = TrafficConfig(
        num_connections=2, rdma_verb="write", num_msgs_per_qp=messages,
        message_size=256 * 1024, mtu=1024, barrier_sync=False, tx_depth=2,
        periodic_events=(PeriodicEcnIntent(qpn=1, period=50),) if mark_qp0 else (),
        ets=ets,
    )
    config = TestConfig(
        requester=HostConfig(nic_type=nic, ip_list=("10.0.0.1/24",)),
        responder=HostConfig(nic_type=nic, ip_list=("10.0.0.2/24",)),
        traffic=traffic, seed=seed, dumpers=DumperPoolConfig(num_servers=3),
    )
    return run_test(config)


class TestEtsWorkConservation:
    """§6.2.1: non-work-conserving ETS on CX6 Dx (Fig. 10)."""

    def test_vanilla_multi_queue_shares_equally(self):
        result = _ets_result("cx6", multi_queue=True, mark_qp0=False)
        goodput = per_qp_goodput_gbps(result.traffic_log)
        assert goodput[1] == pytest.approx(goodput[2], rel=0.15)
        assert goodput[1] > 30  # roughly half of 100 Gbps

    def test_cx6_queue_cannot_take_spare_bandwidth(self):
        # The bug: QP1 stays near its 50% guarantee although QP0 is
        # throttled to almost nothing by DCQCN.
        result = _ets_result("cx6", multi_queue=True, mark_qp0=True)
        goodput = per_qp_goodput_gbps(result.traffic_log)
        assert goodput[1] < 10
        assert goodput[2] < 60  # stuck at the guarantee

    def test_cx5_queue_takes_spare_bandwidth(self):
        # Spec-compliant NIC in the identical scenario.
        result = _ets_result("cx5", multi_queue=True, mark_qp0=True)
        goodput = per_qp_goodput_gbps(result.traffic_log)
        assert goodput[1] < 10
        assert goodput[2] > 70  # work conservation

    def test_cx6_single_queue_not_affected(self):
        # Third Fig. 10 setting: same ETS queue -> QP1 expands fine.
        result = _ets_result("cx6", multi_queue=False, mark_qp0=True)
        goodput = per_qp_goodput_gbps(result.traffic_log)
        assert goodput[2] > 70

    def test_ablation_cx6_with_fixed_scheduler(self):
        # DESIGN.md ablation: CX6 profile with work conservation forced
        # on behaves like CX5 — the profile flag is the whole bug.
        from repro.rdma.profiles import CX6_DX

        assert not CX6_DX.ets_work_conserving
        fixed = CX6_DX.with_overrides(ets_work_conserving=True)
        assert fixed.ets_work_conserving


def _noisy_result(injected_flows, nic="cx4", total=36, seed=11):
    """§6.2.2 topology: 36 Read flows, drop 5th packet on the first i."""
    events = tuple(DataPacketEvent(qpn=q + 1, psn=5, type="drop")
                   for q in range(injected_flows))
    traffic = TrafficConfig(num_connections=total, rdma_verb="read",
                            num_msgs_per_qp=4, message_size=20480, mtu=1024,
                            barrier_sync=True, data_pkt_events=events)
    config = TestConfig(
        requester=HostConfig(nic_type=nic, ip_list=("10.0.0.1/24",)),
        responder=HostConfig(nic_type=nic, ip_list=("10.0.0.2/24",)),
        traffic=traffic, seed=seed, dumpers=DumperPoolConfig(num_servers=3),
        max_duration_ns=60_000_000_000,
    )
    return run_test(config)


class TestNoisyNeighbor:
    """§6.2.2: CX4 Lx pipeline stall under concurrent Read losses (Fig. 11)."""

    def test_innocent_flows_fine_below_threshold(self):
        result = _noisy_result(8)
        parts = split_mct(result.traffic_log, list(range(1, 9)))
        assert parts["others"].max_ns < 1_000_000  # < 1 ms
        assert result.requester_counters["rx_discards_phy"] == 0

    def test_innocent_flows_collapse_at_threshold(self):
        result = _noisy_result(12)
        parts = split_mct(result.traffic_log, list(range(1, 13)))
        # Innocent flows hit a full retransmission timeout (~67 ms).
        assert parts["others"].max_ns > 10_000_000
        assert result.requester_counters["rx_discards_phy"] > 100

    def test_discards_counted_at_the_requester(self):
        result = _noisy_result(16)
        assert result.requester_counters["rx_discards_phy"] > 100
        assert result.responder_counters["rx_discards_phy"] == 0

    def test_cx5_has_no_noisy_neighbor(self):
        result = _noisy_result(16, nic="cx5")
        parts = split_mct(result.traffic_log, list(range(1, 17)))
        assert parts["others"].max_ns < 1_000_000
        assert result.requester_counters["rx_discards_phy"] == 0


def _interop_result(req_nic, resp_nic, qps, fix=False, seed=21):
    """§6.2.3 topology: Send traffic, many QPs starting at once."""
    traffic = TrafficConfig(num_connections=qps, rdma_verb="send",
                            num_msgs_per_qp=3, message_size=102400, mtu=1024,
                            barrier_sync=True)
    config = TestConfig(
        requester=HostConfig(nic_type=req_nic, ip_list=("10.0.0.1/24",)),
        responder=HostConfig(nic_type=resp_nic, ip_list=("10.0.0.2/24",)),
        traffic=traffic, seed=seed, dumpers=DumperPoolConfig(num_servers=3),
        max_duration_ns=120_000_000_000,
    )
    rules = [RewriteRule(field_name="migreq", value=1)] if fix else None
    return Orchestrator(config, rewrite_rules=rules).run()


class TestInteroperability:
    """§6.2.3: E810 -> CX5 MigReq slow-path discards."""

    def test_e810_sends_migreq_zero(self):
        result = _interop_result("e810", "cx5", qps=2)
        data = result.trace.data_packets()
        assert data and all(not p.bth.migreq for p in data)

    def test_cx5_sends_migreq_one(self):
        result = _interop_result("cx5", "cx5", qps=2)
        data = result.trace.data_packets()
        assert data and all(p.bth.migreq for p in data)

    def test_few_qps_are_fine(self):
        result = _interop_result("e810", "cx5", qps=8)
        assert result.responder_counters["rx_discards_phy"] == 0
        assert all(m.ok for m in result.traffic_log.all_messages)

    def test_sixteen_qps_trigger_discards(self):
        result = _interop_result("e810", "cx5", qps=16)
        assert result.responder_counters["rx_discards_phy"] > 0
        slow = [m for m in result.traffic_log.all_messages
                if m.ok and m.completion_time_ns > 1_000_000]
        # Timeouts push affected messages' MCT out by orders of magnitude.
        assert slow
        assert all(m.msg_index == 0 for m in slow), \
            "drops concentrate on first messages"

    def test_cx5_to_cx5_control_case_clean(self):
        result = _interop_result("cx5", "cx5", qps=16)
        assert result.responder_counters["rx_discards_phy"] == 0

    def test_migreq_rewrite_action_fixes_it(self):
        # §6.2.3: the Lumina extension rewriting MigReq=1 confirmed the
        # root cause — with it, CX5 stops discarding.
        result = _interop_result("e810", "cx5", qps=16, fix=True)
        assert result.responder_counters["rx_discards_phy"] == 0
        assert all(m.ok for m in result.traffic_log.all_messages)


class TestAdaptiveRetransmission:
    """§6.3: adaptive retransmission breaks the IB timeout contract."""

    def _gaps_ms(self, nic, adaptive, seed=41):
        events = tuple(DataPacketEvent(qpn=1, psn=10, type="drop", iter=i)
                       for i in range(1, 8))
        result = run_scenario(nic=nic, verb="write", num_msgs=1,
                              message_size=10240, events=events,
                              timeout_cfg=14, retry_cnt=7, adaptive=adaptive,
                              seed=seed, max_duration_ms=5_000)
        meta = result.metadata[0]
        conn = (meta.requester_ip, meta.responder_ip, meta.responder_qpn)
        last_psn = (meta.requester_ipsn + 9) & 0xFFFFFF
        appearances = [p for p in result.trace.data_packets(conn)
                       if p.psn == last_psn]
        return [(b.timestamp_ns - a.timestamp_ns) / 1e6
                for a, b in zip(appearances, appearances[1:])]

    def test_spec_mode_uses_constant_timeout(self):
        gaps = self._gaps_ms("cx6", adaptive=False)
        assert len(gaps) == 7
        assert all(abs(g - 67.1) < 1.0 for g in gaps)

    def test_adaptive_mode_follows_measured_ladder(self):
        gaps = self._gaps_ms("cx6", adaptive=True)
        expected = [5.6, 4.2, 8.4, 16.8, 25.2, 67.1, 134.2]
        assert len(gaps) == 7
        for got, want in zip(gaps, expected):
            assert abs(got - want) < max(1.0, want * 0.05)

    def test_first_adaptive_timeouts_violate_minimum(self):
        # The paper's finding: actual timeouts are *smaller* than the
        # configured minimum (67.1 ms) for early retries.
        gaps = self._gaps_ms("cx6", adaptive=True)
        assert gaps[0] < 67.1
        assert gaps[1] < 67.1

    def test_e810_ignores_adaptive_flag(self):
        # E810 has no adaptive retransmission: flag must be a no-op.
        gaps = self._gaps_ms("e810", adaptive=True)
        assert all(abs(g - 67.1) < 1.0 for g in gaps)

    def test_adaptive_retries_beyond_configured_count(self):
        # retry_cnt=7 but adaptive mode retries 8-13 times (§6.3).
        events = tuple(DataPacketEvent(qpn=1, psn=10, type="drop", iter=i)
                       for i in range(1, 15))
        spec = run_scenario(nic="cx6", verb="write", num_msgs=1,
                            message_size=10240, events=events,
                            timeout_cfg=10, retry_cnt=7, adaptive=False,
                            seed=42, max_duration_ms=5_000)
        adaptive = run_scenario(nic="cx6", verb="write", num_msgs=1,
                                message_size=10240, events=events,
                                timeout_cfg=10, retry_cnt=7, adaptive=True,
                                seed=42, max_duration_ms=5_000)
        spec_attempts = spec.requester_counters["local_ack_timeout_err"]
        adaptive_attempts = adaptive.requester_counters["local_ack_timeout_err"]
        assert spec_attempts == 8          # 7 retries + the failing 8th
        assert 9 <= adaptive_attempts <= 14
