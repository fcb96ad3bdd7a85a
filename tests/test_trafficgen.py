"""Unit/integration tests for the traffic generator (§3.2)."""

import pytest

from conftest import run_scenario
from repro import quick_config
from repro.core.config import EtsConfig, EtsQueueSpec, TrafficConfig, ConfigError
from repro.core.testbed import build_testbed
from repro.core.trafficgen import TrafficSession


def session_for(traffic: TrafficConfig, seed=3, nic="ideal"):
    testbed = build_testbed(quick_config(nic=nic, seed=seed))
    return testbed, TrafficSession(testbed, traffic)


class TestSetup:
    def test_qps_created_on_both_hosts(self):
        testbed, session = session_for(TrafficConfig(num_connections=3))
        assert len(session.requester_qps) == 3
        assert len(session.responder_qps) == 3
        assert len(session.metadata) == 3

    def test_metadata_matches_qps(self):
        testbed, session = session_for(TrafficConfig(num_connections=2))
        for meta, req, resp in zip(session.metadata, session.requester_qps,
                                   session.responder_qps):
            assert meta.requester_qpn == req.qp_num
            assert meta.responder_qpn == resp.qp_num
            assert meta.requester_ipsn == req.initial_psn
            assert meta.responder_ipsn == resp.initial_psn

    def test_connect_all_applies_loss_recovery_settings(self):
        traffic = TrafficConfig(min_retransmit_timeout=10,
                                max_retransmit_retry=3)
        testbed, session = session_for(traffic)
        session.connect_all()
        qp = session.requester_qps[0]
        assert qp.timeout_cfg == 10
        assert qp.retry_cnt == 3

    def test_single_gid_uses_first_ip(self):
        testbed, session = session_for(
            TrafficConfig(num_connections=4, multi_gid=False))
        ips = {meta.requester_ip for meta in session.metadata}
        assert len(ips) == 1

    def test_ets_mapping_validates_connection_index(self):
        traffic = TrafficConfig(
            num_connections=1,
            ets=EtsConfig(queues=(EtsQueueSpec(0, 100.0),),
                          qp_to_queue={5: 0}))
        testbed, session = session_for(traffic)
        session.connect_all()
        with pytest.raises(ConfigError):
            session.configure_ets()

    def test_ets_applies_to_responder_for_read(self):
        traffic = TrafficConfig(
            num_connections=1, rdma_verb="read",
            ets=EtsConfig(queues=(EtsQueueSpec(0, 100.0),),
                          qp_to_queue={1: 0}))
        testbed, session = session_for(traffic)
        session.connect_all()
        session.configure_ets()
        # The data sender for Read is the responder.
        assert session.responder_qps[0].ets_queue_index == 0


class TestMultiGid:
    def test_multi_gid_spreads_connections_across_ips(self):
        result = run_scenario(verb="write", num_connections=4, num_msgs=1,
                              message_size=1024)
        # The cached scenario host has one IP; build a multi-GID config
        # directly instead.
        from repro.core.config import (DumperPoolConfig, HostConfig,
                                       TestConfig)
        from repro.core.orchestrator import run_test

        config = TestConfig(
            requester=HostConfig(nic_type="ideal",
                                 ip_list=("10.0.0.1/24", "10.0.0.11/24")),
            responder=HostConfig(nic_type="ideal",
                                 ip_list=("10.0.0.2/24", "10.0.0.12/24")),
            traffic=TrafficConfig(num_connections=4, multi_gid=True,
                                  num_msgs_per_qp=1, message_size=1024),
            dumpers=DumperPoolConfig(num_servers=2),
            seed=6,
        )
        multi = run_test(config)
        req_ips = {meta.requester_ip for meta in multi.metadata}
        assert len(req_ips) == 2
        assert multi.ok
        assert result.ok  # both paths work


class TestWindowedMode:
    def test_tx_depth_limits_outstanding_messages(self):
        # With tx_depth=1 message k+1 is posted only after k completes:
        # posted_at timestamps are strictly ordered after completions.
        result = run_scenario(verb="write", num_msgs=4, message_size=4096,
                              barrier_sync=False, tx_depth=1)
        messages = sorted(result.traffic_log.per_qp[0].messages,
                          key=lambda m: m.msg_index)
        for prev, nxt in zip(messages, messages[1:]):
            assert nxt.posted_at >= prev.completed_at

    def test_deeper_window_overlaps_messages(self):
        result = run_scenario(verb="write", num_msgs=4, message_size=65536,
                              barrier_sync=False, tx_depth=4, seed=8)
        messages = sorted(result.traffic_log.per_qp[0].messages,
                          key=lambda m: m.msg_index)
        overlapped = any(nxt.posted_at < prev.completed_at
                         for prev, nxt in zip(messages, messages[1:]))
        assert overlapped

    def test_windowed_faster_than_barrier_for_multi_qp(self):
        barrier = run_scenario(verb="write", num_connections=4, num_msgs=4,
                               message_size=65536, barrier_sync=True, seed=8)
        windowed = run_scenario(verb="write", num_connections=4, num_msgs=4,
                                message_size=65536, barrier_sync=False,
                                tx_depth=4, seed=8)
        assert windowed.traffic_log.total_goodput_bps() >= \
            barrier.traffic_log.total_goodput_bps()


class TestBarrierMode:
    def test_rounds_are_synchronised(self):
        # In a round, every QP's message must be posted before any QP
        # posts the next round's message.
        result = run_scenario(verb="write", num_connections=3, num_msgs=3,
                              message_size=4096, barrier_sync=True)
        by_round = {}
        for message in result.traffic_log.all_messages:
            by_round.setdefault(message.msg_index, []).append(message)
        for index in range(2):
            last_completion = max(m.completed_at for m in by_round[index])
            next_posts = min(m.posted_at for m in by_round[index + 1])
            assert next_posts >= last_completion

    def test_per_qp_stats_complete(self):
        result = run_scenario(verb="write", num_connections=2, num_msgs=3,
                              message_size=4096)
        for qp in result.traffic_log.per_qp:
            assert len(qp.messages) == 3
            assert qp.bytes_completed == 3 * 4096
            assert qp.avg_mct_ns is not None
            assert qp.goodput_bps() is not None


class TestLogAggregates:
    def test_total_bytes(self):
        result = run_scenario(verb="write", num_connections=2, num_msgs=3,
                              message_size=4096)
        assert result.traffic_log.total_bytes_completed == 2 * 3 * 4096

    def test_empty_stats_are_none(self):
        from repro.core.trafficgen import QpStats

        stats = QpStats(qp_index=1)
        assert stats.avg_mct_ns is None
        assert stats.max_mct_ns is None
        assert stats.goodput_bps() is None


class TestWorkRequestIds:
    def test_identical_runs_encode_identically_in_one_process(self):
        # Work-request ids are numbered per traffic session, so repeating
        # a run inside one process reproduces its result document.
        from repro.core.orchestrator import run_test
        from repro.store.serialize import encode_result

        config = quick_config(nic="cx5", verb="write", num_msgs=3,
                              message_size=4096, num_connections=2, seed=7)
        first = encode_result(run_test(config))
        assert first == encode_result(run_test(config))
        ids = sorted(m.wr_id for m in run_test(config).traffic_log
                     .all_messages)
        assert ids == list(range(1, 7))
