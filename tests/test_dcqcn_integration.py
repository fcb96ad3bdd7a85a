"""End-to-end DCQCN tests: ECN marks actually slow the sender down."""

from conftest import run_scenario
from repro.core.config import (
    DumperPoolConfig,
    HostConfig,
    PeriodicEcnIntent,
    RoceParameters,
    TestConfig,
    TrafficConfig,
)
from repro.core.orchestrator import run_test


def marked_run(nic="cx5", rp_enable=True, np_enable=True, period=10,
               seed=33, msgs=6):
    traffic = TrafficConfig(
        num_connections=1, rdma_verb="write", num_msgs_per_qp=msgs,
        message_size=102400, mtu=1024, barrier_sync=False, tx_depth=2,
        periodic_events=(PeriodicEcnIntent(qpn=1, period=period),),
    )
    roce = RoceParameters(dcqcn_rp_enable=rp_enable,
                          dcqcn_np_enable=np_enable)
    config = TestConfig(
        requester=HostConfig(nic_type=nic, ip_list=("10.0.0.1/24",), roce=roce),
        responder=HostConfig(nic_type=nic, ip_list=("10.0.0.2/24",), roce=roce),
        traffic=traffic, seed=seed, dumpers=DumperPoolConfig(num_servers=3),
    )
    return run_test(config)


class TestRateReduction:
    def test_marks_reduce_goodput(self):
        clean = run_scenario(nic="cx5", verb="write", num_msgs=6,
                             message_size=102400, barrier_sync=False,
                             tx_depth=2, seed=33)
        marked = marked_run()
        assert marked.traffic_log.total_goodput_bps() < \
            0.5 * clean.traffic_log.total_goodput_bps()

    def test_rp_disabled_ignores_cnps(self):
        # Listing 1's dcqcn-rp-enable=False: CNPs still flow, the
        # sender just does not react.
        result = marked_run(rp_enable=False)
        assert result.requester_counters["cnp_handled"] > 0
        assert result.traffic_log.total_goodput_bps() > 50e9

    def test_np_disabled_generates_no_cnps(self):
        result = marked_run(np_enable=False)
        assert len(result.trace.cnps()) == 0
        assert result.responder_counters["cnp_sent"] == 0
        # Marks are still observed and counted.
        assert result.responder_counters["ecn_marked_packets"] > 0

    def test_cnp_flow_is_bidirectionally_accounted(self):
        result = marked_run()
        sent = result.responder_counters["cnp_sent"]
        handled = result.requester_counters["cnp_handled"]
        on_wire = len(result.trace.cnps())
        assert sent == on_wire
        assert handled == on_wire  # control packets are never dropped

    def test_inter_packet_gaps_grow_after_cut(self):
        result = marked_run(msgs=4)
        meta = result.metadata[0]
        conn = (meta.requester_ip, meta.responder_ip, meta.responder_qpn)
        data = result.trace.data_packets(conn)
        first_gaps = [b.timestamp_ns - a.timestamp_ns
                      for a, b in zip(data[:10], data[1:11])]
        late = data[len(data) // 2:]
        late_gaps = [b.timestamp_ns - a.timestamp_ns
                     for a, b in zip(late, late[1:])]
        # Paced traffic after the cuts is visibly slower than the
        # line-rate burst at the start.
        assert max(late_gaps) > 5 * min(g for g in first_gaps if g > 0)


class TestReadCongestion:
    def test_read_response_stream_is_rate_limited(self):
        # For Read, the NP is the requester and the RP is the responder.
        traffic = TrafficConfig(
            num_connections=1, rdma_verb="read", num_msgs_per_qp=4,
            message_size=102400, mtu=1024, barrier_sync=False, tx_depth=2,
            periodic_events=(PeriodicEcnIntent(qpn=1, period=10),),
        )
        config = TestConfig(
            requester=HostConfig(nic_type="cx5", ip_list=("10.0.0.1/24",)),
            responder=HostConfig(nic_type="cx5", ip_list=("10.0.0.2/24",)),
            traffic=traffic, seed=34, dumpers=DumperPoolConfig(num_servers=3),
        )
        result = run_test(config)
        # CNPs flow requester -> responder (toward the data sender).
        meta = result.metadata[0]
        for cnp in result.trace.cnps():
            assert cnp.ip.src_ip == meta.requester_ip
            assert cnp.ip.dst_ip == meta.responder_ip
        assert result.requester_counters["cnp_sent"] > 0
        assert result.responder_counters["cnp_handled"] > 0
