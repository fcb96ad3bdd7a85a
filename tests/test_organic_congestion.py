"""Tests for organic (queue-based) ECN marking at the switch.

An extension over the paper's injected-only marks: with a RED-style
threshold on the egress queue, a bandwidth mismatch (100 G sender,
40 G receiver) produces genuine congestion marks and a closed DCQCN
loop — marks → CNPs → rate cut → queue drains → marks stop.
"""

from repro.core.config import (
    DumperPoolConfig,
    HostConfig,
    SwitchConfig,
    TestConfig,
    TrafficConfig,
)
from repro.core.orchestrator import run_test


def mismatch_run(ecn_threshold_kb, msgs=20, seed=44, rp_enable=True):
    from repro.core.config import RoceParameters

    traffic = TrafficConfig(num_connections=1, rdma_verb="write",
                            num_msgs_per_qp=msgs, message_size=256 * 1024,
                            mtu=1024, barrier_sync=False, tx_depth=4)
    roce = RoceParameters(dcqcn_rp_enable=rp_enable)
    return run_test(TestConfig(
        requester=HostConfig(nic_type="cx6", ip_list=("10.0.0.1/24",),
                             roce=roce),
        responder=HostConfig(nic_type="cx6", ip_list=("10.0.0.2/24",),
                             bandwidth_gbps=40, roce=roce),
        traffic=traffic, seed=seed,
        dumpers=DumperPoolConfig(num_servers=3),
        switch=SwitchConfig(ecn_threshold_kb=ecn_threshold_kb),
    ))


class TestOrganicMarking:
    def test_no_threshold_no_marks(self):
        result = mismatch_run(None)
        assert result.switch_counters["ecn_marked_by_queue"] == 0
        assert len(result.trace.cnps()) == 0
        # The unbounded egress queue absorbs the mismatch: goodput is
        # the 40 Gbps bottleneck.
        assert result.traffic_log.total_goodput_bps() > 30e9

    def test_queue_buildup_produces_marks_and_cnps(self):
        result = mismatch_run(100)
        marks = result.switch_counters["ecn_marked_by_queue"]
        assert marks > 0
        assert len(result.trace.cnps()) > 0
        assert result.responder_counters["ecn_marked_packets"] == marks

    def test_dcqcn_loop_closes(self):
        # Marks stop once the sender has been throttled below the
        # bottleneck: only the initial overshoot gets marked.
        result = mismatch_run(100)
        total_data = len(result.trace.data_packets())
        marks = result.switch_counters["ecn_marked_by_queue"]
        assert marks < total_data / 3
        assert all(m.ok for m in result.traffic_log.all_messages)
        assert result.integrity.ok

    def test_rate_actually_reduced(self):
        marked = mismatch_run(100)
        unmarked = mismatch_run(None)
        assert marked.traffic_log.total_goodput_bps() < \
            0.7 * unmarked.traffic_log.total_goodput_bps()

    def test_rp_disabled_keeps_marking_forever(self):
        # Without the reaction point the queue never drains below the
        # threshold, so marks keep accumulating.
        reacting = mismatch_run(100)
        ignoring = mismatch_run(100, rp_enable=False)
        assert ignoring.switch_counters["ecn_marked_by_queue"] > \
            2 * reacting.switch_counters["ecn_marked_by_queue"]

    def test_symmetric_links_never_mark(self):
        traffic = TrafficConfig(num_connections=1, rdma_verb="write",
                                num_msgs_per_qp=10, message_size=256 * 1024,
                                mtu=1024, barrier_sync=False, tx_depth=4)
        result = run_test(TestConfig(
            requester=HostConfig(nic_type="cx6", ip_list=("10.0.0.1/24",)),
            responder=HostConfig(nic_type="cx6", ip_list=("10.0.0.2/24",)),
            traffic=traffic, seed=44,
            dumpers=DumperPoolConfig(num_servers=3),
            switch=SwitchConfig(ecn_threshold_kb=100),
        ))
        assert result.switch_counters["ecn_marked_by_queue"] == 0

    def test_config_roundtrip(self):
        config = TestConfig.from_dict({
            "requester": {"nic": {"type": "cx6", "ip-list": ["10.0.0.1/24"]}},
            "responder": {"nic": {"type": "cx6", "ip-list": ["10.0.0.2/24"]}},
            "switch": {"ecn-threshold-kb": 150},
        })
        assert config.switch.ecn_threshold_kb == 150
