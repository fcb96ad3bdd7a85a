"""Tests for the N-to-1 incast extension topology."""

import pytest

from repro.core.config import ConfigError
from repro.core.incast import IncastConfig, jain_fairness, run_incast


@pytest.fixture(scope="module")
def deep_buffer():
    return run_incast(IncastConfig(num_senders=4, nic_type="cx6",
                                   num_msgs_per_sender=8,
                                   message_size=256 * 1024, seed=55))


@pytest.fixture(scope="module")
def shallow_buffer():
    return run_incast(IncastConfig(num_senders=4, nic_type="cx6",
                                   num_msgs_per_sender=8,
                                   message_size=256 * 1024,
                                   receiver_queue_bytes=200 * 1024, seed=55))


@pytest.fixture(scope="module")
def dcqcn_marked():
    return run_incast(IncastConfig(num_senders=4, nic_type="cx6",
                                   num_msgs_per_sender=8,
                                   message_size=256 * 1024,
                                   ecn_threshold_kb=100, seed=55))


class TestJainFairness:
    def test_perfect_fairness(self):
        assert jain_fairness([5.0, 5.0, 5.0]) == pytest.approx(1.0)

    def test_single_hog(self):
        assert jain_fairness([10.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)

    def test_empty_and_zero(self):
        assert jain_fairness([]) == 0.0
        assert jain_fairness([0.0, 0.0]) == 0.0


class TestDeepBufferIncast:
    def test_aggregate_saturates_receiver_link(self, deep_buffer):
        # 4x100G senders into one 100G receiver: aggregate goodput is
        # the bottleneck line rate (minus header overhead).
        assert deep_buffer.aggregate_goodput_bps > 85e9

    def test_fan_in_is_fair(self, deep_buffer):
        assert deep_buffer.fairness > 0.95

    def test_no_losses_with_deep_buffers(self, deep_buffer):
        assert sum(deep_buffer.per_sender_retransmits.values()) == 0
        assert deep_buffer.aborted_senders == 0

    def test_trace_capture_is_complete(self, deep_buffer):
        assert deep_buffer.integrity.ok
        # 4 senders x 8 msgs x 256 packets of data plus ACKs.
        assert len(deep_buffer.trace) > 4 * 8 * 256

    def test_one_connection_per_sender(self, deep_buffer):
        data_conns = {p.conn_key for p in deep_buffer.trace.data_packets()}
        assert len(data_conns) == 4


class TestShallowBufferIncast:
    def test_congestion_drops_cause_retransmission_storm(self, shallow_buffer):
        # Tail drops at the bottleneck queue + Go-back-N = many replays.
        assert sum(shallow_buffer.per_sender_retransmits.values()) > 100

    def test_fairness_collapses(self, shallow_buffer, deep_buffer):
        assert shallow_buffer.fairness < deep_buffer.fairness - 0.2

    def test_drops_visible_at_switch_port(self, shallow_buffer):
        ports = shallow_buffer.switch_counters["ports"]
        drops = sum(p["tx_drops"] for p in ports.values())
        assert drops > 0

    def test_everyone_still_finishes(self, shallow_buffer):
        assert shallow_buffer.aborted_senders == 0


class TestDcqcnIncast:
    def test_marks_generated_at_fan_in(self, dcqcn_marked):
        assert dcqcn_marked.switch_counters["ecn_marked_by_queue"] > 0

    def test_no_losses_thanks_to_backpressure(self, dcqcn_marked):
        assert sum(dcqcn_marked.per_sender_retransmits.values()) == 0

    def test_control_loop_stays_fair(self, dcqcn_marked):
        assert dcqcn_marked.fairness > 0.9

    def test_cnps_reach_every_sender(self, dcqcn_marked):
        cnp_targets = {p.ip.dst_ip for p in dcqcn_marked.trace.cnps()}
        assert len(cnp_targets) == 4


class TestConfigValidation:
    def test_needs_a_sender(self):
        with pytest.raises(ConfigError):
            IncastConfig(num_senders=0)

    def test_positive_geometry(self):
        with pytest.raises(ConfigError):
            IncastConfig(message_size=0)
        with pytest.raises(ConfigError):
            IncastConfig(tx_depth=0)

    def test_deterministic(self):
        a = run_incast(IncastConfig(num_senders=2, num_msgs_per_sender=2,
                                    message_size=64 * 1024, seed=9))
        b = run_incast(IncastConfig(num_senders=2, num_msgs_per_sender=2,
                                    message_size=64 * 1024, seed=9))
        assert a.per_sender_goodput_bps == b.per_sender_goodput_bps
