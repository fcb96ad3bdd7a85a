"""Integration tests for the §4 test-suite analyzers."""

import pytest

from conftest import corrupt, drop, ecn, run_scenario
from repro.core.analyzers import (
    AnalyzerContext,
    expected_counters,
    get_analyzer,
    mct_stats,
    min_cnp_interval_ns,
    per_qp_goodput_gbps,
    split_mct,
)


def analyzer_data(name, result):
    """The rich report registered analyzer ``name`` derives from a run."""
    return get_analyzer(name).analyze(
        result.trace, AnalyzerContext.for_result(result)).data


class TestRetransPerfAnalyzer:
    def test_fast_retransmission_breakdown(self):
        result = run_scenario(nic="cx5", verb="write", num_msgs=2,
                              message_size=102400, events=(drop(psn=50),),
                              seed=3)
        events = analyzer_data("retransmission", result)
        assert len(events) == 1
        event = events[0]
        assert event.fast_retransmission
        assert event.recovered
        assert event.nack_generation_ns is not None
        assert event.nack_reaction_ns is not None
        assert event.total_recovery_ns > 0
        # CX5: both phases are single-digit microseconds (Fig. 8/9).
        assert event.nack_generation_ns < 15_000
        assert event.nack_reaction_ns < 20_000

    def test_read_implied_nack_measured(self):
        result = run_scenario(nic="cx5", verb="read", num_msgs=2,
                              message_size=102400, events=(drop(psn=50),),
                              seed=3)
        events = analyzer_data("retransmission", result)
        assert len(events) == 1
        assert events[0].fast_retransmission

    def test_timeout_recovery_has_no_nack(self):
        result = run_scenario(verb="write", num_msgs=1, message_size=4096,
                              events=(drop(psn=4),), timeout_cfg=10, seed=4)
        events = analyzer_data("retransmission", result)
        assert len(events) == 1
        assert not events[0].fast_retransmission
        assert events[0].nack_time_ns is None
        assert events[0].recovered

    def test_profile_ordering_write_reaction(self):
        # Fig. 9a: CX5 reacts orders of magnitude faster than CX4.
        def react(nic):
            result = run_scenario(nic=nic, verb="write", num_msgs=2,
                                  message_size=102400,
                                  events=(drop(psn=50),), seed=3)
            return analyzer_data("retransmission", result)[0].nack_reaction_ns

        assert react("cx4") > 20 * react("cx5")

    def test_profile_ordering_read_generation(self):
        # Fig. 8b: E810's Read NACK generation is ~milliseconds.
        def gen(nic):
            result = run_scenario(nic=nic, verb="read", num_msgs=2,
                                  message_size=102400,
                                  events=(drop(psn=50),), seed=3)
            return analyzer_data("retransmission", result)[0].nack_generation_ns

        assert gen("e810") > 50_000_000       # ~83 ms
        assert gen("cx4") > 20 * gen("cx5")   # ~150 µs vs ~2-5 µs

    def test_no_drops_no_events(self):
        result = run_scenario(verb="write", num_msgs=2, message_size=4096)
        assert analyzer_data("retransmission", result) == []


class TestGbnFsmAnalyzer:
    @pytest.mark.parametrize("nic", ["ideal", "cx4", "cx5", "cx6", "e810"])
    @pytest.mark.parametrize("verb", ["write", "read"])
    def test_all_nics_pass_with_drop(self, nic, verb):
        # §6.1: all tested RNICs pass the FSM-based logic check.
        result = run_scenario(nic=nic, verb=verb, num_msgs=2,
                              message_size=102400, events=(drop(psn=50),),
                              seed=3)
        report = analyzer_data("gbn", result)
        assert report.compliant, [str(v) for v in report.violations]
        assert report.connections_checked >= 1
        assert report.packets_checked > 0

    def test_clean_trace_compliant(self):
        result = run_scenario(verb="write", num_msgs=3, message_size=4096)
        assert analyzer_data("gbn", result).compliant

    def test_double_drop_timeout_path_compliant(self):
        result = run_scenario(verb="write", num_msgs=2, message_size=4096,
                              events=(drop(psn=2), drop(psn=2, iteration=2)),
                              timeout_cfg=10, seed=6)
        assert analyzer_data("gbn", result).compliant

    def test_corruption_treated_as_loss(self):
        result = run_scenario(verb="write", num_msgs=2, message_size=4096,
                              events=(corrupt(psn=2),), seed=10)
        assert analyzer_data("gbn", result).compliant


class TestCnpAnalyzer:
    def test_single_mark_single_cnp(self):
        result = run_scenario(verb="write", num_msgs=2, message_size=4096,
                              events=(ecn(psn=3),), seed=9)
        report = analyzer_data("cnp", result)
        assert report.total_cnps == 1
        assert report.total_ecn_marked == 1
        assert report.spurious_cnps == 0

    def test_no_marks_no_cnps(self):
        result = run_scenario(verb="write", num_msgs=2, message_size=4096)
        report = analyzer_data("cnp", result)
        assert report.total_cnps == 0
        assert min_cnp_interval_ns(result.trace) is None

    def test_nvidia_interval_honours_configuration(self):
        result = run_scenario(nic="cx5", verb="write", num_msgs=3,
                              message_size=102400, cnp_interval_us=4,
                              rp_enable=False, seed=31,
                              events=tuple(ecn(psn=p) for p in range(1, 101)))
        interval = min_cnp_interval_ns(result.trace)
        assert interval is not None
        assert interval >= 3_500  # ≥ ~4 µs with jitter tolerance

    def test_e810_hidden_floor_detected(self):
        # §6.3: E810 enforces ~50 µs regardless of configuration. Mark
        # every packet of a 170 µs-long transfer so several CNPs fit.
        result = run_scenario(nic="e810", verb="write", num_msgs=20,
                              message_size=102400, cnp_interval_us=0,
                              rp_enable=False, seed=31, barrier_sync=False,
                              tx_depth=4,
                              events=tuple(ecn(psn=p) for p in range(1, 2001)))
        interval = min_cnp_interval_ns(result.trace)
        assert interval is not None
        assert interval >= 45_000


class TestCounterAnalyzer:
    def test_clean_run_consistent(self):
        result = run_scenario(nic="cx5", verb="write", num_msgs=3,
                              message_size=4096, events=(drop(psn=2),), seed=5)
        report = analyzer_data("counters", result)
        assert report.consistent
        assert report.checked > 0

    def test_e810_cnp_sent_bug_detected(self):
        # §6.2.4: cnpSent stays 0 although CNPs are on the wire.
        result = run_scenario(nic="e810", verb="write", num_msgs=2,
                              message_size=4096, events=(ecn(psn=3),), seed=9)
        report = analyzer_data("counters", result)
        bugs = [m for m in report.mismatches if m.counter == "cnp_sent"]
        assert len(bugs) == 1
        assert bugs[0].vendor_counter == "cnpSent"
        assert bugs[0].expected == 1
        assert bugs[0].reported == 0
        assert bugs[0].host == "responder"

    def test_cx4_implied_nak_bug_detected(self):
        # §6.2.4: implied_nak_seq_err stuck on Read OOO.
        result = run_scenario(nic="cx4", verb="read", num_msgs=2,
                              message_size=10240, events=(drop(psn=2),),
                              seed=5)
        report = analyzer_data("counters", result)
        bugs = [m for m in report.mismatches
                if m.counter == "implied_nak_seq_err"]
        assert len(bugs) == 1
        assert bugs[0].reported == 0
        assert bugs[0].expected > 0
        assert bugs[0].host == "requester"

    def test_cx5_read_counter_consistent(self):
        # The same scenario on CX5 increments the counter correctly.
        result = run_scenario(nic="cx5", verb="read", num_msgs=2,
                              message_size=10240, events=(drop(psn=2),),
                              seed=5)
        report = analyzer_data("counters", result)
        assert not [m for m in report.mismatches
                    if m.counter == "implied_nak_seq_err"]

    def test_expected_counters_derived_from_wire(self):
        result = run_scenario(nic="cx5", verb="write", num_msgs=2,
                              message_size=4096, events=(ecn(psn=3),), seed=9)
        responder_ips = {m.responder_ip for m in result.metadata}
        expected = expected_counters(result.trace, responder_ips)
        assert expected["cnp_sent"] == 1
        assert expected["ecn_marked_packets"] == 1


class TestGoodputAnalyzer:
    def test_mct_stats(self):
        result = run_scenario(verb="write", num_msgs=5, message_size=4096)
        stats = mct_stats(result.traffic_log.all_messages)
        assert stats.count == 5
        assert stats.min_ns <= stats.p50_ns <= stats.p99_ns <= stats.max_ns
        assert stats.mean_us == stats.mean_ns / 1e3

    def test_mct_stats_empty(self):
        assert mct_stats([]) is None

    def test_per_qp_goodput(self):
        result = run_scenario(verb="write", num_connections=2, num_msgs=3,
                              message_size=65536, barrier_sync=False,
                              tx_depth=2)
        goodput = per_qp_goodput_gbps(result.traffic_log)
        assert set(goodput) == {1, 2}
        assert all(v > 0 for v in goodput.values())

    def test_split_mct(self):
        result = run_scenario(verb="write", num_connections=3, num_msgs=2,
                              message_size=4096)
        parts = split_mct(result.traffic_log, [1])
        assert parts["selected"].count == 2
        assert parts["others"].count == 4
