"""Measurement-plane fault injection, gap tolerance and retry (§3.4/§3.5).

The fault layer stresses the *capture* path only — mirror links and
dumper rings — so these tests assert three invariants:

* broken capture is detected (integrity FAIL with the right missing
  seqs), never silently papered over;
* analyzers whose evidence window overlaps a capture gap answer
  INCONCLUSIVE instead of a false PASS/FAIL;
* the integrity-driven retry loop converges when the faults are
  transient and gives up (recording every attempt) when they are not.
"""

import dataclasses

import pytest

from repro import quick_config
from repro.core.config import (
    ConfigError,
    MeasurementFaultConfig,
    RetryPolicy,
    TestConfig,
)
from repro.core.orchestrator import run_test
from repro.core.report import render_report
from repro.core.suite import CHECKS, COVERAGE, Outcome, run_conformance_suite
from repro.faults import SCENARIOS, build_injector, get_scenario
from repro.sim.rng import SimRandom


def _config(**overrides) -> TestConfig:
    base = dict(nic="cx5", verb="write", num_connections=2, num_msgs=4,
                message_size=8192, seed=7)
    base.update(overrides)
    return quick_config(**base)


def _faulted(config: TestConfig, faults: MeasurementFaultConfig,
             retry: RetryPolicy = RetryPolicy()) -> TestConfig:
    return dataclasses.replace(config, measurement_faults=faults, retry=retry)


class TestFaultConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            MeasurementFaultConfig(mirror_loss_period=-1)
        with pytest.raises(ConfigError):
            MeasurementFaultConfig(mirror_loss_rate=1.5)
        with pytest.raises(ConfigError):
            MeasurementFaultConfig(mirror_loss_burst=0)
        with pytest.raises(ConfigError):
            MeasurementFaultConfig(mirror_delay_period=3)  # no delay-ns
        with pytest.raises(ConfigError):
            MeasurementFaultConfig(ring_slots=0)
        with pytest.raises(ConfigError):
            MeasurementFaultConfig(heal_after_attempt=0)

    def test_inert_by_default(self):
        config = MeasurementFaultConfig()
        assert not config.injects_faults
        assert not config.active_on(1)

    def test_heal_after_attempt_gates_activation(self):
        config = MeasurementFaultConfig(mirror_loss_period=5,
                                        heal_after_attempt=1)
        assert config.active_on(1)
        assert not config.active_on(2)
        persistent = MeasurementFaultConfig(mirror_loss_period=5)
        assert persistent.active_on(99)

    def test_from_dict_hyphenated_keys(self):
        config = MeasurementFaultConfig.from_dict({
            "mirror-loss-period": 7, "mirror-loss-burst": 2,
            "ring-slots": 16, "heal-after-attempt": 1,
        })
        assert config.mirror_loss_period == 7
        assert config.mirror_loss_burst == 2
        assert config.ring_slots == 16
        assert config.heal_after_attempt == 1

    def test_retry_policy_backoff_schedule(self):
        policy = RetryPolicy(max_attempts=3, backoff_ns=1_000,
                             backoff_multiplier=2.0)
        assert [policy.backoff_for(a) for a in (1, 2, 3)] == [1_000, 2_000,
                                                              4_000]
        with pytest.raises(ConfigError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigError):
            RetryPolicy(backoff_multiplier=0.5)

    def test_config_rejects_negative_drain_deadline(self):
        with pytest.raises(ConfigError):
            dataclasses.replace(_config(), drain_deadline_ns=-1)


class TestInjectorUnit:
    class _FakePort:
        def __init__(self):
            self.sent = []

        def send(self, packet):
            self.sent.append(packet)

    def _injector(self, sim, **kwargs):
        return build_injector(sim, MeasurementFaultConfig(**kwargs),
                              SimRandom(3, "faults"))

    def test_periodic_loss_drops_every_nth(self, sim):
        injector = self._injector(sim, mirror_loss_period=3)
        port = self._FakePort()
        consumed = [injector.on_mirror(port, object()) for _ in range(9)]
        assert consumed == [False, False, True] * 3
        assert injector.dropped == 3
        assert len(port.sent) == 0  # passthrough means caller sends

    def test_burst_extends_each_loss(self, sim):
        injector = self._injector(sim, mirror_loss_period=4,
                                  mirror_loss_burst=2)
        port = self._FakePort()
        consumed = [injector.on_mirror(port, object()) for _ in range(8)]
        # Index 3 is the periodic loss, index 4 is its burst continuation.
        assert consumed == [False, False, False, True, True,
                            False, False, True]

    def test_delay_holds_then_resends(self, sim):
        injector = self._injector(sim, mirror_delay_period=2,
                                  mirror_delay_ns=500)
        port = self._FakePort()
        assert not injector.on_mirror(port, "a")
        assert injector.on_mirror(port, "b")
        assert not injector.quiescent
        sim.run()
        assert injector.quiescent
        assert port.sent == ["b"]
        assert injector.counters() == {"mirror_fault_dropped": 0,
                                       "mirror_fault_delayed": 1}

    def test_build_injector_inert_config_returns_none(self, sim):
        rng = SimRandom(1, "faults")
        assert build_injector(sim, None, rng) is None
        assert build_injector(sim, MeasurementFaultConfig(), rng) is None
        healed = MeasurementFaultConfig(mirror_loss_period=3,
                                        heal_after_attempt=1)
        assert build_injector(sim, healed, rng, attempt=2) is None
        assert build_injector(sim, healed, rng, attempt=1) is not None


class TestScenarios:
    def test_unknown_scenario_raises(self):
        with pytest.raises(ValueError, match="unknown measurement-fault"):
            get_scenario("no-such-thing")

    def test_apply_leaves_data_path_untouched(self):
        base = _config()
        for scenario in SCENARIOS.values():
            applied = scenario.apply(base)
            assert applied.measurement_faults is scenario.faults
            assert applied.retry is scenario.retry
            assert applied.traffic == base.traffic
            assert applied.seed == base.seed


class TestEndToEnd:
    def test_periodic_loss_fails_integrity_with_exact_holes(self):
        config = _faulted(_config(), MeasurementFaultConfig(
            mirror_loss_period=7))
        result = run_test(config)
        integrity = result.integrity
        assert not integrity.ok
        assert not integrity.seq_consecutive
        mirrored = int(result.switch_counters["mirrored_packets"])
        expected_missing = list(range(6, mirrored, 7))
        assert integrity.missing_seqs == expected_missing
        # Every hole shows up as an annotated gap with real coverage.
        assert result.trace.has_gaps
        assert {g.first_seq for g in result.trace.gaps} == set(expected_missing)
        assert result.trace.coverage == pytest.approx(
            (mirrored - len(expected_missing)) / mirrored)

    def test_tail_loss_detected(self):
        # A burst long enough to eat the final clones: the trace looks
        # self-consistent (seqs 0..k consecutive) and only the switch's
        # mirrored count betrays the amputated tail.
        config = _faulted(_config(), MeasurementFaultConfig(
            mirror_loss_period=60, mirror_loss_burst=40))
        result = run_test(config)
        mirrored = int(result.switch_counters["mirrored_packets"])
        assert not result.integrity.ok
        assert result.integrity.missing_seqs
        assert result.integrity.missing_seqs[-1] == mirrored - 1
        tail = result.trace.gaps[-1]
        assert tail.last_seq == mirrored - 1
        assert tail.after_ns is None  # open-ended: nothing after the tail

    def test_gapped_trace_makes_checks_inconclusive(self):
        scenario = get_scenario("mirror-loss")
        for name in ("gbn-logic", "counter-consistency"):
            outcome = CHECKS[name]("cx5", 77, scenario)
            assert outcome.is_inconclusive, name
            assert not outcome.passed

    def test_retry_converges_when_faults_heal(self):
        config = _faulted(
            _config(),
            MeasurementFaultConfig(mirror_loss_period=5,
                                   heal_after_attempt=1),
            RetryPolicy(max_attempts=3),
        )
        result = run_test(config)
        assert result.integrity.ok
        assert result.attempts_used == 2
        assert result.retried
        first, second = result.attempts
        assert not first.ok and second.ok
        assert first.backoff_ns == config.retry.backoff_for(1)
        assert second.backoff_ns == 0
        assert not result.trace.has_gaps

    def test_retry_exhaustion_records_every_attempt(self):
        config = _faulted(
            _config(),
            MeasurementFaultConfig(mirror_loss_period=7),
            RetryPolicy(max_attempts=2, backoff_ns=500_000),
        )
        result = run_test(config)
        assert not result.integrity.ok
        assert result.attempts_used == 2
        assert [record.attempt for record in result.attempts] == [1, 2]
        assert all(not record.ok for record in result.attempts)

    def test_adaptive_drain_rescues_delayed_clones(self):
        # Cap the traffic window tightly so only the adaptive drain can
        # pick up clones held 3 ms by the injector (the legacy fixed
        # 2 ms drain would TERM before they land).
        config = dataclasses.replace(
            _faulted(_config(), MeasurementFaultConfig(
                mirror_delay_period=5, mirror_delay_ns=3_000_000)),
            max_duration_ns=100_000,
        )
        result = run_test(config)
        assert result.integrity.ok
        assert int(result.switch_counters["mirror_fault_delayed"]) > 0
        assert result.attempts_used == 1

    def test_drain_bounded_by_deadline(self):
        # Delay far beyond the drain deadline: the run must terminate
        # (integrity FAIL) instead of waiting for the stragglers.
        config = dataclasses.replace(
            _faulted(_config(), MeasurementFaultConfig(
                mirror_delay_period=5, mirror_delay_ns=400_000_000)),
            max_duration_ns=100_000,
            drain_deadline_ns=10_000_000,
        )
        result = run_test(config)
        assert not result.integrity.ok
        assert result.integrity.missing_seqs

    def test_ring_pressure_override_shrinks_rings(self):
        config = _faulted(_config(num_msgs=8), MeasurementFaultConfig(
            ring_slots=1))
        result = run_test(config)
        stats = result.dumper_core_stats
        assert stats  # per-server core stats captured on the result
        for cores in stats.values():
            for core in cores:
                assert "term_dropped" in core

    def test_clean_config_reports_have_no_fault_sections(self):
        report = render_report(run_test(_config()))
        assert "attempts:" not in report
        assert "trace coverage" not in report
        assert "INCONCLUSIVE" not in report
        assert "NOTE: measurement-plane faults" not in report

    def test_faulted_report_carries_integrity_story(self):
        config = _faulted(_config(), MeasurementFaultConfig(
            mirror_loss_period=7), RetryPolicy(max_attempts=2))
        report = render_report(run_test(config))
        assert "trace coverage" in report
        assert "attempts: 2 (integrity-driven retry, §3.5)" in report
        assert "NOTE: measurement-plane faults were injected" in report


class TestSuiteIntegration:
    def test_coverage_declared_for_every_check(self):
        assert set(COVERAGE) == set(CHECKS)
        assert set(COVERAGE.values()) <= {"full-trace", "connection",
                                          "event-window", "none"}

    def test_scorecard_counts_inconclusive_separately(self):
        card = run_conformance_suite(
            "cx5", seed=77, checks=["gbn-logic", "counter-consistency"],
            faults="mirror-loss")
        assert card.inconclusive == 2
        assert card.passed == 0
        assert not card.failures()  # inconclusive is not failure
        assert "2 inconclusive" in card.render()
        assert all(r.outcome is Outcome.INCONCLUSIVE for r in card.results)

    def test_workers_match_serial_under_faults(self):
        checks = ["gbn-logic", "counter-consistency", "cnp-generation"]
        serial = run_conformance_suite("cx5", seed=77, checks=checks,
                                       faults="mirror-loss")
        pooled = run_conformance_suite("cx5", seed=77, checks=checks,
                                       faults="mirror-loss", workers=2)
        assert serial.render() == pooled.render()

    def test_clean_suite_render_unchanged_by_outcome_plumbing(self):
        card = run_conformance_suite("ideal", seed=77, checks=["gbn-logic"])
        assert card.inconclusive == 0
        assert "inconclusive" not in card.render()
