"""Determinism of parallel campaign execution.

The contract (DESIGN.md): ``batch_size`` fixes the fuzzing schedule,
``workers`` only decides how each batch is executed — so a campaign's
report must be field-for-field identical for any worker count, and a
broken pool (falling back to in-process execution) must not change the
result either.
"""

import pytest

from repro import quick_config
from repro.core.fuzz import LuminaFuzzer
from repro.core.suite import run_conformance_suite
from repro.exec import runner as runner_mod

SEED = 7
ITERATIONS = 8
BATCH = 2


def _base_config():
    return quick_config(nic="e810", verb="write", num_msgs=2,
                        message_size=10240, num_connections=2)


def _campaign(workers: int):
    fuzzer = LuminaFuzzer(_base_config(), seed=SEED, anomaly_threshold=2.5)
    return fuzzer.run(iterations=ITERATIONS, batch_size=BATCH,
                      workers=workers)


def _assert_reports_identical(a, b):
    assert a.iterations_run == b.iterations_run
    assert a.invalid_runs == b.invalid_runs
    assert a.pool_scores == b.pool_scores
    assert len(a.findings) == len(b.findings)
    for fa, fb in zip(a.findings, b.findings):
        assert fa.iteration == fb.iteration
        assert fa.config == fb.config
        assert fa.score == fb.score


class TestFuzzDeterminism:
    @pytest.fixture(scope="class")
    def serial_report(self):
        return _campaign(workers=1)

    def test_campaign_finds_something(self, serial_report):
        # Guards the fixture: an empty report would make the equality
        # assertions below vacuous.
        assert serial_report.findings
        assert serial_report.pool_scores

    @pytest.mark.parametrize("workers", [2, 4])
    def test_report_identical_for_any_worker_count(self, serial_report,
                                                   workers):
        _assert_reports_identical(serial_report, _campaign(workers))

    def test_batch_size_one_matches_historical_serial_schedule(self):
        # batch_size=1 must reproduce the pre-batching RNG consumption
        # order exactly, so two campaigns differing only in batch
        # *submission* (not size) agree.
        a = LuminaFuzzer(_base_config(), seed=3).run(iterations=4)
        b = LuminaFuzzer(_base_config(), seed=3).run(iterations=4,
                                                     batch_size=1, workers=1)
        _assert_reports_identical(a, b)

    def test_broken_pool_fallback_preserves_report(self, serial_report,
                                                   monkeypatch):
        def no_pools(*args, **kwargs):
            raise OSError("no process pools on this platform")

        monkeypatch.setattr(runner_mod.procs, "context", no_pools)
        degraded = _campaign(workers=4)
        _assert_reports_identical(serial_report, degraded)


class TestSuiteDeterminism:
    CHECKS = ["gbn-logic", "corruption-detection", "counter-consistency"]

    def test_scorecard_identical_across_worker_counts(self):
        serial = run_conformance_suite("cx5", checks=self.CHECKS, workers=1)
        pooled = run_conformance_suite("cx5", checks=self.CHECKS, workers=2)
        assert [r.name for r in serial.results] == \
               [r.name for r in pooled.results]
        assert serial.results == pooled.results
        assert serial.passed == pooled.passed
