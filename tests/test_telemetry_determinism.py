"""Observation must never change simulation results.

The session's core guarantee (see ``repro/observe``): it observes the
simulation but never feeds anything back — no events scheduled, no
draws from the seeded PRNG, no component state mutated. These tests
run identical workloads observed and unobserved and require
byte-identical traces, verdicts and scores. Coverage adds a report
section and steers guided fuzzing by design, so the metrics facet is
held to the stricter bar: switching it on changes nothing at all.
"""

import pytest

from repro import observe
from repro.core.config import TestConfig
from repro.core.fuzz import LuminaFuzzer
from repro.core.orchestrator import run_test
from repro.core.report import render_report
from repro.core.trace import format_trace


@pytest.fixture(autouse=True)
def _clean_session():
    observe.disable()
    yield
    observe.disable()


def _observed(fn, metrics=True):
    observe.enable(metrics=metrics)
    try:
        return fn()
    finally:
        observe.disable()


def _config(seed: int = 11) -> TestConfig:
    return TestConfig.from_dict({
        "requester": {"nic": {"type": "cx5", "ip-list": ["10.0.0.1/24"]}},
        "responder": {"nic": {"type": "cx5", "ip-list": ["10.0.0.2/24"]}},
        "traffic": {
            "num-connections": 2,
            "rdma-verb": "write",
            "num-msgs-per-qp": 6,
            "message-size": 8192,
            "mtu": 1024,
            "data-pkt-events": [
                {"qpn": 1, "psn": 3, "type": "drop", "iter": 1},
                {"qpn": 2, "psn": 4, "type": "ecn", "iter": 1},
            ],
        },
        "seed": seed,
    })


def test_run_results_identical_enabled_vs_disabled():
    baseline = run_test(_config())
    traced = _observed(lambda: run_test(_config()))
    covered = _observed(lambda: run_test(_config()), metrics=False)

    assert format_trace(traced.trace) == format_trace(baseline.trace)
    assert render_report(traced) == render_report(covered)
    assert traced.integrity.ok == baseline.integrity.ok
    assert traced.duration_ns == baseline.duration_ns
    assert traced.switch_counters == baseline.switch_counters


def test_fuzzer_scores_identical_enabled_vs_disabled():
    def fuzz_scores(guided=None):
        fuzzer = LuminaFuzzer(_config(seed=5), seed=5)
        report = fuzzer.run(iterations=3, coverage_fitness=guided)
        return report.pool_scores, report.iterations_run, report.invalid_runs

    baseline = fuzz_scores()
    assert _observed(lambda: fuzz_scores(guided=False)) == baseline
    assert _observed(fuzz_scores) == _observed(fuzz_scores, metrics=False)


def test_enabled_run_actually_collects():
    """Guard against the guarantee being satisfied vacuously."""
    session = observe.enable()
    try:
        run_test(_config())
    finally:
        observe.disable()
    assert len(session.registry) > 10
    assert len(session.tracer.spans) >= 4  # setup/traffic/drain/collect
    processed = session.registry.find("sim_events_processed", sim="sim")
    assert processed is not None and processed.value > 0
    assert session.total_snapshot()
