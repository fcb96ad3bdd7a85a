"""Coverage maps: determinism, attachment rules, store round-trips.

The coverage subsystem's contracts (see ``repro/coverage/map``):

* merging per-run snapshots is commutative and associative, so a
  campaign's map — and its canonical JSON document — is byte-identical
  for any ``workers`` count and for crash-resumed campaigns;
* coverage rides on result objects only when a session is active, and
  the flight-recorder timeline is attached only to anomalous outcomes
  (FAIL / INCONCLUSIVE verdicts, integrity-driven retries);
* the store encodes coverage keys only when present, so coverage-off
  artifacts stay byte-identical to the pre-coverage format.
"""

import pytest

from repro import observe, quick_config
from repro.core.fuzz import LuminaFuzzer, make_fuzzer
from repro.core.report import render_fuzz_summary
from repro.core.orchestrator import Orchestrator, run_test
from repro.core.suite import (DEFAULT_SUITE_SEED, Outcome,
                              run_conformance_suite, run_single_check)
from repro.core.sweep import render_sweep_report, run_sweep
from repro.core.trace import format_trace
from repro.coverage.domains import DOMAINS, known_point_count
from repro.coverage.map import CoverageMap, canonical_coverage_json
from repro.faults import get_scenario
from repro.store import CampaignStore
from repro.store.serialize import decode_result, encode_result


@pytest.fixture(autouse=True)
def _clean_session():
    observe.disable()
    yield
    observe.disable()


def _config(seed: int = 21):
    return quick_config(nic="cx5", verb="write", num_msgs=2,
                        message_size=8192, num_connections=2, seed=seed)


class TestCoverageMap:
    A = [["rdma.gbn", "nak-sent", 2, 500], ["switch.table", "lookup-hit", 9, 10]]
    B = [["rdma.gbn", "nak-sent", 1, 300], ["rdma.dcqcn", "rate-cut", 4, 700]]
    C = [["switch.table", "lookup-hit", 1, 5]]

    def test_merge_order_independent(self):
        def folded(order):
            merged = CoverageMap()
            for snap in order:
                merged.merge_snapshot(snap)
            return canonical_coverage_json(merged.snapshot())

        docs = {folded(order) for order in (
            (self.A, self.B, self.C), (self.C, self.B, self.A),
            (self.B, self.A, self.C))}
        assert len(docs) == 1

    def test_counts_sum_first_hit_min(self):
        merged = CoverageMap()
        merged.merge_snapshot(self.A)
        merged.merge_snapshot(self.B)
        merged.merge_snapshot(self.C)
        assert merged.count("rdma.gbn", "nak-sent") == 3
        assert merged.first_hit_ns("rdma.gbn", "nak-sent") == 300
        assert merged.count("switch.table", "lookup-hit") == 10
        assert merged.first_hit_ns("switch.table", "lookup-hit") == 5
        assert merged.first_hit_ns("rdma.nic", "cnp-sent") is None

    def test_snapshot_round_trip(self):
        original = CoverageMap()
        original.merge_snapshot(self.A)
        original.merge_snapshot(self.B)
        restored = CoverageMap.from_snapshot(original.snapshot())
        assert restored == original
        assert restored.snapshot() == original.snapshot()

    def test_declared_points_are_unique_per_domain(self):
        # The denominator of every coverage report: a duplicated point
        # name would silently deflate "known" counts.
        total = sum(len(points) for points in DOMAINS.values())
        assert known_point_count() == total
        for domain, points in DOMAINS.items():
            assert len(set(points)) == len(points), domain


class TestResultAttachment:
    def test_disabled_run_carries_nothing(self):
        result = run_test(_config())
        assert result.coverage is None
        assert result.flight_record is None

    def test_enabled_clean_run_carries_map_but_no_flight_record(self):
        observe.enable(metrics=False)
        result = run_test(_config())
        assert result.coverage  # non-empty sorted snapshot rows
        assert result.coverage == sorted(result.coverage)
        hit_domains = {row[0] for row in result.coverage}
        assert "switch.table" in hit_domains
        assert "rdma.gbn" in hit_domains
        # Clean single-attempt run: no anomaly, no flight record.
        assert result.integrity.ok and len(result.attempts) == 1
        assert result.flight_record is None

    def test_enabled_run_does_not_perturb_simulation(self):
        baseline = run_test(_config())
        observe.enable(metrics=False)
        covered = run_test(_config())
        assert format_trace(covered.trace) == format_trace(baseline.trace)
        assert covered.duration_ns == baseline.duration_ns
        assert covered.integrity.ok == baseline.integrity.ok

    def test_store_round_trip_preserves_coverage(self):
        observe.enable(metrics=False)
        result = run_test(_config())
        result.flight_record = [[0, 100, "rnic", "gap-nak", "psn=3"]]
        restored = decode_result(encode_result(result))
        assert restored.coverage == result.coverage
        assert restored.flight_record == result.flight_record

    def test_coverage_off_encoding_is_unchanged(self):
        # Byte-compat: pre-coverage artifacts must decode and re-encode
        # without growing new keys.
        result = run_test(_config())
        data = encode_result(result)
        assert "coverage" not in data
        assert "flight-record" not in data


class TestSingleFoldRule:
    """In-process units fold themselves; the fan-out folds the rest."""

    def test_direct_orchestrator_run_folds_into_session(self):
        session = observe.enable(metrics=False)
        result = Orchestrator(_config()).run()
        assert result.coverage
        assert session.total_snapshot() == result.coverage

    def test_store_replayed_run_test_folds_once(self, tmp_path):
        store = CampaignStore(str(tmp_path / "store"))
        fresh_session = observe.enable(metrics=False)
        fresh = run_test(_config(), store=store)
        fresh_doc = canonical_coverage_json(fresh_session.total_snapshot())
        observe.disable()

        replay_session = observe.enable(metrics=False)
        replayed = run_test(_config(), store=store)
        assert store.hits == 1
        assert replayed.coverage == fresh.coverage
        # Hit counts match a fresh run's: the replay folds exactly once.
        assert canonical_coverage_json(
            replay_session.total_snapshot()) == fresh_doc
        assert replay_session.total_snapshot() == fresh.coverage


class TestWorkerDeterminism:
    def test_suite_map_identical_across_worker_counts(self):
        checks = ["gbn-logic", "corruption-detection"]

        def suite_doc(workers):
            session = observe.enable(metrics=False)
            try:
                card = run_conformance_suite("cx5", checks=checks,
                                             workers=workers)
                per_check = [check.coverage for check in card.results]
                return canonical_coverage_json(session.total_snapshot()), \
                    per_check
            finally:
                observe.disable()

        assert suite_doc(2) == suite_doc(1)

    SWEEP = {"config": None, "nics": ["cx5", "e810"], "seeds": 2,
             "base-seed": 1, "verb": "write", "connections": 2,
             "messages": 2, "size": 20480, "faults": None, "timeout": None}

    def _sweep_docs(self, workers, store=None):
        session = observe.enable(metrics=False)
        try:
            execution = run_sweep(self.SWEEP, workers=workers, store=store)
            report, failures = render_sweep_report(execution.cells,
                                                   execution.outcomes)
            assert failures == 0
            return report, canonical_coverage_json(
                session.total_snapshot()), execution.executed
        finally:
            observe.disable()

    @pytest.mark.parametrize("workers", [2, 4])
    def test_batch_map_identical_for_any_worker_count(self, workers):
        # An observed sweep: same report, same session map.
        assert self._sweep_docs(workers)[:2] == self._sweep_docs(1)[:2]

    def test_batch_map_identical_on_store_replay(self, tmp_path):
        report, doc, _ = self._sweep_docs(1)
        store = CampaignStore(str(tmp_path / "store"))
        assert self._sweep_docs(2, store) == (report, doc, 4)
        assert self._sweep_docs(1, store) == (report, doc, 0)

    def _fuzz_docs(self, workers, store=None):
        session = observe.enable(metrics=False)
        try:
            fuzzer, _ = make_fuzzer("counter-bugs", "e810", seed=1)
            report = fuzzer.run(iterations=4, batch_size=2,
                                workers=workers, store=store)
            return render_fuzz_summary(report), canonical_coverage_json(
                session.total_snapshot())
        finally:
            observe.disable()

    def test_guided_fuzz_identical_across_workers_and_replay(self, tmp_path):
        summary, doc = self._fuzz_docs(1)
        assert "coverage growth:" in summary
        assert self._fuzz_docs(2) == (summary, doc)
        store = CampaignStore(str(tmp_path / "store"))
        assert self._fuzz_docs(2, store) == (summary, doc)
        assert self._fuzz_docs(1, store) == (summary, doc)
        assert store.hits == 4


class TestFlightRecorder:
    def test_passing_check_has_no_flight_record(self):
        observe.enable(metrics=False)
        check = run_single_check("gbn-logic", "cx5", DEFAULT_SUITE_SEED)
        assert check.outcome is Outcome.PASS
        assert check.coverage
        assert check.flight_record is None

    def test_inconclusive_check_carries_flight_record(self):
        observe.enable(metrics=False)
        check = run_single_check("gbn-logic", "cx5", DEFAULT_SUITE_SEED,
                                 get_scenario("mirror-loss"))
        assert check.outcome is Outcome.INCONCLUSIVE
        assert check.flight_record
        # Timeline rows: [seq, sim_ns, component, event, detail].
        components = {row[2] for row in check.flight_record}
        assert components  # at least one ring captured the anomaly


class TestCampaignCoverage:
    ITERATIONS = 4
    BATCH = 2

    def _campaign(self, campaign_dir=None, workers=1):
        session = observe.enable(metrics=False)
        try:
            fuzzer = LuminaFuzzer(_config(seed=5), seed=5)
            report = fuzzer.run(iterations=self.ITERATIONS,
                                batch_size=self.BATCH, workers=workers,
                                campaign_dir=campaign_dir)
            return report, canonical_coverage_json(session.total_snapshot())
        finally:
            observe.disable()

    def test_growth_rows_accumulate_monotonically(self):
        report, _ = self._campaign()
        assert report.coverage  # cumulative campaign map rides the report
        assert report.coverage_growth
        totals = [row["total-points"] for row in report.coverage_growth]
        assert totals == sorted(totals)
        assert totals[-1] == len(report.coverage)
        assert [row["generation"] for row in report.coverage_growth] == \
            list(range(1, len(report.coverage_growth) + 1))

    @pytest.mark.parametrize("workers", [2])
    def test_campaign_map_identical_across_worker_counts(self, workers):
        serial_report, serial_doc = self._campaign()
        pooled_report, pooled_doc = self._campaign(workers=workers)
        assert pooled_doc == serial_doc
        assert pooled_report.coverage == serial_report.coverage
        assert pooled_report.coverage_growth == serial_report.coverage_growth

    def test_crash_resumed_campaign_map_is_identical(self, tmp_path,
                                                     monkeypatch):
        clean_report, _ = self._campaign(str(tmp_path / "clean"))

        monkeypatch.setenv("REPRO_CAMPAIGN_CRASH_AFTER_GEN", "1")
        with pytest.raises(SystemExit) as exc:
            self._campaign(str(tmp_path / "crash"))
        assert exc.value.code == 3
        monkeypatch.delenv("REPRO_CAMPAIGN_CRASH_AFTER_GEN")

        resumed_report, _ = self._campaign(str(tmp_path / "crash"))
        assert resumed_report.coverage == clean_report.coverage
        assert resumed_report.coverage_growth == clean_report.coverage_growth
        assert canonical_coverage_json(resumed_report.coverage) == \
            canonical_coverage_json(clean_report.coverage)
