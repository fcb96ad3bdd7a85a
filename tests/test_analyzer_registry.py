"""The Analyzer protocol and the registry."""

import json

import pytest

from repro.core.analyzers import (
    Analyzer,
    AnalyzerContext,
    AnalyzerResult,
    Outcome,
    analyzer_names,
    get_analyzer,
    iter_analyzers,
    register,
    trace_window,
)

from conftest import drop, run_scenario

BUILTINS = ("cnp", "counters", "gbn", "goodput", "latency",
            "retransmission")


def clean_result():
    return run_scenario(nic="cx5", verb="write", num_msgs=2,
                        message_size=4096, seed=3)


class TestRegistry:
    def test_builtins_registered_in_name_order(self):
        assert tuple(analyzer_names()) == BUILTINS
        assert [a.name for a in iter_analyzers()] == list(BUILTINS)

    def test_every_builtin_satisfies_the_protocol(self):
        for analyzer in iter_analyzers():
            assert isinstance(analyzer, Analyzer)

    def test_unknown_name_names_the_alternatives(self):
        with pytest.raises(KeyError, match="gbn"):
            get_analyzer("nonesuch")

    def test_register_validates_and_latest_wins(self):
        with pytest.raises(ValueError):
            register(object())

        class Probe:
            name = "gbn"

            def analyze(self, trace, ctx):
                raise NotImplementedError

        original = get_analyzer("gbn")
        try:
            register(Probe())
            assert isinstance(get_analyzer("gbn"), Probe)
        finally:
            register(original)
        assert get_analyzer("gbn") is original


class TestUniformVerdicts:
    def test_clean_run_passes_every_analyzer(self):
        result = clean_result()
        ctx = AnalyzerContext.for_result(result)
        for analyzer in iter_analyzers():
            verdict = analyzer.analyze(result.trace, ctx)
            assert isinstance(verdict, AnalyzerResult)
            assert verdict.name == analyzer.name
            assert verdict.outcome is Outcome.PASS and verdict.ok
            assert not verdict.violations
            assert str(verdict).startswith("[PASS]")

    def test_evidence_window_spans_the_trace(self):
        result = clean_result()
        verdict = get_analyzer("gbn").analyze(
            result.trace, AnalyzerContext.for_result(result))
        assert verdict.evidence_window == trace_window(result.trace)
        start, end = verdict.evidence_window
        assert 0 <= start <= end

    def test_counters_inconclusive_without_result_context(self):
        result = clean_result()
        verdict = get_analyzer("counters").analyze(result.trace,
                                                   AnalyzerContext())
        assert verdict.is_inconclusive
        assert verdict.outcome is Outcome.INCONCLUSIVE

    def test_drop_surfaces_in_retransmission_data(self):
        result = run_scenario(nic="cx5", verb="write", num_msgs=2,
                              message_size=4096, events=(drop(psn=2),),
                              seed=5)
        verdict = get_analyzer("retransmission").analyze(
            result.trace, AnalyzerContext.for_result(result))
        assert verdict.ok
        assert verdict.metrics["events"] == 1
        assert verdict.data[0].conclusive

    def test_to_dict_roundtrip_drops_data_only(self):
        result = clean_result()
        verdict = get_analyzer("goodput").analyze(
            result.trace, AnalyzerContext.for_result(result))
        restored = AnalyzerResult.from_dict(
            json.loads(json.dumps(verdict.to_dict())))
        assert restored.data is None
        assert restored == AnalyzerResult(
            name=verdict.name, outcome=verdict.outcome,
            violations=verdict.violations,
            evidence_window=verdict.evidence_window,
            metrics=verdict.metrics, detail=verdict.detail)


class TestProtocolOutcome:
    def test_suite_outcome_is_the_protocol_outcome(self):
        from repro.core import suite

        assert suite.Outcome is Outcome
