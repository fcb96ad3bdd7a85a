"""Coverage-guided fuzzing: novelty fitness, corpus management, dedup.

Covers the feedback loop added on top of Algorithm 1 (FP4-style):

* golden novelty-score values for fixed inputs,
* the (score, config) pool pairing — including the regression where
  resumed and fresh campaigns must agree on which config owns which
  score,
* the 1-indexed lower bound in ``clamp_events``,
* checkpoints that keep coverage mode visible even at zero points,
* first-hit admission, dominance minimization determinism, and
  finding-dedup stability across store replay.
"""

import os

import pytest

from repro import observe, quick_config
from repro.core.config import DataPacketEvent, TrafficConfig
from repro.core.fuzz import (
    LuminaFuzzer,
    Score,
    clamp_events,
    novelty_score,
)
from repro.core.orchestrator import run_test
from repro.coverage.map import CoverageMap
from repro.sim.rng import SimRandom
from repro.store.journal import CampaignJournal
from repro.store.serialize import encode_fuzz_report


@pytest.fixture(autouse=True)
def _clean_session():
    observe.disable()
    yield
    observe.disable()


def _base(nic="e810", seed=1):
    return quick_config(nic=nic, verb="write", num_msgs=2,
                        message_size=10240, num_connections=2, seed=seed)


def _evil_event(qpn: int, psn: int) -> DataPacketEvent:
    """A 0/negative-indexed event, as corrupted input could craft it.

    The constructor (correctly) rejects these, so build the frozen
    dataclass without running validation — clamping is the layer that
    must cope with events that arrive from outside the constructor.
    """
    event = object.__new__(DataPacketEvent)
    object.__setattr__(event, "qpn", qpn)
    object.__setattr__(event, "psn", psn)
    object.__setattr__(event, "type", "drop")
    object.__setattr__(event, "iter", 1)
    object.__setattr__(event, "delay_us", 0.0)
    return event


class TestNoveltyScore:
    def test_golden_values_fresh_map(self):
        cumulative = CoverageMap()
        rows = [["rdma.gbn", "timeout-retransmit", 3, 100],
                ["switch.pipeline", "ecn-mark", 1, 50]]
        novelty, first_hits = novelty_score(rows, cumulative)
        # Two never-seen points: 2 x first_hit_bonus(2.0) + rarity
        # 1/(1+0) each.
        assert first_hits == 2
        assert novelty == pytest.approx(6.0)

    def test_golden_values_saturating_map(self):
        cumulative = CoverageMap()
        rows = [["rdma.gbn", "timeout-retransmit", 3, 100],
                ["switch.pipeline", "ecn-mark", 1, 50]]
        cumulative.merge_snapshot(rows)
        novelty, first_hits = novelty_score(rows, cumulative)
        # Counts are now 3 and 1: rarity 1/4 + 1/2, no first hits.
        assert first_hits == 0
        assert novelty == pytest.approx(0.75)
        # Custom bonuses scale linearly.
        novelty2, _ = novelty_score(rows, cumulative,
                                    first_hit_bonus=10.0,
                                    rare_hit_bonus=4.0)
        assert novelty2 == pytest.approx(3.0)

    def test_empty_rows_score_zero(self):
        assert novelty_score(None, CoverageMap()) == (0.0, 0)
        assert novelty_score([], CoverageMap()) == (0.0, 0)

    def test_fitness_is_total_plus_novelty(self):
        score = Score(total=2.5)
        assert score.fitness == 2.5
        score.novelty = 1.5
        assert score.fitness == pytest.approx(4.0)


class TestClampLowerBound:
    def test_crafted_zero_index_events_are_dropped(self):
        good = DataPacketEvent(1, 2, "drop")
        traffic = TrafficConfig(
            num_connections=2, message_size=10240,
            data_pkt_events=(_evil_event(0, 5), _evil_event(1, 0), good))
        clamped = clamp_events(traffic)
        assert clamped.data_pkt_events == (good,)

    def test_property_every_clamped_event_is_deliverable(self):
        rng = SimRandom(13, "clamp-property")
        for _ in range(200):
            conns = rng.randint(1, 8)
            size = rng.choice([1024, 4096, 10240])
            msgs = rng.randint(1, 4)
            total = TrafficConfig(num_connections=conns, message_size=size,
                                  num_msgs_per_qp=msgs).packets_per_connection
            # The constructor already rejects psn > total, so the crafted
            # range probes the lower bound (0, -1) plus over-range qpn —
            # exactly the events only clamping can catch.
            events = tuple(
                _evil_event(rng.randint(-1, conns + 2),
                            rng.randint(-1, total))
                for _ in range(rng.randint(1, 6)))
            clamped = clamp_events(
                TrafficConfig(num_connections=conns, message_size=size,
                              num_msgs_per_qp=msgs,
                              data_pkt_events=events))
            for event in clamped.data_pkt_events:
                # Deliverable: the 1-indexed stream really contains
                # this (connection, packet) slot.
                assert 1 <= event.qpn <= conns
                assert 1 <= event.psn <= total


class TestPoolPairing:
    def test_admit_pairs_score_with_config(self):
        fuzzer = LuminaFuzzer(_base(), seed=3)
        marker = TrafficConfig(num_connections=7, message_size=4096)
        fuzzer._admit(marker, 9.5)
        entry = fuzzer._pool[-1]
        assert entry.config == marker
        assert entry.score == 9.5
        # The sorted view is derived from the same entries.
        assert fuzzer._pool_scores == sorted(e.score for e in fuzzer._pool)
        assert fuzzer.pool[-1] == marker

    def test_resumed_and_fresh_agree_on_ownership(self, tmp_path,
                                                  monkeypatch):
        base = _base()
        fresh = LuminaFuzzer(base, seed=7, anomaly_threshold=2.5)
        report_a = fresh.run(iterations=6, batch_size=2,
                             campaign_dir=str(tmp_path / "clean"))

        monkeypatch.setenv("REPRO_CAMPAIGN_CRASH_AFTER_GEN", "1")
        crash = LuminaFuzzer(base, seed=7, anomaly_threshold=2.5)
        with pytest.raises(SystemExit) as exc:
            crash.run(iterations=6, batch_size=2,
                      campaign_dir=str(tmp_path / "crash"))
        assert exc.value.code == 3
        monkeypatch.delenv("REPRO_CAMPAIGN_CRASH_AFTER_GEN")

        resumed = LuminaFuzzer(base, seed=7, anomaly_threshold=2.5)
        report_b = resumed.run(iterations=6, batch_size=2,
                               campaign_dir=str(tmp_path / "crash"))
        # The regression: both campaigns must agree on which config
        # owns which score, not just on the sorted score multiset.
        assert [(e.config, e.score, e.points) for e in resumed._pool] == \
            [(e.config, e.score, e.points) for e in fresh._pool]
        assert encode_fuzz_report(report_a) == encode_fuzz_report(report_b)


class TestCheckpointCoverage:
    def test_state_dict_emits_map_only_under_session_or_hits(self):
        fuzzer = LuminaFuzzer(_base(), seed=3)
        assert "coverage-map" not in fuzzer.state_dict()
        observe.enable(metrics=False)
        # Zero points hit, but the session is live: the checkpoint must
        # say so, or resume can't tell coverage-on from coverage-off.
        assert fuzzer.state_dict()["coverage-map"] == []
        fuzzer._coverage.hit("rdma.gbn", "x")
        assert len(fuzzer.state_dict()["coverage-map"]) == 1
        observe.disable()
        # A folded map survives even without a live session.
        assert len(fuzzer.state_dict()["coverage-map"]) == 1

    def test_zero_coverage_checkpoint_resumes_identically(
            self, tmp_path, monkeypatch):
        # A run_fn that yields no coverage keeps the campaign map empty
        # forever; crash-resume must still reproduce the clean run.
        # (Run outside the session so the result carries no snapshot.)
        baseline = run_test(quick_config(nic="cx5", num_msgs=1,
                                         message_size=2048))
        assert baseline.coverage is None

        def run_fn(config):
            return baseline

        def campaign(directory):
            observe.enable(metrics=False)
            try:
                fuzzer = LuminaFuzzer(_base(nic="cx5"), seed=5,
                                      run_fn=run_fn)
                return fuzzer.run(iterations=4, batch_size=2,
                                  campaign_dir=directory)
            finally:
                observe.disable()

        report_a = campaign(str(tmp_path / "clean"))
        monkeypatch.setenv("REPRO_CAMPAIGN_CRASH_AFTER_GEN", "1")
        with pytest.raises(SystemExit):
            campaign(str(tmp_path / "crash"))
        monkeypatch.delenv("REPRO_CAMPAIGN_CRASH_AFTER_GEN")

        records = CampaignJournal(
            os.path.join(str(tmp_path / "crash"), "journal.jsonl")).load()
        checkpoint = [r for r in records if r.get("type") == "generation"]
        assert checkpoint[-1]["state"]["coverage-map"] == []

        report_b = campaign(str(tmp_path / "crash"))
        assert encode_fuzz_report(report_a) == encode_fuzz_report(report_b)

    def test_crash_knob_zero_dies_after_begin_then_resumes(
            self, tmp_path, monkeypatch):
        base = _base()
        report_a = LuminaFuzzer(base, seed=7, anomaly_threshold=2.5).run(
            iterations=4, batch_size=2,
            campaign_dir=str(tmp_path / "clean"))

        monkeypatch.setenv("REPRO_CAMPAIGN_CRASH_AFTER_GEN", "0")
        with pytest.raises(SystemExit) as exc:
            LuminaFuzzer(base, seed=7, anomaly_threshold=2.5).run(
                iterations=4, batch_size=2,
                campaign_dir=str(tmp_path / "crash"))
        assert exc.value.code == 3
        monkeypatch.delenv("REPRO_CAMPAIGN_CRASH_AFTER_GEN")
        records = CampaignJournal(
            os.path.join(str(tmp_path / "crash"), "journal.jsonl")).load()
        assert [r["type"] for r in records] == ["begin"]

        report_b = LuminaFuzzer(base, seed=7, anomaly_threshold=2.5).run(
            iterations=4, batch_size=2,
            campaign_dir=str(tmp_path / "crash"))
        assert encode_fuzz_report(report_a) == encode_fuzz_report(report_b)


class TestGuidedSelection:
    def _high_median_fuzzer(self, run_fn):
        """A fuzzer whose pool median (100.0) no clean run can clear."""
        fuzzer = LuminaFuzzer(_base(nic="cx5"), seed=5, run_fn=run_fn,
                              keep_probability=0.0)
        anchor = fuzzer._pool[0].config
        fuzzer._pool = []
        fuzzer._pool_scores = []
        fuzzer._admit(anchor, 100.0)
        fuzzer._admit(anchor, 100.0)
        return fuzzer

    @staticmethod
    def _fresh_point_run_fn():
        baseline = run_test(quick_config(nic="cx5", num_msgs=1,
                                         message_size=2048))
        calls = {"n": 0}

        def run_fn(config):
            calls["n"] += 1
            observe.current().live.hit("test.domain", f"p{calls['n']}")
            return baseline

        return run_fn

    def test_first_hit_admission_overrides_score(self):
        run_fn = self._fresh_point_run_fn()
        observe.enable(metrics=False)
        fuzzer = self._high_median_fuzzer(run_fn)
        # Each candidate scores ~0 + a small novelty bonus — far below
        # the median, keep-probability is 0 — yet reaches a
        # never-before-seen point, so the first-hit clause must admit
        # every one.
        fuzzer.run(iterations=3, batch_size=1)
        assert len(fuzzer._pool) == 2 + 3
        assert all(e.points for e in fuzzer._pool[2:])

    def test_blind_mode_ignores_first_hits(self):
        run_fn = self._fresh_point_run_fn()
        observe.enable(metrics=False)
        fuzzer = self._high_median_fuzzer(run_fn)
        fuzzer.run(iterations=3, batch_size=1, coverage_fitness=False)
        assert len(fuzzer._pool) == 2

    def test_minimization_evicts_dominated_and_bounds_pool(self):
        fuzzer = LuminaFuzzer(_base(), seed=3, max_pool_size=3)
        seed_entries = list(fuzzer._pool)
        fuzzer._pool = []
        fuzzer._pool_scores = []
        a, b, c = (seed_entries[0].config,) * 3
        fuzzer._admit(a, 5.0, (("d", "x"), ("d", "y")))
        fuzzer._admit(b, 2.0, (("d", "x"),))          # subset of the 5.0 entry
        fuzzer._admit(c, 3.0, (("d", "z"),))          # unique point: survives
        fuzzer._admit(a, 1.0, ())                     # empty: dominance-exempt
        evicted = fuzzer._minimize_pool()
        assert evicted == 1
        assert [(e.score, e.points) for e in fuzzer._pool] == [
            (5.0, (("d", "x"), ("d", "y"))),
            (3.0, (("d", "z"),)),
            (1.0, ()),
        ]
        assert fuzzer._pool_scores == [1.0, 3.0, 5.0]

    def test_eviction_determinism_across_replay(self, tmp_path):
        # Two campaigns over the same store: the second replays every
        # candidate (worker-free execution) and must evolve the exact
        # same minimized pool and report — the store-replay twin of the
        # workers-parity guarantee.
        def campaign(directory):
            observe.enable(metrics=False)
            try:
                fuzzer = LuminaFuzzer(_base(), seed=7,
                                      anomaly_threshold=2.5,
                                      max_pool_size=3)
                report = fuzzer.run(iterations=8, batch_size=4,
                                    campaign_dir=directory)
                return fuzzer, report
            finally:
                observe.disable()

        shared = str(tmp_path / "campaign")
        fuzzer_a, report_a = campaign(shared)
        os.remove(os.path.join(shared, "journal.jsonl"))
        fuzzer_b, report_b = campaign(shared)
        assert encode_fuzz_report(report_a) == encode_fuzz_report(report_b)
        assert [(e.config, e.score, e.points) for e in fuzzer_a._pool] == \
            [(e.config, e.score, e.points) for e in fuzzer_b._pool]
        assert report_b.pool_evictions == report_a.pool_evictions

    def test_rediscoveries_collapse_into_one_finding(self, monkeypatch):
        # Identity mutation + an always-anomalous run that hits the same
        # coverage point: every iteration reproduces one bug. Guided
        # mode must journal it once and count the rediscoveries.
        import repro.core.fuzz.fuzzer as fuzzer_mod

        monkeypatch.setattr(fuzzer_mod, "mutate",
                            lambda gamma, rng, rounds=1: gamma)
        baseline = run_test(quick_config(nic="cx5", num_msgs=1,
                                         message_size=2048))

        def run_fn(config):
            observe.current().live.hit("test.domain", "same-bug")
            return baseline

        observe.enable(metrics=False)
        fuzzer = LuminaFuzzer(_base(nic="cx5"), seed=5, run_fn=run_fn,
                              anomaly_threshold=-1.0,
                              initial_pool=[_base(nic="cx5").traffic])
        seeds_before = fuzzer._next_seed
        report = fuzzer.run(iterations=3, batch_size=1)
        assert len(report.findings) == 1
        assert report.findings[0].count == 3
        assert report.rediscoveries == 2
        assert " x3" in report.findings[0].summary()
        # Rediscoveries never mint a fresh run seed: 3 candidate seeds
        # plus exactly one finding seed (not three).
        assert fuzzer._next_seed == seeds_before + 3 + 1

    def test_dedup_key_stable_across_store_replay(self, tmp_path):
        def campaign(directory):
            observe.enable(metrics=False)
            try:
                fuzzer = LuminaFuzzer(_base(), seed=1,
                                      anomaly_threshold=2.5)
                report = fuzzer.run(iterations=8, batch_size=4,
                                    campaign_dir=directory)
                return sorted(fuzzer._findings_by_key), report
            finally:
                observe.disable()

        shared = str(tmp_path / "campaign")
        keys_a, report_a = campaign(shared)
        os.remove(os.path.join(shared, "journal.jsonl"))
        keys_b, report_b = campaign(shared)
        assert keys_a == keys_b
        assert report_a.rediscoveries == report_b.rediscoveries
        assert [f.count for f in report_a.findings] == \
            [f.count for f in report_b.findings]

    def test_novelty_never_persisted_to_store_entries(self, tmp_path):
        from repro.store import CampaignStore

        observe.enable(metrics=False)
        try:
            fuzzer = LuminaFuzzer(_base(), seed=1, anomaly_threshold=2.5)
            report = fuzzer.run(iterations=8, batch_size=4,
                                campaign_dir=str(tmp_path / "campaign"))
        finally:
            observe.disable()
        # Selection assigned novelty to at least one journaled finding…
        assert any(f.score.novelty for f in report.findings)
        # …but every cached candidate score stays campaign-neutral.
        store = CampaignStore(str(tmp_path / "campaign" / "store"))
        fps = list(store.fingerprints("score"))
        assert fps
        for fp in fps:
            assert "novelty" not in store.get(fp)

    def test_guided_differs_from_blind_but_both_deterministic(self):
        def run(guided):
            observe.enable(metrics=False)
            try:
                fuzzer = LuminaFuzzer(_base(), seed=7,
                                      anomaly_threshold=2.5)
                report = fuzzer.run(iterations=6, batch_size=2,
                                    coverage_fitness=guided)
                return encode_fuzz_report(report)
            finally:
                observe.disable()

        guided = run(True)
        blind = run(False)
        assert guided == run(True)
        assert blind == run(False)
        # The modes really select differently: guided pool scores carry
        # the novelty bonus.
        assert guided != blind


class TestCliSession:
    def test_coverage_fitness_without_observe_runs_guided_metrics_off(
            self, tmp_path, monkeypatch, capsys):
        # `fuzz --coverage-fitness` with no --observe directory must run
        # guided on an in-memory, coverage-only session: the fitness
        # signal is on, the metrics facet (and its SimProbe) is not.
        from repro.__main__ import main
        from repro.core import orchestrator
        from repro.core.fuzz import fuzzer as fuzzer_mod

        attached = []
        monkeypatch.setattr(orchestrator, "attach_testbed",
                            lambda testbed, session: attached.append(testbed))
        facets = []
        novelty = fuzzer_mod.novelty_score

        def spy(*args, **kwargs):
            live = observe.active()
            facets.append(live is not None and live.metrics)
            return novelty(*args, **kwargs)

        monkeypatch.setattr(fuzzer_mod, "novelty_score", spy)
        monkeypatch.chdir(tmp_path)
        status = main(["fuzz", "--target", "counter-bugs", "--nic", "e810",
                       "-n", "2", "--batch", "2", "--coverage-fitness"])
        assert status in (0, 2)
        assert facets and not any(facets)
        assert attached == []
        assert "coverage growth:" in capsys.readouterr().out
        assert observe.active() is None
        assert os.listdir(tmp_path) == []  # in-memory: nothing exported
