"""Tests for the process-pool campaign runner (repro.exec)."""

import os
import time

import pytest

from repro import observe
from repro.exec import ParallelRunner
from repro.exec import runner as runner_mod
from repro.exec.tasks import (
    crash_in_worker_task,
    echo_task,
    pid_sleep_task,
    sleep_task,
    telemetry_probe_task,
)


@pytest.fixture(autouse=True)
def _no_leaked_session():
    observe.disable()
    yield
    observe.disable()


def _double(payload):
    # Serial-path-only task: workers=1 never pickles task_fn, so a
    # test-module function is fine here (pool tasks live in exec.tasks).
    return payload * 2


def _explode(payload):
    raise ValueError(f"bad payload {payload}")


def _double_or_explode(payload):
    return _explode(payload) if payload < 0 else _double(payload)


class TestSerialPath:
    def test_workers_one_runs_in_process(self):
        with ParallelRunner(_double, workers=1) as runner:
            outcomes = runner.map([1, 2, 3])
        assert [o.value for o in outcomes] == [2, 4, 6]
        assert all(o.ok and o.ran_in_process for o in outcomes)
        assert [o.index for o in outcomes] == [0, 1, 2]
        assert runner.stats.pools_created == 0
        assert runner.stats.in_process_runs == 3

    def test_task_error_is_an_outcome_not_an_exception(self):
        with ParallelRunner(_explode, workers=1) as runner:
            outcomes = runner.map(["x"])
        assert not outcomes[0].ok
        assert "ValueError" in outcomes[0].error
        assert runner.stats.tasks_failed == 1

    def test_empty_map(self):
        with ParallelRunner(_double, workers=1) as runner:
            assert runner.map([]) == []

    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError):
            ParallelRunner(_double, workers=0)


class TestCachedFanOut:
    def _store(self, tmp_path):
        from repro.store import CampaignStore

        return CampaignStore(str(tmp_path / "store"))

    def test_hits_replay_and_only_ok_misses_are_written_back(self,
                                                             tmp_path):
        store = self._store(tmp_path)
        store.put("k0", "test", {"v": 10})
        with ParallelRunner(_double_or_explode, workers=1) as runner:
            outcomes = runner.map_cached(
                [1, 2, -1], ["k0", "k1", "k2"], store, "test",
                encode=lambda value: {"v": value},
                decode=lambda doc: doc["v"])
        assert [(o.index, o.ok, o.cached) for o in outcomes] == \
            [(0, True, True), (1, True, False), (2, False, False)]
        assert [o.value for o in outcomes[:2]] == [10, 4]
        assert runner.stats.in_process_runs == 2
        assert store.get("k1") == {"v": 4}
        assert store.get("k2") is None  # failures are never cached

    def test_in_process_fn_replaces_task_fn_in_process(self):
        with ParallelRunner(echo_task, workers=1,
                            in_process_fn=_double) as runner:
            outcomes = runner.map_cached([3])
        assert outcomes[0].value == 6 and outcomes[0].ran_in_process

    def test_failure_keeps_the_original_exception(self):
        with ParallelRunner(_explode, workers=1) as runner:
            outcome, = runner.map_cached(["x"])
        assert isinstance(outcome.exception, ValueError)

    def test_replayed_coverage_folds_in_process_does_not(self, tmp_path):
        store = self._store(tmp_path)
        row = ["rdma.gbn", "gap-nak", 1, 5]
        store.put("k0", "test", {"coverage": [row]})
        session = observe.enable(metrics=False)
        with ParallelRunner(echo_task, workers=1) as runner:
            runner.map_cached([{"coverage": [row]}, {"coverage": [row]}],
                              ["k0", "k1"], store, "test")
        # The replayed unit folds here; the in-process one would have
        # folded its own scope, so its carried copy is not folded again.
        assert session.total_snapshot() == [row]


class TestPoolPath:
    def test_results_keep_payload_order(self):
        payloads = list(range(7))
        with ParallelRunner(echo_task, workers=2) as runner:
            outcomes = runner.map(payloads)
        assert [o.value for o in outcomes] == payloads
        assert all(o.ok and not o.ran_in_process for o in outcomes)
        assert runner.stats.pools_created == 1

    def test_pool_reused_across_map_calls(self):
        with ParallelRunner(echo_task, workers=2) as runner:
            runner.map([1, 2])
            runner.map([3, 4])
        assert runner.stats.pools_created == 1
        assert runner.stats.tasks_completed == 4

    def test_task_exception_in_worker_reported_not_raised(self):
        # float("oops") raises inside the worker; the pool survives.
        with ParallelRunner(sleep_task, workers=2) as runner:
            outcomes = runner.map([{"seconds": "oops"}, {"seconds": 0.01}])
        assert not outcomes[0].ok
        assert "ValueError" in outcomes[0].error
        assert outcomes[1].ok and outcomes[1].value == 0.01


class TestFailureRecovery:
    def test_worker_crash_retries_then_falls_back_in_process(self):
        # The task kills its pool worker every time, so every payload
        # must eventually complete on the in-process fallback path —
        # the campaign loses no work to a dying pool.
        with ParallelRunner(crash_in_worker_task, workers=2,
                            max_retries=2) as runner:
            outcomes = runner.map([10, 20, 30])
        assert [o.value for o in outcomes] == [10, 20, 30]
        assert all(o.ok for o in outcomes)
        assert any(o.ran_in_process for o in outcomes)
        assert runner.stats.worker_crashes >= 1

    def test_timeout_abandons_task_and_completes_the_rest(self):
        # Generous timeout: result(timeout=...) also covers the fresh
        # pool's spawn cold-start for the re-pended task.
        with ParallelRunner(sleep_task, workers=2,
                            task_timeout_s=2.0) as runner:
            outcomes = runner.map([{"seconds": 30.0}, {"seconds": 0.01}])
        assert not outcomes[0].ok
        assert "timed out" in outcomes[0].error
        assert outcomes[1].ok and outcomes[1].value == 0.01
        assert runner.stats.timeouts == 1

    def test_timed_out_worker_is_stopped(self, tmp_path):
        pid_path = tmp_path / "worker.pid"
        with ParallelRunner(pid_sleep_task, workers=2,
                            task_timeout_s=2.0) as runner:
            outcome, = runner.map([{"seconds": 30.0,
                                    "pid_path": str(pid_path)}])
            assert "timed out" in outcome.error
            assert process_gone(int(pid_path.read_text()), timeout_s=5.0)

    def test_pool_creation_failure_degrades_to_serial(self, monkeypatch):
        def no_pools(*args, **kwargs):
            raise OSError("no process pools on this platform")

        monkeypatch.setattr(runner_mod.procs, "context", no_pools)
        with ParallelRunner(echo_task, workers=4) as runner:
            outcomes = runner.map([1, 2, 3])
        assert [o.value for o in outcomes] == [1, 2, 3]
        assert all(o.ok and o.ran_in_process for o in outcomes)
        assert runner.stats.pools_created == 0


class TestTelemetryMerge:
    def test_worker_metrics_merge_into_parent_session(self):
        session = observe.enable()
        try:
            with ParallelRunner(telemetry_probe_task, workers=2) as runner:
                outcomes = runner.map([{"n": 2}, {"n": 3}, {"n": 5}])
            assert all(o.ok for o in outcomes)
            counter = session.registry.find("exec_probe_events")
            assert counter is not None and counter.value == 10
        finally:
            observe.disable()

    def test_serial_path_updates_parent_registry_directly(self):
        session = observe.enable()
        try:
            with ParallelRunner(telemetry_probe_task, workers=1) as runner:
                runner.map([{"n": 4}])
            counter = session.registry.find("exec_probe_events")
            assert counter is not None and counter.value == 4
        finally:
            observe.disable()

    def test_metrics_off_session_ships_no_snapshot(self):
        session = observe.enable(metrics=False)
        try:
            with ParallelRunner(telemetry_probe_task, workers=2) as runner:
                outcomes = runner.map([{"n": 2}, {"n": 3}])
            assert all(o.ok for o in outcomes)
            assert len(session.registry) == 0
        finally:
            observe.disable()

    def test_no_session_no_collection(self):
        with ParallelRunner(telemetry_probe_task, workers=2) as runner:
            outcomes = runner.map([{"n": 1}])
        assert outcomes[0].ok
        assert observe.active() is None


def process_gone(pid: int, timeout_s: float) -> bool:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return True
        time.sleep(0.05)
    return False
