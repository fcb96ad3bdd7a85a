"""Eager spawn-picklability validation in ParallelRunner.

A non-picklable payload used to surface as an opaque worker crash
followed by retries; now the runner rejects it before any submission,
naming the offending field.
"""

import threading

import pytest

from repro.exec import ParallelRunner, UnpicklableTaskError
from repro.exec.runner import _unpicklable_path
from repro.exec.tasks import echo_task


def _module_task(payload):
    return payload


class TestTaskFnValidation:
    def test_lambda_rejected_at_construction_with_pool(self):
        with pytest.raises(UnpicklableTaskError) as exc_info:
            ParallelRunner(lambda p: p, workers=2)
        assert "task_fn" in str(exc_info.value)
        assert "module-level" in str(exc_info.value)

    def test_lambda_fine_for_serial_runner(self):
        # repro-lint: ignore[EXEC001] — workers=1 never crosses a
        # process boundary; the in-process path may take any callable.
        with ParallelRunner(lambda p: p + 1, workers=1) as runner:
            assert runner.map([1])[0].value == 2

    def test_module_function_accepted(self):
        with ParallelRunner(_module_task, workers=2) as runner:
            assert runner.workers == 2


class TestPayloadValidation:
    def test_unpicklable_payload_rejected_before_submission(self):
        lock = threading.Lock()  # locks cannot cross a spawn boundary
        with ParallelRunner(echo_task, workers=2) as runner:
            with pytest.raises(UnpicklableTaskError) as exc_info:
                runner.map([{"n": 1}, {"n": 2, "guard": lock}])
        message = str(exc_info.value)
        assert "payloads[1]['guard']" in message
        # Nothing ran: the campaign failed fast, not after a crash.
        assert runner.stats.tasks_completed == 0
        assert runner.stats.worker_crashes == 0

    def test_offending_field_named_in_nested_structures(self):
        lock = threading.Lock()
        path, reason = _unpicklable_path(
            {"config": {"inner": [1, {"cb": lock}]}}, "payloads[0]")
        assert path == "payloads[0]['config']['inner'][1]['cb']"
        assert "TypeError" in reason or "cannot" in reason.lower()

    def test_dataclass_field_named(self):
        import dataclasses

        @dataclasses.dataclass
        class Payload:
            name: str
            guard: object

        path, _reason = _unpicklable_path(
            Payload(name="x", guard=threading.Lock()), "payloads[3]")
        assert path == "payloads[3].guard"

    def test_picklable_payloads_pass(self):
        assert _unpicklable_path({"config": [1, 2], "w": (3,)},
                                 "payloads[0]") is None

    def test_serial_runner_skips_validation(self):
        # workers=1 never pickles, so "unpicklable" payloads are legal.
        lock = threading.Lock()
        with ParallelRunner(_module_task, workers=1) as runner:
            outcome = runner.map([{"guard": lock}])[0]
        assert outcome.ok and outcome.value["guard"] is lock

    def test_dead_pool_fallback_skips_validation(self, monkeypatch):
        # Once the pool is unusable the campaign runs in-process, where
        # picklability is irrelevant — late validation would lose work.
        from repro.exec import procs

        def boom(*args, **kwargs):
            raise OSError("no semaphores on this platform")

        monkeypatch.setattr(procs, "context", boom)
        with ParallelRunner(_module_task, workers=2) as runner:
            runner.map([{"ok": 1}])  # kills the pool path
            assert runner._pool_dead
            outcome = runner.map([{"guard": threading.Lock()}])[0]
        assert outcome.ok
