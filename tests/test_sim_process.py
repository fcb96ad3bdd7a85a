"""Unit tests for coroutine-style processes."""

import pytest

from repro.sim.process import Signal, Timeout, all_of, spawn


class TestTimeout:
    def test_process_resumes_after_timeout(self, sim):
        log = []

        def proc():
            log.append(sim.now)
            yield Timeout(250)
            log.append(sim.now)

        spawn(sim, proc())
        sim.run()
        assert log == [0, 250]

    def test_zero_timeout_allowed(self, sim):
        def proc():
            yield Timeout(0)
            return "done"

        handle = spawn(sim, proc())
        sim.run()
        assert handle.result == "done"

    def test_negative_timeout_rejected(self):
        with pytest.raises(ValueError):
            Timeout(-5)

    def test_sequential_timeouts_accumulate(self, sim):
        times = []

        def proc():
            for _ in range(3):
                yield Timeout(100)
                times.append(sim.now)

        spawn(sim, proc())
        sim.run()
        assert times == [100, 200, 300]


class TestSignal:
    def test_waiters_resume_with_value(self, sim):
        results = []

        def waiter(signal):
            value = yield signal
            results.append(value)

        signal = Signal(sim)
        spawn(sim, waiter(signal))
        spawn(sim, waiter(signal))
        sim.schedule(50, signal.fire, "payload")
        sim.run()
        assert results == ["payload", "payload"]

    def test_wait_on_already_fired_signal_completes_immediately(self, sim):
        signal = Signal(sim)
        signal.fire(42)
        results = []

        def waiter():
            value = yield signal
            results.append((sim.now, value))

        spawn(sim, waiter())
        sim.run()
        assert results == [(0, 42)]

    def test_second_fire_is_ignored(self, sim):
        signal = Signal(sim)
        signal.fire("first")
        signal.fire("second")
        assert signal.value == "first"

    def test_fired_flag(self, sim):
        signal = Signal(sim)
        assert not signal.fired
        signal.fire()
        assert signal.fired


class TestProcessComposition:
    def test_process_waits_for_subprocess_result(self, sim):
        def child():
            yield Timeout(100)
            return "child-result"

        outcomes = []

        def parent():
            value = yield spawn(sim, child())
            outcomes.append((sim.now, value))

        spawn(sim, parent())
        sim.run()
        assert outcomes == [(100, "child-result")]

    def test_completion_signal_carries_result(self, sim):
        def proc():
            yield Timeout(10)
            return 99

        handle = spawn(sim, proc())
        sim.run()
        assert handle.done
        assert handle.completion.fired
        assert handle.completion.value == 99

    def test_invalid_yield_raises(self, sim):
        def proc():
            yield "not-a-waitable"

        spawn(sim, proc())
        with pytest.raises(TypeError):
            sim.run()

    def test_all_of_barrier(self, sim):
        def worker(delay, tag):
            yield Timeout(delay)
            return tag

        procs = [spawn(sim, worker(d, t)) for d, t in ((300, "a"), (100, "b"))]
        barrier = all_of(sim, procs)
        finished = []

        def waiter():
            results = yield barrier
            finished.append((sim.now, results))

        spawn(sim, waiter())
        sim.run()
        assert finished == [(300, ["a", "b"])]

    def test_all_of_empty_fires_immediately(self, sim):
        barrier = all_of(sim, [])
        sim.run()
        assert barrier.fired
        assert barrier.value == []
