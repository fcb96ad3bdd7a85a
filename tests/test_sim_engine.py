"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim.engine import SimulationError, US, MS, SEC


class TestScheduling:
    def test_initial_time_is_zero(self, sim):
        assert sim.now == 0

    def test_callback_runs_at_scheduled_time(self, sim):
        seen = []
        sim.schedule(100, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [100]

    def test_arguments_are_passed(self, sim):
        seen = []
        sim.schedule(5, seen.append, "value")
        sim.run()
        assert seen == ["value"]

    def test_events_fire_in_time_order(self, sim):
        order = []
        sim.schedule(300, order.append, "c")
        sim.schedule(100, order.append, "a")
        sim.schedule(200, order.append, "b")
        sim.run()
        assert order == ["a", "b", "c"]

    def test_same_tick_events_fire_fifo(self, sim):
        order = []
        for tag in range(10):
            sim.schedule(50, order.append, tag)
        sim.run()
        assert order == list(range(10))

    def test_zero_delay_runs_after_current_tick_events(self, sim):
        order = []

        def outer():
            sim.schedule(0, order.append, "inner")
            order.append("outer")

        sim.schedule(10, outer)
        sim.schedule(10, order.append, "sibling")
        sim.run()
        assert order == ["outer", "sibling", "inner"]

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule(-1, lambda: None)

    def test_schedule_at_absolute_time(self, sim):
        seen = []
        sim.schedule_at(400, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [400]

    def test_schedule_at_in_the_past_rejected(self, sim):
        sim.schedule(100, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(50, lambda: None)

    def test_nested_scheduling(self, sim):
        seen = []

        def chain(depth):
            seen.append(sim.now)
            if depth:
                sim.schedule(10, chain, depth - 1)

        sim.schedule(0, chain, 3)
        sim.run()
        assert seen == [0, 10, 20, 30]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self, sim):
        seen = []
        event = sim.schedule(10, seen.append, "x")
        event.cancel()
        sim.run()
        assert seen == []

    def test_cancel_is_idempotent(self, sim):
        event = sim.schedule(10, lambda: None)
        event.cancel()
        event.cancel()
        sim.run()

    def test_cancel_one_of_many(self, sim):
        seen = []
        keep = sim.schedule(10, seen.append, "keep")
        kill = sim.schedule(10, seen.append, "kill")
        kill.cancel()
        sim.run()
        assert seen == ["keep"]
        assert not keep.cancelled

    def test_pending_excludes_cancelled(self, sim):
        sim.schedule(10, lambda: None)
        event = sim.schedule(20, lambda: None)
        event.cancel()
        assert sim.pending == 1

    def test_heap_compacts_when_cancelled_dominate(self, sim):
        events = [sim.schedule(1000 + i, lambda: None) for i in range(100)]
        assert sim.queue_size == 100
        for event in events[:60]:
            event.cancel()
        # Once cancelled entries outnumbered live ones the heap was
        # compacted (at the 51st cancel), shedding the dead entries.
        assert sim.pending == 40
        assert sim.queue_size < 60
        assert sim.queue_size >= sim.pending

    def test_small_queues_are_never_compacted(self, sim):
        events = [sim.schedule(10 + i, lambda: None) for i in range(10)]
        for event in events:
            event.cancel()
        assert sim.queue_size == 10  # below the compaction floor
        assert sim.pending == 0
        sim.run()
        assert sim.events_processed == 0

    def test_compaction_preserves_order_and_results(self, sim):
        seen = []
        events = [sim.schedule(100 + i, seen.append, i) for i in range(200)]
        for event in events[::2]:  # cancel every other event
            event.cancel()
        sim.run()
        assert seen == list(range(1, 200, 2))

    def test_cancel_after_fire_keeps_accounting_sane(self, sim):
        event = sim.schedule(10, lambda: None)
        survivor = sim.schedule(20, lambda: None)
        sim.run(until=15)
        event.cancel()  # already fired: must not corrupt live count
        assert sim.pending == 1
        sim.run()
        assert sim.events_processed == 2
        del survivor


class TestRunControl:
    def test_run_until_stops_before_later_events(self, sim):
        seen = []
        sim.schedule(100, seen.append, "early")
        sim.schedule(5000, seen.append, "late")
        sim.run(until=1000)
        assert seen == ["early"]
        assert sim.now == 1000

    def test_run_until_advances_clock_even_when_queue_drains(self, sim):
        sim.run(until=777)
        assert sim.now == 777

    def test_remaining_events_fire_on_next_run(self, sim):
        seen = []
        sim.schedule(100, seen.append, 1)
        sim.schedule(5000, seen.append, 2)
        sim.run(until=1000)
        sim.run()
        assert seen == [1, 2]

    def test_run_for_relative_duration(self, sim):
        sim.schedule(100, lambda: None)
        sim.run(until=200)
        sim.run_for(300)
        assert sim.now == 500

    def test_max_events_budget(self, sim):
        seen = []
        for i in range(10):
            sim.schedule(i, seen.append, i)
        sim.run(max_events=4)
        assert seen == [0, 1, 2, 3]

    def test_events_processed_counter(self, sim):
        for i in range(5):
            sim.schedule(i, lambda: None)
        sim.run()
        assert sim.events_processed == 5

    def test_not_reentrant(self, sim):
        def recurse():
            with pytest.raises(SimulationError):
                sim.run()

        sim.schedule(1, recurse)
        sim.run()

    def test_reset_clears_queue_and_clock(self, sim):
        seen = []
        sim.schedule(10, seen.append, "x")
        sim.run(until=5)
        sim.reset()
        assert sim.now == 0
        sim.run()
        assert seen == []

    def test_reset_restarts_tiebreak_sequence(self, sim):
        """A reset simulator reproduces a fresh one's same-tick ordering."""
        def same_tick_order():
            order = []
            for tag in range(5):
                sim.schedule(50, order.append, tag)
            sim.run()
            return order

        first = same_tick_order()
        sim.reset()
        assert same_tick_order() == first == list(range(5))

    def test_reset_detaches_queued_events(self, sim):
        stale = sim.schedule(10, lambda: None)
        sim.reset()
        fresh = sim.schedule(10, lambda: None)
        stale.cancel()  # pre-reset event: must not touch the new counts
        assert sim.pending == 1
        del fresh


class TestTimeConstants:
    def test_unit_relationships(self):
        assert US == 1_000
        assert MS == 1_000 * US
        assert SEC == 1_000 * MS
