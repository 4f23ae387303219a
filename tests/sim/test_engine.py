"""Unit tests for the discrete-event engine."""

import pytest
from hypothesis import given, strategies as st

from repro.sim import Engine


class TestScheduling:
    def test_events_fire_in_time_order(self):
        engine = Engine()
        fired = []
        engine.schedule(30, fired.append, "c")
        engine.schedule(10, fired.append, "a")
        engine.schedule(20, fired.append, "b")
        engine.run()
        assert fired == ["a", "b", "c"]

    def test_ties_broken_by_insertion_order(self):
        engine = Engine()
        fired = []
        for tag in "abc":
            engine.schedule(5, fired.append, tag)
        engine.run()
        assert fired == ["a", "b", "c"]

    def test_now_advances_to_event_time(self):
        engine = Engine()
        seen = []
        engine.schedule(12.5, lambda: seen.append(engine.now))
        engine.run()
        assert seen == [12.5]
        assert engine.now == 12.5

    def test_schedule_in_past_rejected(self):
        engine = Engine()
        engine.run_until(100)
        with pytest.raises(ValueError):
            engine.schedule(-1, lambda: None)
        with pytest.raises(ValueError):
            engine.schedule_at(50, lambda: None)

    def test_events_scheduled_during_run(self):
        engine = Engine()
        fired = []

        def chain(n):
            fired.append(n)
            if n < 3:
                engine.schedule(10, chain, n + 1)

        engine.schedule(0, chain, 1)
        engine.run()
        assert fired == [1, 2, 3]
        assert engine.now == 20

    def test_cancelled_events_do_not_fire(self):
        engine = Engine()
        fired = []
        event = engine.schedule(10, fired.append, "x")
        engine.schedule(5, fired.append, "y")
        event.cancel()
        engine.run()
        assert fired == ["y"]


class TestRunModes:
    def test_run_until_stops_at_boundary(self):
        engine = Engine()
        fired = []
        engine.schedule(10, fired.append, "early")
        engine.schedule(30, fired.append, "late")
        engine.run_until(20)
        assert fired == ["early"]
        assert engine.now == 20
        engine.run_until(40)
        assert fired == ["early", "late"]

    def test_run_until_inclusive_of_boundary_events(self):
        engine = Engine()
        fired = []
        engine.schedule(20, fired.append, "edge")
        engine.run_until(20)
        assert fired == ["edge"]

    def test_run_max_events(self):
        engine = Engine()
        for i in range(10):
            engine.schedule(i, lambda: None)
        assert engine.run(max_events=4) == 4
        assert engine.pending() == 6

    def test_step_returns_false_when_drained(self):
        engine = Engine()
        assert not engine.step()
        engine.schedule(1, lambda: None)
        assert engine.step()
        assert not engine.step()

    def test_peek_next_time_skips_cancelled(self):
        engine = Engine()
        event = engine.schedule(5, lambda: None)
        engine.schedule(9, lambda: None)
        event.cancel()
        assert engine.peek_next_time() == 9

    def test_pending_counts_live_events(self):
        engine = Engine()
        keep = engine.schedule(1, lambda: None)
        drop = engine.schedule(2, lambda: None)
        drop.cancel()
        assert engine.pending() == 1
        assert keep is not None


@given(st.lists(st.floats(min_value=0, max_value=1e6), max_size=40))
def test_events_always_fire_in_nondecreasing_time(delays):
    engine = Engine()
    times = []
    for delay in delays:
        engine.schedule(delay, lambda: times.append(engine.now))
    engine.run()
    assert times == sorted(times)
    assert len(times) == len(delays)


def test_handle_free_and_cancellable_events_share_one_order():
    engine = Engine()
    fired = []
    engine.call_at(5, fired.append, "a")
    engine.schedule_at(5, fired.append, "b")
    engine.call_at(5, fired.append, "c")
    engine.schedule_at(5, fired.append, "d").cancel()
    engine.call_at(2, fired.append, "first")
    assert engine.pending() == 4
    engine.run()
    assert fired == ["first", "a", "b", "c"]
    assert engine.events_processed == 4

