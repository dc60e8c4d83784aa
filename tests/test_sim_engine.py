"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim import MS, SECOND, Simulator, Timer


def test_time_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0


def test_events_fire_in_time_order():
    sim = Simulator()
    fired = []
    sim.schedule(30, lambda: fired.append("c"))
    sim.schedule(10, lambda: fired.append("a"))
    sim.schedule(20, lambda: fired.append("b"))
    sim.run()
    assert fired == ["a", "b", "c"]


def test_same_time_events_fire_fifo():
    sim = Simulator()
    fired = []
    for name in "abcde":
        sim.schedule(100, lambda n=name: fired.append(n))
    sim.run()
    assert fired == list("abcde")


def test_clock_advances_to_event_time():
    sim = Simulator()
    seen = []
    sim.schedule(250, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [250]
    assert sim.now == 250


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.schedule(-1, lambda: None)


def test_schedule_at_in_past_rejected():
    sim = Simulator()
    sim.schedule(100, lambda: None)
    sim.run()
    with pytest.raises(ValueError):
        sim.schedule_at(50, lambda: None)


def test_run_until_stops_clock_at_bound():
    sim = Simulator()
    fired = []
    sim.schedule(1 * MS, lambda: fired.append(1))
    sim.schedule(5 * MS, lambda: fired.append(5))
    sim.run(until_us=2 * MS)
    assert fired == [1]
    assert sim.now == 2 * MS
    sim.run()
    assert fired == [1, 5]


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    handle = sim.schedule(10, lambda: fired.append("x"))
    handle.cancel()
    sim.run()
    assert fired == []


def test_cancel_is_idempotent():
    sim = Simulator()
    handle = sim.schedule(10, lambda: None)
    handle.cancel()
    handle.cancel()
    sim.run()


def test_events_scheduled_during_run_execute():
    sim = Simulator()
    fired = []

    def first():
        fired.append("first")
        sim.schedule(5, lambda: fired.append("second"))

    sim.schedule(10, first)
    sim.run()
    assert fired == ["first", "second"]
    assert sim.now == 15


def test_zero_delay_event_runs_after_pending_same_time_events():
    sim = Simulator()
    fired = []

    def outer():
        sim.schedule(0, lambda: fired.append("soon"))
        fired.append("outer")

    sim.schedule(10, outer)
    sim.run()
    assert fired == ["outer", "soon"]


def test_stop_aborts_run():
    sim = Simulator()
    fired = []
    sim.schedule(1, lambda: (fired.append(1), sim.stop()))
    sim.schedule(2, lambda: fired.append(2))
    sim.run()
    assert fired == [(1, None)] or fired[0] == 1
    assert len(fired) == 1
    # remaining event still pending
    assert sim.pending_events() == 1


def test_pending_events_excludes_cancelled():
    sim = Simulator()
    keep = sim.schedule(10, lambda: None)
    drop = sim.schedule(20, lambda: None)
    drop.cancel()
    assert sim.pending_events() == 1
    assert keep.active


def test_events_processed_counter():
    sim = Simulator()
    for i in range(7):
        sim.schedule(i, lambda: None)
    sim.run()
    assert sim.events_processed == 7


def test_second_and_ms_constants():
    assert SECOND == 1_000_000
    assert MS == 1_000


class TestTimer:
    def test_fires_after_delay(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(500)
        sim.run()
        assert fired == [500]

    def test_restart_supersedes_previous(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(500)
        timer.start(900)
        sim.run()
        assert fired == [900]

    def test_stop_disarms(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(500)
        timer.stop()
        sim.run()
        assert fired == []
        assert not timer.armed

    def test_armed_reflects_state(self):
        sim = Simulator()
        timer = Timer(sim, lambda: None)
        assert not timer.armed
        timer.start(10)
        assert timer.armed
        sim.run()
        assert not timer.armed

    def test_timer_can_rearm_from_callback(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: None)

        def on_fire():
            fired.append(sim.now)
            if len(fired) < 3:
                timer.start(100)

        timer._callback = on_fire
        timer.start(100)
        sim.run()
        assert fired == [100, 200, 300]
