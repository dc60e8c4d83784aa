"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim import MS, SECOND, Simulator, Timer
from repro.sim.engine import Retransmitter


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


class TestRetransmitter:
    @staticmethod
    def make(limit=3):
        """A helper on a 10, 20, 40, 40 ... ms schedule that logs every
        callback as (time, item, retries)."""
        sim = Simulator()
        sends, give_ups = [], []
        retx = Retransmitter(
            sim,
            lambda retries: (10, 20, 40)[min(retries, 2)] * MS,
            limit,
            lambda item, n: sends.append((sim.now, item, n)),
            lambda item, n: give_ups.append((sim.now, item, n)),
        )
        return sim, retx, sends, give_ups

    def test_resends_on_the_schedule_then_gives_up_once(self):
        sim, retx, sends, give_ups = self.make(limit=3)
        retx.start("k", "req")
        assert sends == [(0, "req", 0)]  # sent before the timer is armed
        sim.run()
        assert sends == [
            (0, "req", 0),
            (10 * MS, "req", 1),
            (30 * MS, "req", 2),
            (70 * MS, "req", 3),
        ]
        assert give_ups == [(110 * MS, "req", 4)]
        assert "k" not in retx and len(retx) == 0
        assert retx.pop("k") is None  # a late ack after give-up: no-op

    def test_send_precedes_the_timer(self):
        # A send that schedules an event at the timer's own instant
        # runs first: the engine breaks the tie by sequence number.
        sim = Simulator()
        order = []
        retx = Retransmitter(
            sim,
            lambda retries: 10 * MS,
            0,
            lambda item, n: sim.schedule(10 * MS, lambda: order.append("send")),
            lambda item, n: order.append("give-up"),
        )
        retx.start("k", "req")
        sim.run()
        assert order == ["send", "give-up"]

    def test_ack_disarms(self):
        sim, retx, sends, give_ups = self.make()
        retx.start("k", "req")
        sim.run(until_us=5 * MS)
        assert retx.deadline_us("k") == 10 * MS
        assert retx.pop("k") == "req"
        assert sim.pending_events() == 0
        sim.run(until_us=SECOND)
        assert sends == [(0, "req", 0)] and give_ups == []
        assert retx.pop("k") is None  # a duplicate ack: no-op

    def test_cancel_between_retries(self):
        sim, retx, sends, give_ups = self.make()
        retx.start("k", "req")
        sim.run(until_us=15 * MS)
        assert [r[2] for r in sends] == [0, 1]
        retx.pop("k")
        sim.run(until_us=SECOND)
        assert [r[2] for r in sends] == [0, 1] and give_ups == []

    def test_keys_are_independent(self):
        sim, retx, sends, _ = self.make()
        retx.start("a", 1)
        sim.run(until_us=5 * MS)
        retx.start("b", 2)
        assert retx.items() == [("a", 1), ("b", 2)]
        assert retx.get("b") == 2 and retx.get("c") is None
        retx.pop("a")
        sim.run(until_us=16 * MS)
        assert sends == [(0, 1, 0), (5 * MS, 2, 0), (15 * MS, 2, 1)]

    def test_add_at_an_absolute_deadline_resumes_the_count(self):
        # The restore path: a request rebuilt with its retries so far,
        # re-armed at the instant the original would have fired, and
        # not sent again on the way.
        sim, retx, sends, give_ups = self.make(limit=3)
        sim.run(until_us=50 * MS)
        retx.add("k", "req", retries=2, at_us=80 * MS)
        assert retx.deadline_us("k") == 80 * MS
        sim.run()
        assert sends == [(80 * MS, "req", 3)]
        assert give_ups == [(120 * MS, "req", 4)]

    def test_add_without_a_deadline_holds_unarmed(self):
        sim, retx, sends, give_ups = self.make()
        retx.add("k", "req", retries=1)
        assert retx.deadline_us("k") is None and "k" in retx
        sim.run(until_us=SECOND)
        assert sends == [] and give_ups == []

    def test_add_at_a_past_instant_fires_now(self):
        sim, retx, sends, _ = self.make()
        sim.run(until_us=50 * MS)
        retx.add("k", "req", at_us=20 * MS)
        sim.run(until_us=50 * MS)
        assert sends == [(50 * MS, "req", 1)]

    def test_clear_disarms_everything(self):
        sim, retx, sends, give_ups = self.make()
        for key in ("b", "a"):
            retx.start(key, key)
        retx.clear()
        assert len(retx) == 0 and sim.pending_events() == 0
        sim.run(until_us=SECOND)
        assert [r[2] for r in sends] == [0, 0] and give_ups == []
