"""Tests for the heartbeat-driven AP liveness tracker."""

import pytest

from repro.core.liveness import LivenessTracker
from repro.sim import Simulator

MS = 1_000


def make_tracker(interval_ms=20, miss_limit=3):
    sim = Simulator()
    tracker = LivenessTracker(sim, interval_ms * MS, miss_limit)
    downs, ups = [], []
    tracker.on_down = lambda ap: downs.append((sim.now, ap))
    tracker.on_up = lambda ap: ups.append((sim.now, ap))
    return sim, tracker, downs, ups


def beat_until(sim, tracker, ap_id, until_us, interval_us):
    """Schedule periodic beats for one AP up to a cutoff time."""
    t = interval_us
    while t <= until_us:
        sim.schedule(t - sim.now, lambda ap=ap_id: tracker.beat(ap))
        t += interval_us


class TestStateMachine:
    def test_unknown_ap_never_declared_dead(self):
        sim, tracker, downs, _ = make_tracker()
        # no beats at all: the check timer never even starts
        sim.run(until_us=10_000 * MS)
        assert tracker.dead_aps() == frozenset()  # UNKNOWN reads as alive
        assert downs == []
        assert tracker.snapshot()["last_beat"] == {}

    def test_beating_ap_stays_alive(self):
        sim, tracker, downs, _ = make_tracker()
        beat_until(sim, tracker, "ap0", 500 * MS, 20 * MS)
        sim.run(until_us=500 * MS)
        assert tracker.dead_aps() == frozenset()
        assert downs == []

    def test_silent_ap_declared_dead_within_bound(self):
        sim, tracker, downs, _ = make_tracker(interval_ms=20, miss_limit=3)
        beat_until(sim, tracker, "ap0", 200 * MS, 20 * MS)  # last beat 200ms
        sim.run(until_us=1_000 * MS)
        assert "ap0" in tracker.dead_aps()
        assert len(downs) == 1
        down_at, ap = downs[0]
        assert ap == "ap0"
        # detection lag bound: (miss_limit + 1) * interval after last beat
        assert 200 * MS < down_at <= 200 * MS + 4 * 20 * MS

    def test_revival_on_next_beat(self):
        sim, tracker, downs, ups = make_tracker()
        beat_until(sim, tracker, "ap0", 100 * MS, 20 * MS)
        sim.run(until_us=400 * MS)
        assert "ap0" in tracker.dead_aps()
        sim.schedule(0, lambda: tracker.mark_alive("ap0"))
        sim.run(until_us=401 * MS)
        assert tracker.dead_aps() == frozenset()
        assert len(ups) == 1
        # exactly one down and one up: no duplicate edges
        assert len(downs) == 1
        assert [kind for _, kind, _ in tracker.events] == ["down", "up"]

    def test_one_dead_ap_does_not_kill_the_others(self):
        sim, tracker, downs, _ = make_tracker()
        beat_until(sim, tracker, "ap0", 100 * MS, 20 * MS)  # dies
        beat_until(sim, tracker, "ap1", 900 * MS, 20 * MS)  # keeps beating
        sim.run(until_us=900 * MS)
        assert tracker.dead_aps() == frozenset({"ap0"})
        assert [ap for _, ap in downs] == ["ap0"]


class TestEdgeCases:
    def test_miss_limit_validated(self):
        with pytest.raises(ValueError):
            LivenessTracker(Simulator(), 20 * MS, miss_limit=0)

    def test_zero_interval_disables_tracking(self):
        sim = Simulator()
        tracker = LivenessTracker(sim, 0)
        tracker.beat("ap0")
        sim.run(until_us=10_000 * MS)
        assert tracker.snapshot()["last_beat"] == {}
        assert tracker.dead_aps() == frozenset()

    def test_forget_stops_tracking(self):
        sim, tracker, downs, _ = make_tracker()
        beat_until(sim, tracker, "ap0", 100 * MS, 20 * MS)
        sim.run(until_us=100 * MS)
        tracker.forget("ap0")
        sim.run(until_us=1_000 * MS)
        assert downs == []  # never declared dead after forget
        assert tracker.snapshot()["last_beat"] == {}

    def test_stop_inside_on_down_is_never_rearmed(self):
        # The standby's primary watch: the first DEAD stops the tracker.
        sim, tracker, downs, _ = make_tracker()
        tracker.on_down = lambda ap: (downs.append(ap), tracker.stop())
        beat_until(sim, tracker, "primary", 100 * MS, 20 * MS)
        sim.run(until_us=300 * MS)
        assert downs == ["primary"]
        assert sim.pending_events() == 0  # the check did not re-arm
        tracker.beat("primary")  # nor does a late beat
        sim.run(until_us=1_000 * MS)
        assert downs == ["primary"]
        assert tracker.snapshot()["last_beat"] == {}

    def test_reset_clock_refreshes_alive_nodes(self):
        sim, tracker, downs, _ = make_tracker()
        tracker.beat("ap0")
        sim.run(until_us=50 * MS)
        tracker.reset_clock(sim.now)
        # Unrefreshed, ap0 would be DEAD at the 80 ms check; refreshed
        # at 50 ms it lasts until the first check past 110 ms.
        sim.run(until_us=300 * MS)
        assert downs == [(120 * MS, "ap0")]

    def test_reset_clock_leaves_dead_nodes_dead(self):
        sim, tracker, downs, ups = make_tracker()
        tracker.beat("ap0")
        sim.run(until_us=100 * MS)
        assert downs == [(80 * MS, "ap0")]
        tracker.reset_clock(sim.now)
        assert tracker.dead_aps() == frozenset({"ap0"})
        assert tracker.snapshot()["last_beat"] == {"ap0": 0}
        sim.run(until_us=300 * MS)
        assert ups == [] and len(downs) == 1

    def test_reset_clock_never_arms_a_tracker_that_never_beat(self):
        sim, tracker, downs, _ = make_tracker()
        tracker.reset_clock(sim.now)
        assert sim.pending_events() == 0
        sim.run(until_us=1_000 * MS)
        assert downs == []
        assert tracker.snapshot()["last_beat"] == {}

    def test_beat_after_crash_rearms(self):
        sim, tracker, downs, _ = make_tracker()
        tracker.beat("ap0")
        sim.run(until_us=50 * MS)
        tracker.crash()
        assert sim.pending_events() == 0
        sim.run(until_us=500 * MS)
        assert downs == []
        tracker.beat("ap0")  # 500 ms: armed again, judged afresh
        sim.run(until_us=1_000 * MS)
        assert downs == [(580 * MS, "ap0")]

    def test_deterministic_event_trace(self):
        def run_once():
            sim, tracker, _, _ = make_tracker()
            beat_until(sim, tracker, "ap0", 100 * MS, 20 * MS)
            beat_until(sim, tracker, "ap1", 200 * MS, 20 * MS)
            sim.run(until_us=600 * MS)
            return list(tracker.events)

        assert run_once() == run_once()
