"""Tests for the stop/start/ack switching protocol coordinator."""

import pytest

from repro.core.switching import (
    OUTCOME_ABORTED,
    OUTCOME_COMPLETED,
    OUTCOME_FAILED_OVER,
    SWITCH_BACKOFF_MAX_US,
    SWITCH_RETRY_LIMIT,
    SWITCH_TIMEOUT_US,
    AckMsg,
    StartMsg,
    SwitchCoordinator,
    switch_retry_delay_us,
)
from repro.net.backhaul import EthernetBackhaul
from repro.sim import Simulator


def make_coordinator(drop_stops=0):
    """Coordinator wired to a fake AP pair on a real backhaul.

    ``drop_stops``: number of initial stop messages ap1 ignores, to
    exercise the 30 ms retransmission path.
    """
    sim = Simulator()
    backhaul = EthernetBackhaul(sim)
    coordinator = SwitchCoordinator(sim, backhaul)
    state = {"stops": 0, "starts": 0, "dropped": drop_stops}

    def ap1_handler(src, kind, payload):
        if kind != "stop":
            return
        state["stops"] += 1
        if state["dropped"] > 0:
            state["dropped"] -= 1
            return
        start = StartMsg(
            client=payload.client,
            index=123,
            switch_id=payload.switch_id,
            from_ap="ap1",
        )
        backhaul.send_control("ap1", payload.target_ap, "start", start)

    def ap2_handler(src, kind, payload):
        if kind != "start":
            return
        state["starts"] += 1
        ack = AckMsg(client=payload.client, ap="ap2", switch_id=payload.switch_id)
        backhaul.send_control("ap2", "controller", "ack", ack)

    def controller_handler(src, kind, payload):
        if kind == "ack":
            coordinator.on_ack(payload)

    backhaul.register("ap1", ap1_handler)
    backhaul.register("ap2", ap2_handler)
    backhaul.register("controller", controller_handler)
    return sim, coordinator, state


def test_three_step_switch_completes():
    sim, coordinator, state = make_coordinator()
    coordinator.initiate("client0", "ap1", "ap2")
    assert coordinator.busy("client0")
    sim.run()
    assert not coordinator.busy("client0")
    assert state["stops"] == 1 and state["starts"] == 1
    assert len(coordinator.history) == 1
    record = coordinator.history[0]
    assert record.from_ap == "ap1" and record.to_ap == "ap2"
    assert record.duration_us is not None and record.duration_us > 0


def test_lost_stop_retransmitted_after_30ms():
    sim, coordinator, state = make_coordinator(drop_stops=1)
    coordinator.initiate("client0", "ap1", "ap2")
    sim.run()
    assert state["stops"] == 2
    record = coordinator.history[0]
    assert record.retries == 1
    assert record.duration_us >= SWITCH_TIMEOUT_US


def test_gives_up_after_retry_limit():
    sim, coordinator, state = make_coordinator(drop_stops=100)
    coordinator.initiate("client0", "ap1", "ap2")
    sim.run()
    assert coordinator.abandoned == 1
    assert not coordinator.busy("client0")
    assert state["stops"] == SWITCH_RETRY_LIMIT + 1
    assert coordinator.history[0].completed_us is None


def test_no_concurrent_switch_for_same_client():
    sim, coordinator, _ = make_coordinator()
    coordinator.initiate("client0", "ap1", "ap2")
    with pytest.raises(RuntimeError):
        coordinator.initiate("client0", "ap2", "ap1")


def test_switch_to_self_rejected():
    _, coordinator, _ = make_coordinator()
    with pytest.raises(ValueError):
        coordinator.initiate("client0", "ap1", "ap1")


def test_failover_to_self_allowed():
    """A restarted AP that nobody else hears takes its client back."""
    _, coordinator, _ = make_coordinator()
    coordinator.initiate_failover("client0", "ap1", "ap1")
    assert coordinator.busy("client0")


def test_stale_ack_ignored():
    sim, coordinator, _ = make_coordinator()
    coordinator.initiate("client0", "ap1", "ap2")
    stale = AckMsg(client="client0", ap="ap2", switch_id=999)
    coordinator.on_ack(stale)
    assert coordinator.busy("client0")
    sim.run()
    assert not coordinator.busy("client0")


def test_different_clients_switch_concurrently():
    sim, coordinator, _ = make_coordinator()
    coordinator.initiate("client0", "ap1", "ap2")
    coordinator.initiate("client1", "ap1", "ap2")
    assert coordinator.busy("client0") and coordinator.busy("client1")
    sim.run()
    assert len(coordinator.completed_durations_us()) == 2


def test_on_complete_callback():
    sim, coordinator, _ = make_coordinator()
    done = []
    coordinator.on_complete = lambda record: done.append(record.to_ap)
    coordinator.initiate("client0", "ap1", "ap2")
    sim.run()
    assert done == ["ap2"]


# ----------------------------------------------------------------------
# hardening: outcomes, abort, backoff, failover
# ----------------------------------------------------------------------


def test_completed_switch_records_outcome():
    sim, coordinator, _ = make_coordinator()
    coordinator.initiate("client0", "ap1", "ap2")
    sim.run()
    assert coordinator.history[0].outcome == OUTCOME_COMPLETED
    assert coordinator.history[0].failover is False


def test_retry_cap_enforced_with_outcome():
    """Retries are capped and exhaustion is a first-class outcome."""
    sim, coordinator, state = make_coordinator(drop_stops=100)
    coordinator.initiate("client0", "ap1", "ap2")
    sim.run()
    assert state["stops"] == SWITCH_RETRY_LIMIT + 1
    assert coordinator.abandoned == 1
    assert not coordinator.busy("client0")
    [record] = coordinator.history
    assert record.outcome == OUTCOME_ABORTED
    assert record.abort_reason == "retry limit exhausted"


def test_backoff_bounds():
    """Retry delays stay within [timeout, backoff cap] and never
    regress: the n-th delay is monotonically non-decreasing."""
    delays = [switch_retry_delay_us(n) for n in range(12)]
    assert delays[0] == SWITCH_TIMEOUT_US  # first retry: full speed
    assert delays[1] == SWITCH_TIMEOUT_US  # second too (common case)
    assert all(d >= SWITCH_TIMEOUT_US for d in delays)
    assert all(d <= SWITCH_BACKOFF_MAX_US for d in delays)
    assert delays == sorted(delays)  # monotone
    assert delays[-1] == SWITCH_BACKOFF_MAX_US  # cap reached
    assert any(b > a for a, b in zip(delays, delays[1:]))  # actually grows


def test_abort_frees_slot_and_busy_clears():
    sim, coordinator, state = make_coordinator(drop_stops=100)
    coordinator.initiate("client0", "ap1", "ap2")
    assert coordinator.busy("client0")
    record = coordinator.abort("client0", reason="target died")
    assert record is not None
    assert not coordinator.busy("client0")
    assert record.outcome == OUTCOME_ABORTED
    assert record.abort_reason == "target died"
    assert coordinator.aborted == 1
    # the slot is genuinely free: a new switch can start immediately
    coordinator.initiate("client0", "ap1", "ap2")
    assert coordinator.busy("client0")
    # and the stopped retransmission timer stays stopped
    stops_before = state["stops"]
    sim.run(until_us=sim.now + 500_000)
    assert state["stops"] >= stops_before  # no crash; timer of aborted
    assert len([r for r in coordinator.history if r.outcome == OUTCOME_ABORTED])


def test_abort_nonexistent_switch_returns_none():
    _, coordinator, _ = make_coordinator()
    assert coordinator.abort("ghost") is None
    assert coordinator.aborted == 0


def test_abort_for_ap_kills_switches_touching_dead_ap():
    sim, coordinator, _ = make_coordinator(drop_stops=100)
    coordinator.initiate("client0", "ap1", "ap2")  # ap2 is the target
    coordinator.initiate("client1", "ap2", "ap1")  # ap2 is the source
    coordinator.initiate("client2", "ap1", "ap3")  # untouched by ap2
    aborted = coordinator.abort_for_ap("ap2")
    assert {r.client for r in aborted} == {"client0", "client1"}
    assert not coordinator.busy("client0")
    assert not coordinator.busy("client1")
    assert coordinator.busy("client2")
    assert all("ap2" in r.abort_reason for r in aborted)


def test_failover_handshake_completes():
    """controller -> new AP -> ack, no stop/start leg (old AP is dead)."""
    sim = Simulator()
    backhaul = EthernetBackhaul(sim)
    coordinator = SwitchCoordinator(sim, backhaul)
    seen = {"failover": 0}

    def ap2_handler(src, kind, payload):
        if kind != "failover":
            return
        seen["failover"] += 1
        assert payload.dead_ap == "ap1"
        ack = AckMsg(
            client=payload.client, ap="ap2", switch_id=payload.switch_id
        )
        backhaul.send_control("ap2", "controller", "ack", ack)

    backhaul.register("ap1", lambda *a: None)  # dead: never answers
    backhaul.register("ap2", ap2_handler)
    backhaul.register(
        "controller",
        lambda src, kind, p: coordinator.on_ack(p) if kind == "ack" else None,
    )
    coordinator.initiate_failover("client0", "ap1", "ap2")
    assert coordinator.busy("client0")
    ((_, _, record),) = coordinator.pending_switches()
    assert record.failover is True
    sim.run()
    assert seen["failover"] == 1
    record = coordinator.history[0]
    assert record.outcome == OUTCOME_FAILED_OVER
    assert record.failover is True
    assert record.duration_us is not None


def test_failover_retries_failover_not_stop():
    """A lost failover message is retransmitted as failover."""
    sim = Simulator()
    backhaul = EthernetBackhaul(sim)
    coordinator = SwitchCoordinator(sim, backhaul)
    seen = {"failover": 0, "stop": 0, "drop": 1}

    def ap2_handler(src, kind, payload):
        if kind == "stop":
            seen["stop"] += 1
            return
        if kind != "failover":
            return
        seen["failover"] += 1
        if seen["drop"] > 0:
            seen["drop"] -= 1
            return
        ack = AckMsg(
            client=payload.client, ap="ap2", switch_id=payload.switch_id
        )
        backhaul.send_control("ap2", "controller", "ack", ack)

    backhaul.register("ap2", ap2_handler)
    backhaul.register(
        "controller",
        lambda src, kind, p: coordinator.on_ack(p) if kind == "ack" else None,
    )
    coordinator.initiate_failover("client0", "ap1", "ap2")
    sim.run()
    assert seen["failover"] == 2  # original + one retransmission
    assert seen["stop"] == 0  # never falls back to the stop leg
    record = coordinator.history[0]
    assert record.outcome == OUTCOME_FAILED_OVER
    assert record.retries == 1


# ----------------------------------------------------------------------
# adversary hardening: acks must be idempotent in every ordering
# ----------------------------------------------------------------------


def test_duplicate_ack_after_completion_is_noop():
    """Ordering 1: complete first, duplicate second.

    A duplicated ack arriving after its handshake completed must not
    mutate the finished record, reopen the slot, or grow history — it
    only bumps the stale_acks counter.
    """
    sim, coordinator, _ = make_coordinator()
    coordinator.initiate("client0", "ap1", "ap2")
    sim.run()
    assert len(coordinator.history) == 1
    record = coordinator.history[0]
    completed_us = record.completed_us
    switch_id = coordinator._next_switch_id - 1

    duplicate = AckMsg(client="client0", ap="ap2", switch_id=switch_id)
    coordinator.on_ack(duplicate)
    coordinator.on_ack(duplicate)  # and again: still a no-op

    assert coordinator.stale_acks == 2
    assert len(coordinator.history) == 1
    assert record.completed_us == completed_us  # never mutated twice
    assert record.outcome == OUTCOME_COMPLETED
    assert not coordinator.busy("client0")


def test_ack_after_abort_is_noop():
    """Ordering 2: abort first, late ack second.

    The ack for a switch aborted meanwhile (e.g. failover stole the
    slot) must not resurrect the aborted record or complete a
    handshake that no longer exists.
    """
    sim, coordinator, _ = make_coordinator(drop_stops=100)
    coordinator.initiate("client0", "ap1", "ap2")
    switch_id = coordinator._next_switch_id - 1
    aborted = coordinator.abort("client0", reason="failover needs the slot")
    assert aborted.outcome == OUTCOME_ABORTED

    late = AckMsg(client="client0", ap="ap2", switch_id=switch_id)
    coordinator.on_ack(late)

    assert coordinator.stale_acks == 1
    assert not coordinator.busy("client0")
    assert len(coordinator.history) == 1
    assert coordinator.history[0].outcome == OUTCOME_ABORTED
    assert coordinator.history[0].completed_us is None

    # The slot is genuinely reusable after the late ack.
    coordinator.initiate("client0", "ap1", "ap2")
    assert coordinator.busy("client0")


def test_superseded_round_ack_does_not_complete_new_round():
    """An ack carrying an older switch_id than the pending round is
    stale: the live handshake keeps waiting for its own ack."""
    sim, coordinator, _ = make_coordinator(drop_stops=100)
    coordinator.initiate("client0", "ap1", "ap2")
    first_id = coordinator._next_switch_id - 1
    coordinator.abort("client0", reason="superseded")
    coordinator.initiate("client0", "ap1", "ap3")

    old_ack = AckMsg(client="client0", ap="ap2", switch_id=first_id)
    coordinator.on_ack(old_ack)

    assert coordinator.stale_acks == 1
    assert coordinator.busy("client0")  # the new round is untouched
    ((client, _, record),) = coordinator.pending_switches()
    assert (client, record.to_ap) == ("client0", "ap3")


def test_stale_acks_survive_restore_but_not_checkpoint_bytes():
    """The counter is durable observability, not protocol state: a
    snapshot/restore round-trip preserves the in-memory value while
    the snapshot itself carries no stale_acks key (checkpoint bytes
    ride the backhaul and must not grow under ordinary retransmission
    races)."""
    sim, coordinator, _ = make_coordinator()
    coordinator.initiate("client0", "ap1", "ap2")
    sim.run()
    switch_id = coordinator._next_switch_id - 1
    coordinator.on_ack(AckMsg(client="client0", ap="ap2", switch_id=switch_id))
    assert coordinator.stale_acks == 1

    state = coordinator.snapshot()
    assert "stale_acks" not in state
    coordinator.restore(state)
    assert coordinator.stale_acks == 1
