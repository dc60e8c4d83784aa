"""The three-step switching protocol (paper §3.1.2), hardened.

    controller --stop(c)-->  AP1            (cease sending to c)
    AP1        --start(c,k)-> AP2           (resume from index k)
    AP2        --ack------->  controller    (switch complete)

Control packets are prioritized end to end. The controller retransmits
stop(c) if no ack arrives within 30 ms, and never issues a second
switch for the same client while one is outstanding (paper footnote 2).
This module holds the controller-side coordinator and the message
dataclasses; the AP-side behaviour lives in ``access_point``.

Beyond the paper, the coordinator is hardened for a production array:

* retransmissions are **capped** and back off exponentially up to a
  bound (``SWITCH_BACKOFF_MAX_US``) instead of hammering a sick
  backhaul on a fixed 30 ms clock;
* a pending switch can be **aborted** (e.g. its target AP just died
  mid-handshake) — the slot is freed immediately so selection or
  failover can act, and ``busy()`` clears;
* a one-hop **failover** handshake (controller → new AP → ack) covers
  the case where the outgoing AP is dead and can never send start(c, k)
  — the new AP resumes from its own fanned-out cyclic-queue backlog;
* every :class:`SwitchRecord` carries an ``outcome``
  (``completed | aborted | failed-over``) for the chaos metrics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.net.backhaul import EthernetBackhaul
from repro.sim.engine import MS, Retransmitter, Simulator

#: stop→ack retransmission timeout (§3.1.2: 30 ms).
SWITCH_TIMEOUT_US = 30 * MS

#: Give up a switch after this many stop retransmissions.
SWITCH_RETRY_LIMIT = 5

#: Retransmission backoff cap: the n-th retry waits
#: ``min(SWITCH_TIMEOUT_US << n, SWITCH_BACKOFF_MAX_US)``, so a
#: wedged handshake backs off instead of hammering a sick backhaul,
#: but never waits longer than this bound.
SWITCH_BACKOFF_MAX_US = 120 * MS


def switch_retry_delay_us(retries: int) -> int:
    """The switch's retransmit schedule: 30, 30, 60, 120, 120 ... ms.

    One lost control packet, the common case, recovers on the paper's
    30 ms clock; only persistent failure (a sick or partitioned
    backhaul, where resending only adds load) doubles up to the cap.
    """
    shifted = SWITCH_TIMEOUT_US << min(max(0, retries - 1), 16)
    return min(shifted, SWITCH_BACKOFF_MAX_US)


@dataclass(frozen=True)
class StopMsg:
    """controller → outgoing AP: stop serving ``client``; hand over to
    ``target_ap``. Carries both layer-2 addresses as in the paper."""

    client: str
    target_ap: str
    switch_id: int


@dataclass(frozen=True)
class StartMsg:
    """outgoing AP → incoming AP: resume ``client`` at index ``k``."""

    client: str
    index: int
    switch_id: int
    from_ap: str


@dataclass(frozen=True)
class AckMsg:
    """incoming AP → controller: switch complete."""

    client: str
    ap: str
    switch_id: int


@dataclass(frozen=True)
class FailoverMsg:
    """controller → incoming AP: the serving AP ``dead_ap`` died; adopt
    ``client`` immediately, resuming from your own cyclic-queue backlog
    (the controller cannot learn k — the AP that knew it is gone)."""

    client: str
    dead_ap: str
    switch_id: int


#: ``SwitchRecord.outcome`` values.
OUTCOME_COMPLETED = "completed"
OUTCOME_ABORTED = "aborted"
OUTCOME_FAILED_OVER = "failed-over"


@dataclass
class SwitchRecord:
    """One finished switch attempt, for Table 1 / chaos statistics."""

    client: str
    from_ap: str
    to_ap: str
    started_us: int
    completed_us: Optional[int] = None
    retries: int = 0
    #: "completed" | "aborted" | "failed-over" once finished; None while
    #: the handshake is still in flight.
    outcome: Optional[str] = None
    #: True for the emergency (dead serving AP) handshake.
    failover: bool = False
    #: Human-readable reason for an abort (dead target, retry cap...).
    abort_reason: Optional[str] = None

    @property
    def duration_us(self) -> Optional[int]:
        if self.completed_us is None:
            return None
        return self.completed_us - self.started_us

    # -- checkpoint support -------------------------------------------

    def to_state(self) -> dict:
        return {
            "client": self.client,
            "from_ap": self.from_ap,
            "to_ap": self.to_ap,
            "started_us": self.started_us,
            "completed_us": self.completed_us,
            "retries": self.retries,
            "outcome": self.outcome,
            "failover": self.failover,
            "abort_reason": self.abort_reason,
        }

    @classmethod
    def from_state(cls, state: dict) -> "SwitchRecord":
        return cls(**state)


@dataclass
class _Pending:
    record: SwitchRecord
    switch_id: int
    #: Open tracer span id for this handshake (None when tracing is off
    #: or the pending entry was rebuilt from a checkpoint).
    span: Optional[int] = None


class SwitchCoordinator:
    """Controller-side switching FSM, one slot per client."""

    def __init__(
        self,
        sim: Simulator,
        backhaul: EthernetBackhaul,
        controller_id: str = "controller",
    ):
        self._sim = sim
        self._backhaul = backhaul
        self._controller_id = controller_id
        #: client -> the handshake in flight (a ``_Pending``).
        self._pending = Retransmitter(
            sim, switch_retry_delay_us, SWITCH_RETRY_LIMIT, self._send, self._give_up
        )
        self._next_switch_id = 1
        self.history: List[SwitchRecord] = []
        self.abandoned = 0
        self.aborted = 0
        #: Acks that matched no pending handshake: duplicates of an ack
        #: already consumed, acks for a switch aborted meanwhile, or
        #: acks from superseded retransmission rounds.  All are
        #: idempotent no-ops by design — the counter exists so an
        #: adversary run can prove they happened *and* changed nothing.
        self.stale_acks = 0
        #: Called with the completed SwitchRecord.
        self.on_complete: Callable[[SwitchRecord], None] = lambda record: None

    def busy(self, client_id: str) -> bool:
        return client_id in self._pending

    def pending_switches(self) -> List[Tuple[str, int, SwitchRecord]]:
        """(client, switch id, record) of every handshake in flight,
        sorted by client."""
        return [
            (client_id, pending.switch_id, pending.record)
            for client_id, pending in sorted(self._pending.items())
        ]

    def initiate(self, client_id: str, from_ap: str, to_ap: str) -> None:
        """Kick off stop/start/ack for one client."""
        self._begin(client_id, from_ap, to_ap, failover=False)

    def initiate_failover(
        self, client_id: str, dead_ap: str, to_ap: str
    ) -> None:
        """Emergency path: ``dead_ap`` cannot execute a stop, so the
        controller messages the new AP directly and the fan-out backlog
        already sitting in its cyclic queue restarts the flow.  The new
        AP may be ``dead_ap`` itself, restarted with nobody else to take
        the client."""
        self._begin(client_id, dead_ap, to_ap, failover=True)

    def _begin(
        self, client_id: str, from_ap: str, to_ap: str, failover: bool
    ) -> None:
        if client_id in self._pending:
            raise RuntimeError(f"switch already pending for {client_id!r}")
        if from_ap == to_ap and not failover:
            raise ValueError("switch target equals current AP")
        switch_id = self._next_switch_id
        self._next_switch_id += 1
        record = SwitchRecord(
            client=client_id,
            from_ap=from_ap,
            to_ap=to_ap,
            started_us=self._sim.now,
            failover=failover,
        )
        pending = _Pending(record=record, switch_id=switch_id)
        pending.span = self._sim.obs.trace.begin(
            "controller",
            "failover" if failover else "switch",
            track=f"switch/{client_id}",
            client=client_id,
            from_ap=from_ap,
            to_ap=to_ap,
            switch_id=switch_id,
        )
        self._pending.start(client_id, pending)

    def _send(self, pending: _Pending, retries: int) -> None:
        """stop(c) to the outgoing AP, or failover(c) to the new one;
        ``retries`` > 0 is a retransmission."""
        record = pending.record
        if retries:
            record.retries = retries
            tracer = self._sim.obs.trace
            tracer.emit(
                "controller",
                "switch-retry",
                track=f"switch/{record.client}",
                client=record.client,
                switch_id=pending.switch_id,
                retries=retries,
                failover=record.failover,
            )
        message: object
        if record.failover:
            dst, kind = record.to_ap, "failover"
            message = FailoverMsg(record.client, record.from_ap, pending.switch_id)
        else:
            dst, kind = record.from_ap, "stop"
            message = StopMsg(record.client, record.to_ap, pending.switch_id)
        self._backhaul.send_control(self._controller_id, dst, kind, message)

    def on_ack(self, message: AckMsg) -> None:
        pending = self._pending.get(message.client)
        if pending is None or pending.switch_id != message.switch_id:
            # Duplicate ack, ack after abort, or a superseded round:
            # strictly a no-op (the record must never be mutated twice),
            # but counted and traced so misbehaviour is visible.
            self.stale_acks += 1
            tracer = self._sim.obs.trace
            if tracer.active:
                tracer.emit(
                    "controller",
                    "stale-ack",
                    track=f"switch/{message.client}",
                    detail=True,
                    client=message.client,
                    ap=message.ap,
                    switch_id=message.switch_id,
                )
            return
        self._pending.pop(message.client)
        record = pending.record
        record.completed_us = self._sim.now
        outcome = OUTCOME_FAILED_OVER if record.failover else OUTCOME_COMPLETED
        self._close(pending, outcome, retries=record.retries)
        self.on_complete(record)

    def abort(
        self, client_id: str, reason: str = "aborted"
    ) -> Optional[SwitchRecord]:
        """Tear down a pending switch and free the slot immediately.

        Used when the handshake can never finish — the target AP died
        mid-protocol, or failover needs the slot *now*.  Returns the
        aborted record (also appended to ``history``), or None if no
        switch was pending.
        """
        pending = self._pending.pop(client_id)
        if pending is None:
            return None
        pending.record.abort_reason = reason
        self.aborted += 1
        return self._close(pending, OUTCOME_ABORTED, reason=reason)

    def abort_for_ap(self, ap_id: str) -> List[SwitchRecord]:
        """Abort every pending switch that involves a (now dead) AP."""
        return [
            self.abort(client_id, reason=f"{ap_id} died mid-handshake")
            for client_id, pending in self._pending.items()
            if ap_id in (pending.record.from_ap, pending.record.to_ap)
        ]

    def _give_up(self, pending: _Pending, retries: int) -> None:
        """Retry cap exhausted: the slot is already free, so selection
        can try again."""
        reason = "retry limit exhausted"
        pending.record.retries = retries
        pending.record.abort_reason = reason
        self.abandoned += 1
        self._close(pending, OUTCOME_ABORTED, reason=reason, retries=retries)

    def _close(
        self, pending: _Pending, outcome: str, **span_fields: object
    ) -> SwitchRecord:
        """Finish a handshake whose slot is already free."""
        record = pending.record
        record.outcome = outcome
        self._sim.obs.trace.end(pending.span, outcome=outcome, **span_fields)
        self.history.append(record)
        return record

    # -- crash / checkpoint support --------------------------------------

    def crash(self) -> None:
        """Controller crash: every in-flight handshake is lost (a dead
        controller retransmits nothing) and the next incarnation's
        switch_id space restarts.  ``history`` and the abandoned /
        aborted / stale-ack counts are durable observability and stay.
        """
        self._pending.clear()
        self._next_switch_id = 1

    def snapshot(self) -> dict:
        # ``stale_acks`` is deliberately NOT checkpointed: it is durable
        # observability (like ``stats``), not protocol state — and the
        # checkpoint's canonical bytes ride the backhaul, so a counter
        # that only moves under adversarial replay must not perturb
        # wire sizes of adversary-free runs.
        return {
            "next_switch_id": self._next_switch_id,
            "abandoned": self.abandoned,
            "aborted": self.aborted,
            "pending": {
                client_id: {
                    "record": pending.record.to_state(),
                    "switch_id": pending.switch_id,
                    "deadline_us": self._pending.deadline_us(client_id),
                }
                for client_id, pending in self._pending.items()
            },
            "history": [record.to_state() for record in self.history],
        }

    def restore(self, state: dict) -> None:
        """Rebuild pending handshakes and history from a snapshot.

        Each pending switch's retransmission timer is re-armed at its
        checkpointed absolute deadline (clamped to now), so a restored
        controller retransmits at the same instants the original would
        have — the bit-identical-continuation property test holds the
        coordinator to this.
        """
        self._pending.clear()
        self._next_switch_id = int(state["next_switch_id"])
        self.abandoned = int(state["abandoned"])
        self.aborted = int(state["aborted"])
        self.history = [
            SwitchRecord.from_state(record) for record in state["history"]
        ]
        for client_id in sorted(state["pending"]):
            entry = state["pending"][client_id]
            record = SwitchRecord.from_state(entry["record"])
            deadline = entry["deadline_us"]
            self._pending.add(
                client_id,
                _Pending(record=record, switch_id=int(entry["switch_id"])),
                retries=record.retries,
                at_us=None if deadline is None else int(deadline),
            )

    # -- statistics ------------------------------------------------------

    def completed_durations_us(self) -> List[int]:
        return [
            r.duration_us for r in self.history if r.duration_us is not None
        ]
