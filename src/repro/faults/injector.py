"""Arms a :class:`FaultPlan` against a built testbed.

The injector is deliberately dumb: it walks the (pre-sorted, fully
materialised) plan and schedules one sim callback per fault action —
crash, restart, partition, heal, jitter-on, jitter-off, blackout-on,
blackout-off.  It draws **no randomness at execution time**; the only
generators it touches are the per-link jitter streams, whose labels
are derived from the plan's own (deterministic) event fields.  Two
runs of the same ``(seed, plan)`` therefore produce byte-identical
fault traces and byte-identical protocol behaviour.

The injector duck-types its target: anything with ``sim``,
``backhaul``, ``rng`` and a ``wgtt_aps`` (or ``aps``) mapping works,
so unit rigs don't need a full :class:`~repro.scenarios.testbed.Testbed`;
controller faults address whatever its ``shards`` (if any) hold.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.faults.plan import (
    ApCrash,
    ControllerCrash,
    ControllerRestart,
    CsiBlackout,
    FaultPlan,
    GrayFailure,
    LinkJitter,
    MsgCorruption,
    MsgDuplication,
    OneWayPartition,
    Partition,
    StaleReplay,
    _kinds_str,
)


class FaultInjector:
    """Schedules a plan's faults on the discrete-event engine."""

    def __init__(self, testbed, plan: FaultPlan):
        self.plan = plan
        self.sim = testbed.sim
        self.backhaul = testbed.backhaul
        self.rng = testbed.rng
        aps = getattr(testbed, "wgtt_aps", None)
        if aps is None:
            aps = getattr(testbed, "aps", {})
        self.aps: Dict[str, object] = aps
        #: Controllers addressable by ControllerCrash/ControllerRestart:
        #: every region's primary and standby, by backhaul id.
        self.controllers: Dict[str, object] = {
            ctrl.controller_id: ctrl
            for shard in getattr(testbed, "shards", ())
            for ctrl in shard.controllers()
        }
        #: (time_us, action, subject) — the executed fault trace.
        #: Actions: crash / restart / partition / heal / jitter-on /
        #: jitter-off / csi-off / csi-on / ctrl-crash / ctrl-restart /
        #: dup-on / dup-off / replay-capture / replay-fire /
        #: corrupt-on / corrupt-off / oneway-on / oneway-off /
        #: gray-on / gray-off.
        self.events: List[Tuple[int, str, str]] = []
        #: Gray-failure windows opened so far (metrics surface this).
        self.gray_windows = 0
        self._armed = False

    #: Plan event type (the set is closed) -> the executor that opens
    #: it; whatever closes it again chains off that.
    EXECUTORS = {
        ApCrash: "_crash",
        Partition: "_partition",
        LinkJitter: "_jitter_on",
        CsiBlackout: "_csi_off",
        ControllerCrash: "_ctrl_crash",
        ControllerRestart: "_ctrl_restart",
        MsgDuplication: "_dup_on",
        StaleReplay: "_replay_start",
        MsgCorruption: "_corrupt_on",
        OneWayPartition: "_oneway_on",
        GrayFailure: "_gray_on",
    }

    def collect_metrics(self) -> Dict[str, object]:
        """Executed-fault totals for the metrics snapshot."""
        out: Dict[str, object] = {"faults_executed": len(self.events)}
        if self.gray_windows:
            out["faults_gray_windows"] = self.gray_windows
        return out

    # ------------------------------------------------------------------
    # arming
    # ------------------------------------------------------------------

    def arm(self) -> None:
        """Schedule every fault in the plan.  Idempotent-hostile: call once.

        A plan naming an AP or controller this testbed does not have is
        refused here, before anything is scheduled — not by the fault's
        callback, mid-run.
        """
        if self._armed:
            raise RuntimeError("FaultInjector.arm() called twice")
        for event in self.plan:
            if isinstance(event, (ApCrash, CsiBlackout)):
                self._ap(event.ap_id)
            elif isinstance(event, (ControllerCrash, ControllerRestart)):
                self._controller(event.controller_id)
        self._armed = True
        now = self.sim.now
        for event in self.plan:
            execute = getattr(self, self.EXECUTORS[type(event)])
            self.sim.schedule(
                max(0, event.at_us - now), lambda e=event, x=execute: x(e)
            )

    # ------------------------------------------------------------------
    # executors
    # ------------------------------------------------------------------

    def _log(self, action: str, subject: str) -> None:
        self.events.append((self.sim.now, action, subject))
        tracer = self.sim.obs.trace
        if tracer.active:
            tracer.emit(
                "faults", "fault", track="faults", action=action, subject=subject
            )

    def _named(self, what: str, table: Dict[str, object], node_id: str):
        try:
            return table[node_id]
        except KeyError:
            raise KeyError(
                f"fault plan names unknown {what} {node_id!r}; "
                f"known: {sorted(table)}"
            ) from None

    def _ap(self, ap_id: str):
        return self._named("AP", self.aps, ap_id)

    def _crash(self, event: ApCrash) -> None:
        ap = self._ap(event.ap_id)
        if not getattr(ap, "alive", True):
            return  # already down (overlapping crash events)
        self._log("crash", event.ap_id)
        ap.crash()
        if event.down_us is not None:
            self.sim.schedule(event.down_us, lambda: self._restart(event.ap_id))

    def _restart(self, ap_id: str) -> None:
        ap = self._ap(ap_id)
        if getattr(ap, "alive", True):
            return  # already restarted
        self._log("restart", ap_id)
        ap.restart()

    def _partition(self, event: Partition) -> None:
        self._log(
            "partition",
            ",".join(sorted(event.side_a)) + "|" + ",".join(sorted(event.side_b)),
        )
        pid = self.backhaul.partition(event.side_a, event.side_b)
        self.sim.schedule(event.duration_us, lambda: self._heal(pid, event))

    def _heal(self, pid: int, event: Partition) -> None:
        self._log(
            "heal",
            ",".join(sorted(event.side_a)) + "|" + ",".join(sorted(event.side_b)),
        )
        self.backhaul.heal(pid)

    def _jitter_on(self, event: LinkJitter) -> None:
        self._log("jitter-on", f"{event.src}->{event.dst}")
        stream = self.rng.stream(
            f"faults/jitter/{event.src}->{event.dst}@{event.at_us}"
        )
        self.backhaul.set_link_jitter(event.src, event.dst, event.jitter_us, stream)
        self.sim.schedule(event.duration_us, lambda: self._jitter_off(event))

    def _jitter_off(self, event: LinkJitter) -> None:
        self._log("jitter-off", f"{event.src}->{event.dst}")
        self.backhaul.clear_link_jitter(event.src, event.dst)

    def _csi_off(self, event: CsiBlackout) -> None:
        ap = self._ap(event.ap_id)
        self._log("csi-off", event.ap_id)
        ap.csi_suppressed = True
        self.sim.schedule(event.duration_us, lambda: self._csi_on(event.ap_id))

    def _csi_on(self, ap_id: str) -> None:
        ap = self._ap(ap_id)
        self._log("csi-on", ap_id)
        ap.csi_suppressed = False

    def _controller(self, controller_id: str):
        return self._named("controller", self.controllers, controller_id)

    def _ctrl_crash(self, event: ControllerCrash) -> None:
        controller = self._controller(event.controller_id)
        if not getattr(controller, "alive", True):
            return  # already down (overlapping crash events)
        self._log("ctrl-crash", event.controller_id)
        controller.crash()
        if event.down_us is not None:
            self.sim.schedule(event.down_us, lambda: self._ctrl_restart(event))

    def _ctrl_restart(self, event) -> None:
        """``event``: the restart, or the crash whose ``down_us`` ran out."""
        controller = self._controller(event.controller_id)
        if getattr(controller, "alive", True):
            return  # already restarted
        self._log("ctrl-restart", event.controller_id)
        controller.restart()

    # -- message-level adversary executors ----------------------------
    #
    # Each window's randomness comes from a stream whose label is
    # derived from the event's own plan fields (like link jitter), so
    # execution-time draws stay inside the determinism contract.

    def _dup_on(self, event: MsgDuplication) -> None:
        subject = _kinds_str(event.kinds)
        self._log("dup-on", subject)
        stream = self.rng.stream(f"faults/dup/{subject}@{event.at_us}")
        handle = self.backhaul.set_duplication(
            event.kinds, event.probability, event.copies, stream
        )
        self.sim.schedule(
            event.duration_us, lambda: self._dup_off(handle, subject)
        )

    def _dup_off(self, handle: int, subject: str) -> None:
        self._log("dup-off", subject)
        self.backhaul.clear_duplication(handle)

    def _replay_start(self, event: StaleReplay) -> None:
        subject = _kinds_str(event.kinds)
        self._log("replay-capture", subject)
        handle = self.backhaul.start_replay_capture(event.kinds, event.count)
        self.sim.schedule(
            event.duration_us, lambda: self._replay_fire(handle, subject)
        )

    def _replay_fire(self, handle: int, subject: str) -> None:
        replayed = self.backhaul.replay_captured(handle)
        self._log("replay-fire", f"{subject}:{replayed}")

    def _corrupt_on(self, event: MsgCorruption) -> None:
        subject = _kinds_str(event.kinds)
        self._log("corrupt-on", subject)
        stream = self.rng.stream(f"faults/corrupt/{subject}@{event.at_us}")
        handle = self.backhaul.set_corruption(
            event.kinds, event.probability, stream
        )
        self.sim.schedule(
            event.duration_us, lambda: self._corrupt_off(handle, subject)
        )

    def _corrupt_off(self, handle: int, subject: str) -> None:
        self._log("corrupt-off", subject)
        self.backhaul.clear_corruption(handle)

    def _oneway_on(self, event: OneWayPartition) -> None:
        subject = f"{event.src}->{event.dst}"
        self._log("oneway-on", subject)
        handle = self.backhaul.partition_oneway(event.src, event.dst)
        self.sim.schedule(
            event.duration_us, lambda: self._oneway_off(handle, subject)
        )

    def _oneway_off(self, handle: int, subject: str) -> None:
        self._log("oneway-off", subject)
        self.backhaul.heal_oneway(handle)

    def _gray_on(self, event: GrayFailure) -> None:
        self._log("gray-on", event.ap_id)
        self.gray_windows += 1
        stream = self.rng.stream(f"faults/gray/{event.ap_id}@{event.at_us}")
        self.backhaul.set_node_degraded(
            event.ap_id, event.extra_latency_us, event.loss_rate, stream
        )
        self.sim.schedule(
            event.duration_us, lambda: self._gray_off(event.ap_id)
        )

    def _gray_off(self, ap_id: str) -> None:
        self._log("gray-off", ap_id)
        self.backhaul.clear_node_degraded(ap_id)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def crash_times(self) -> List[Tuple[int, str]]:
        """(time_us, ap_id) for each executed crash, in order."""
        return [(t, s) for (t, a, s) in self.events if a == "crash"]

    def controller_crash_times(self) -> List[Tuple[int, str]]:
        """(time_us, controller_id) per executed controller crash."""
        return [(t, s) for (t, a, s) in self.events if a == "ctrl-crash"]

    def trace_lines(self) -> List[str]:
        """Canonical one-line-per-event rendering (for byte comparison)."""
        return [f"{t} {a} {s}" for (t, a, s) in self.events]
