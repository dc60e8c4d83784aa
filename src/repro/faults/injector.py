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
so unit rigs don't need a full :class:`~repro.scenarios.testbed.Testbed`.
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
        #: Controllers addressable by ControllerCrash/ControllerRestart.
        #: Duck-typed like the APs: anything with alive/crash()/restart().
        self.controllers: Dict[str, object] = {}
        controller = getattr(testbed, "controller", None)
        if controller is not None:
            self.controllers[
                getattr(controller, "controller_id", "controller")
            ] = controller
        standby = getattr(testbed, "standby", None)
        if standby is not None:
            self.controllers[
                getattr(standby, "controller_id", "controller-b")
            ] = standby
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
        """Schedule every fault in the plan.  Idempotent-hostile: call once."""
        if self._armed:
            raise RuntimeError("FaultInjector.arm() called twice")
        self._armed = True
        now = self.sim.now
        for event in self.plan:
            delay = max(0, event.at_us - now)
            if isinstance(event, ApCrash):
                self.sim.schedule(delay, lambda e=event: self._crash(e))
            elif isinstance(event, Partition):
                self.sim.schedule(delay, lambda e=event: self._partition(e))
            elif isinstance(event, LinkJitter):
                self.sim.schedule(delay, lambda e=event: self._jitter_on(e))
            elif isinstance(event, CsiBlackout):
                self.sim.schedule(delay, lambda e=event: self._csi_off(e))
            elif isinstance(event, ControllerCrash):
                self.sim.schedule(delay, lambda e=event: self._ctrl_crash(e))
            elif isinstance(event, ControllerRestart):
                self.sim.schedule(
                    delay,
                    lambda e=event: self._ctrl_restart(e.controller_id),
                )
            elif isinstance(event, MsgDuplication):
                self.sim.schedule(delay, lambda e=event: self._dup_on(e))
            elif isinstance(event, StaleReplay):
                self.sim.schedule(delay, lambda e=event: self._replay_start(e))
            elif isinstance(event, MsgCorruption):
                self.sim.schedule(delay, lambda e=event: self._corrupt_on(e))
            elif isinstance(event, OneWayPartition):
                self.sim.schedule(delay, lambda e=event: self._oneway_on(e))
            elif isinstance(event, GrayFailure):
                self.sim.schedule(delay, lambda e=event: self._gray_on(e))
            else:  # pragma: no cover - plan types are closed
                raise TypeError(f"unknown fault event {event!r}")

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

    def _ap(self, ap_id: str):
        try:
            return self.aps[ap_id]
        except KeyError:
            raise KeyError(
                f"fault plan names unknown AP {ap_id!r}; "
                f"known: {sorted(self.aps)}"
            ) from None

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
        try:
            return self.controllers[controller_id]
        except KeyError:
            raise KeyError(
                f"fault plan names unknown controller {controller_id!r}; "
                f"known: {sorted(self.controllers)}"
            ) from None

    def _ctrl_crash(self, event: ControllerCrash) -> None:
        controller = self._controller(event.controller_id)
        if not getattr(controller, "alive", True):
            return  # already down (overlapping crash events)
        self._log("ctrl-crash", event.controller_id)
        controller.crash()
        if event.down_us is not None:
            self.sim.schedule(
                event.down_us,
                lambda: self._ctrl_restart(event.controller_id),
            )

    def _ctrl_restart(self, controller_id: str) -> None:
        controller = self._controller(controller_id)
        if getattr(controller, "alive", True):
            return  # already restarted
        self._log("ctrl-restart", controller_id)
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
