"""Arms a :class:`FaultPlan` against a built testbed.

The injector is deliberately dumb: it walks the (pre-sorted, fully
materialised) plan and schedules one sim callback per event, which
asks the event to open itself and, if it lasts, to close again later
(:meth:`FaultEvent.open` / :meth:`FaultEvent.close` — what crash,
partition, jitter or blackout *means* lives on the event class).  It
draws **no randomness at execution time**; the only generators it
hands out are per-window streams whose labels are derived from the
plan's own (deterministic) event fields.  Two runs of the same
``(seed, plan)`` therefore produce byte-identical fault traces and
byte-identical protocol behaviour.

The injector duck-types its target: anything with ``sim``,
``backhaul``, ``rng`` and a ``wgtt_aps`` (or ``aps``) mapping works,
so unit rigs don't need a full :class:`~repro.scenarios.testbed.Testbed`;
controller faults address whatever its ``shards`` (if any) hold.
"""

from __future__ import annotations

from typing import Collection, Dict, List, Tuple

from repro.faults.plan import FaultEvent, FaultPlan


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
        #: Controllers addressable by ControllerCrash:
        #: every region's primary and standby, by backhaul id.
        self.controllers: Dict[str, object] = {
            ctrl.controller_id: ctrl
            for shard in getattr(testbed, "shards", ())
            for ctrl in shard.controllers()
        }
        #: (time_us, action, subject) — the executed fault trace; the
        #: actions are the event classes' ``actions`` pairs.
        self.events: List[Tuple[int, str, str]] = []
        self._armed = False

    @property
    def gray_windows(self) -> int:
        """Gray-failure windows opened so far (metrics surface this)."""
        return sum(1 for _, action, _ in self.events if action == "gray-on")

    def collect_metrics(self) -> Dict[str, object]:
        """Executed-fault totals for the metrics snapshot."""
        out: Dict[str, object] = {"faults_executed": len(self.events)}
        gray_windows = self.gray_windows
        if gray_windows:
            out["faults_gray_windows"] = gray_windows
        return out

    def arm(self) -> None:
        """Schedule every fault in the plan.  Idempotent-hostile: call once.

        A plan naming an AP, controller or backhaul node this testbed
        does not have is refused here, before anything is scheduled —
        not by the fault's callback, mid-run, and not by a window that
        opens on nobody.
        """
        if self._armed:
            raise RuntimeError("FaultInjector.arm() called twice")
        known: Dict[str, Collection[str]] = {
            "AP": self.aps,
            "controller": self.controllers,
            "backhaul node": self.backhaul.nodes(),
        }
        for event in self.plan:
            for what, node_id in event.names():
                if node_id not in known[what]:
                    raise KeyError(
                        f"fault plan names unknown {what} {node_id!r}; "
                        f"known: {sorted(known[what])}"
                    )
        self._armed = True
        now = self.sim.now
        for event in self.plan:
            self.sim.schedule(
                max(0, event.at_us - now), lambda e=event: self._run(e)
            )

    def _run(self, event: FaultEvent) -> None:
        handle = event.open(self)
        if handle is not None and event.lasts_us is not None:
            self.sim.schedule(
                event.lasts_us, lambda: event.close(self, handle)
            )

    def log(self, action: str, subject: str) -> None:
        """Record one executed fault action (events call this)."""
        self.events.append((self.sim.now, action, subject))
        tracer = self.sim.obs.trace
        tracer.emit(
            "faults", "fault", track="faults", action=action, subject=subject
        )

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
