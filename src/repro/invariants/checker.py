"""Runtime protocol-invariant checker (paper §3 correctness claims).

The checker watches one built testbed from the *outside*: it subscribes
to the observability trace stream for the protocol events it needs and
runs a periodic state probe over controller/AP structures.  It never
mutates protocol state and never draws randomness, so an armed checker
cannot change what a run does — only what the run can *prove*.

Every probe walks ``testbed.shards``, one control plane per region, so
the paper's single controller and a sharded corridor are checked by
the same code: one active controller *per region*, handshakes and
liveness verdicts audited against each region's own active controller,
serving duty audited across *all* regions' APs.

Checked invariants
------------------

``single-serving-ap``
    At any probe instant, at most one **alive** AP holds serving duty
    for a client.  Clients mid-handshake (coordinator slot busy) are
    exempt, as is any overlap the controller cannot yet observe or
    repair: an involved AP that is declared dead, or separated from
    the controller by a (possibly one-way) partition.  Overlap must
    clear within a reconvergence slack once the excuse lifts.
``monotonic-serving-gen``
    Serving-update publications for a client carry strictly increasing
    ``(epoch_us, seq)`` generations.  A regression means two controller
    incarnations are publishing concurrently (split brain) or an epoch
    went backwards.
``switch-span-terminates``
    Every switch/failover handshake leaves the pending table within the
    retransmission schedule's worst-case envelope — it completes, is
    aborted, or fails over; nothing hangs.  Ages are measured from the
    later of the handshake start and the current controller epoch, so
    an outage frozen by ``halt()`` is not charged to the handshake.
``no-duplicate-delivery``
    No datagram key is handed to the server twice within the dedup
    window — the server-side :class:`~repro.core.dedup.PacketDeduplicator`
    actually suppressed every adversary-injected copy.
``single-active-controller``
    At most one controller of a region is alive in an active role
    ("primary" or promoted "active") at any probe instant.
``bounded-retry-storm``
    No handshake retransmits more than ``SWITCH_RETRY_LIMIT`` times —
    duplicated/replayed control traffic must not amplify into a storm.
``liveness-agreement``
    The controller's AP liveness verdict agrees with ground truth,
    except while the AP is genuinely unreachable (partition, one-way
    partition) and within the detection/recovery slack after a
    transition.

A corridor of several regions (:class:`ShardInvariantChecker`) swaps
one name:

``single-owner-shard``
    Every client is tracked by at most one shard's active controller,
    and when tracked, by the shard the manager's ownership map names.
    Brief untracked windows (a handoff in backhaul flight) are legal;
    double-tracking never is.

``monotonic-serving-gen`` gives way to it: serving generations are
scoped to one controller incarnation, and a client that hands off
legitimately restarts its generation sequence on the new shard.
``single-serving-ap`` gains two excuses there — a handoff in flight,
and a departure whose teardown is racing the probe.  The trace-fed
``no-duplicate-delivery`` needs no change and matters most: it audits
the *merged* server ingress stream, so a copy delivered by two
different shards is caught exactly like one that escaped a single
controller's dedup window.

Crash recovery records
----------------------

Besides judging invariants the checker keeps one :class:`CrashRecord`
per executed crash, in :attr:`InvariantChecker.records`, built from the
``fault`` events (actions ``crash`` and ``ctrl-crash``, emitted just
before the node dies), ``serving-update`` publications and the
promoted standby's ``promotion`` span.  A record belongs to the region
of the node that crashed.

* **AP crash.**  The affected clients are the ones the region's active
  controller has the AP serving at the crash instant.  Each recovers at
  its first serving-update naming another AP of the region, or naming
  the crashed AP after its ``restart`` fault (it took the client back
  over a failover to itself).  A client the live active controller
  stops tracking first (it departed), or that a serving-update puts in
  another region (a handoff), closes without a verdict.
* **Controller crash.**  The affected clients are every client the
  crashed controller tracked.  Each recovers at its first
  re-publication by the incarnation that took over (a serving-update
  whose generation epoch is at or after the crash: the promoted
  standby's, or the restarted controller's).  Later serving-updates
  are mobility switches, not recovery.  With a standby, the record
  also holds the crash → promotion latency.

Records are observations, not invariants: the deadlines live in the
gates that assert them (``ext_faults``, ``ext_ha``), and no record
reaches :meth:`InvariantChecker.collect_metrics`.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.core.liveness import HEARTBEAT_MISS_LIMIT
from repro.core.switching import (
    SWITCH_BACKOFF_MAX_US,
    SWITCH_RETRY_LIMIT,
    SWITCH_TIMEOUT_US,
)
from repro.obs.metrics import metric_key
from repro.sim.engine import Timer


#: Default probe cadence: 20 probes per simulated second.
DEFAULT_INTERVAL_US = 50_000

#: How long an excused serving overlap may persist after the excuse
#: lifts before it counts as a violation (serving-update propagation
#: plus one probe period, with margin).
DEFAULT_RECONVERGE_SLACK_US = 250_000


@dataclass(frozen=True)
class InvariantViolation:
    """One observed invariant breach, machine-readable."""

    t_us: int
    invariant: str
    subject: str
    message: str

    def to_dict(self) -> Dict[str, object]:
        return {
            "t_us": self.t_us,
            "invariant": self.invariant,
            "subject": self.subject,
            "message": self.message,
        }


@dataclass
class CrashRecord:
    """One crash in one region and the recovery of each client it
    left to recover (see "Crash recovery records" above)."""

    t_us: int
    #: The fault action: ``"crash"`` (an AP) or ``"ctrl-crash"``.
    action: str
    #: The AP or controller that crashed.
    subject: str
    #: The region (shard index) the crashed node belongs to.
    region: int
    #: Clients left to recover, as tracked at the crash instant.
    affected: List[str]
    #: (client, latency_us, ap) per recovered client, in recovery
    #: order; latency counts from the crash instant.
    recovered: List[Tuple[str, int, str]] = field(default_factory=list)
    #: Clients that stopped being tracked first: no verdict.
    untracked: List[str] = field(default_factory=list)
    #: Crash → standby promotion (controller crash only).
    promotion_us: Optional[int] = None
    #: Crash → restart of the crashed AP (AP crash only).
    restart_us: Optional[int] = None

    def unrecovered(self) -> List[str]:
        """Affected clients with no recovery and no excuse (yet)."""
        closed = {client for client, _, _ in self.recovered}
        closed.update(self.untracked)
        return [client for client in self.affected if client not in closed]

    def latencies_us(self) -> List[int]:
        return [latency for _, latency, _ in self.recovered]


class InvariantChecker:
    """Trace-fed + probe-based runtime checker for one testbed.

    Construct it against a built (WGTT-scheme) testbed, call
    :meth:`start` before the run and :meth:`finish` after.  The
    :class:`~repro.scenarios.testbed.Testbed` convenience
    ``install_invariant_checker()`` does the wiring — including
    registering :meth:`collect_metrics` with the metrics registry, so
    violations surface in snapshots and soak telemetry.
    """

    INVARIANTS: Tuple[str, ...] = (
        "bounded-retry-storm",
        "liveness-agreement",
        "monotonic-serving-gen",
        "no-duplicate-delivery",
        "single-active-controller",
        "single-serving-ap",
        "switch-span-terminates",
    )

    #: Trace event names the checker consumes.
    TRACE_NAMES: Tuple[str, ...] = (
        "fault",
        "promotion",
        "serving-update",
        "uplink-deliver",
        "switch-retry",
    )

    def __init__(
        self,
        testbed,
        *,
        interval_us: int = DEFAULT_INTERVAL_US,
        max_violations: int = 256,
    ):
        if interval_us <= 0:
            raise ValueError("interval_us must be positive")
        self._testbed = testbed
        self._sim = testbed.sim
        self._interval_us = interval_us
        self._max_violations = max_violations
        #: ap -> the region whose controller answers for it.
        self._ap_region = {
            ap_id: shard for shard in testbed.shards for ap_id in shard.aps
        }
        #: controller id -> (its region, the controller).
        self._controllers = {
            ctrl.controller_id: (shard, ctrl)
            for shard in testbed.shards
            for ctrl in shard.controllers()
        }
        self._timer = Timer(self._sim, self._probe_tick)
        self.started = False
        self.finished = False
        #: Probe rounds completed.
        self.checks = 0
        #: All recorded violations (capped at ``max_violations``;
        #: counters keep counting past the cap).
        self.violations: List[InvariantViolation] = []
        #: Per-invariant violation counts (every invariant present).
        self.counts: Dict[str, int] = {name: 0 for name in self.INVARIANTS}
        self._drained = 0

        # -- trace-fed state ------------------------------------------
        #: client -> highest serving generation observed on the stream.
        self._serving_gen: Dict[str, Tuple[int, int]] = {}
        #: Recently server-delivered dedup keys (mirrors the dedup
        #: window's FIFO policy and capacity so bounded-memory eviction
        #: in the protocol is never misread as duplicate delivery).
        self._delivered: "OrderedDict[int, None]" = OrderedDict()
        self._delivered_cap = int(testbed.shards[0].controller.dedup.capacity)
        #: One record per executed crash, in order.
        self.records: List[CrashRecord] = []
        #: The records some affected client is still open on.
        self._open: List[CrashRecord] = []

        # -- probe episode state --------------------------------------
        #: client -> first probe time an inexcusable overlap was seen.
        self._overlap_since: Dict[str, int] = {}
        #: ap -> first probe time an inexcusable disagreement was seen.
        self._disagree_since: Dict[str, int] = {}
        #: (invariant, subject) pairs already flagged for the current
        #: episode — a persisting condition is reported once, not once
        #: per probe.
        self._flagged: Set[Tuple[str, str]] = set()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Subscribe to the trace stream and start probing."""
        if self.started:
            raise RuntimeError("InvariantChecker.start() called twice")
        self.started = True
        self._sim.obs.trace.subscribe(self._on_event, names=self.TRACE_NAMES)
        self._timer.start(self._interval_us)

    def finish(self) -> Dict[str, object]:
        """Stop probing, run one final probe, return the report."""
        if not self.finished:
            self.finished = True
            self._timer.stop()
            self._probe()
        return {
            "checks": self.checks,
            "ok": not self.violations,
            "counts": dict(self.counts),
            "violations": [v.to_dict() for v in self.violations],
        }

    def drain_new(self) -> List[InvariantViolation]:
        """Violations recorded since the previous drain (soak guard
        integration: each sample converts fresh breaches to SLO
        violations exactly once)."""
        fresh = self.violations[self._drained:]
        self._drained = len(self.violations)
        return fresh

    def total_violations(self) -> int:
        return sum(self.counts.values())

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------

    def collect_metrics(self) -> Dict[str, object]:
        """Registry collector: deterministic, sorted, always-complete.

        Every invariant exports a labelled count even at zero — a soak
        fingerprint must not change shape the moment something breaks.
        """
        out: Dict[str, object] = {
            "invariant_checks": self.checks,
            "invariant_violations_total": self.total_violations(),
        }
        for name in sorted(self.counts):
            out[metric_key("invariant_violations", invariant=name)] = (
                self.counts[name]
            )
        return out

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------

    def _violate(self, invariant: str, subject: str, message: str) -> None:
        self.counts[invariant] += 1
        violation = InvariantViolation(
            t_us=self._sim.now,
            invariant=invariant,
            subject=subject,
            message=message,
        )
        if len(self.violations) < self._max_violations:
            self.violations.append(violation)
        tracer = self._sim.obs.trace
        tracer.emit(
            "invariants",
            "invariant-violation",
            track="invariants",
            invariant=invariant,
            subject=subject,
            message=message,
        )

    def _violate_once(
        self, invariant: str, subject: str, message: str
    ) -> None:
        """Flag a *persisting* condition once per episode."""
        key = (invariant, subject)
        if key in self._flagged:
            return
        self._flagged.add(key)
        self._violate(invariant, subject, message)

    def _clear_episode(self, invariant: str, subject: str) -> None:
        self._flagged.discard((invariant, subject))

    def _keep_episodes(self, invariant: str, subjects: Set[str]) -> None:
        """Close every episode of ``invariant`` but those still seen."""
        self._flagged = {
            key
            for key in self._flagged
            if key[0] != invariant or key[1] in subjects
        }

    # ------------------------------------------------------------------
    # trace-fed invariants
    # ------------------------------------------------------------------

    def _on_event(self, event) -> None:
        name = event.name
        if name == "serving-update":
            self._check_serving_gen(event)
            if self._open:
                self._record_serving_update(event)
        elif name == "uplink-deliver":
            self._check_duplicate_delivery(event)
        elif name == "switch-retry":
            self._check_retry_storm(event)
        elif name == "fault":
            self._record_crash(event)
        elif name == "promotion":
            self._record_promotion(event)

    def _check_serving_gen(self, event) -> None:
        client = str(event.tags.get("client"))
        gen = event.tags.get("gen")
        if not isinstance(gen, tuple):
            return  # pre-generation publisher (non-wgtt schemes)
        last = self._serving_gen.get(client)
        if last is not None and tuple(gen) <= last:
            self._violate(
                "monotonic-serving-gen",
                client,
                (
                    f"serving-update generation {gen} for {client} does "
                    f"not exceed previously published {last} — two "
                    f"controller incarnations are publishing"
                ),
            )
            return
        self._serving_gen[client] = tuple(gen)

    def _check_duplicate_delivery(self, event) -> None:
        key = event.tags.get("key")
        if key is None:
            return
        if event.tags.get("protocol") == "arp":
            return  # headerless traffic legitimately bypasses dedup
        key = int(key)
        if key in self._delivered:
            self._violate(
                "no-duplicate-delivery",
                str(event.tags.get("src")),
                (
                    f"datagram key {key:#x} (src={event.tags.get('src')} "
                    f"ip_id={event.tags.get('ip_id')}) delivered to the "
                    f"server twice — a duplicate escaped dedup"
                ),
            )
            return
        self._delivered[key] = None
        if len(self._delivered) > self._delivered_cap:
            self._delivered.popitem(last=False)

    def _check_retry_storm(self, event) -> None:
        retries = int(event.tags.get("retries", 0))
        if retries > SWITCH_RETRY_LIMIT:
            client = str(event.tags.get("client"))
            self._violate(
                "bounded-retry-storm",
                client,
                (
                    f"switch {event.tags.get('switch_id')} for {client} "
                    f"retransmitted {retries} times, past the "
                    f"{SWITCH_RETRY_LIMIT}-retry cap"
                ),
            )

    # ------------------------------------------------------------------
    # crash recovery records
    # ------------------------------------------------------------------

    def _record_crash(self, event) -> None:
        """Open a record (the node is still up, its state intact), or
        note an AP's restart on its open record."""
        action = event.tags.get("action")
        subject = str(event.tags.get("subject"))
        if action == "restart":
            for record in self._open:
                if record.subject == subject and record.restart_us is None:
                    record.restart_us = event.ts - record.t_us
            return
        if action == "crash":
            shard = self._ap_region[subject]
            active = shard.active_controller()
            affected = (
                [
                    client
                    for client in active.tracked_clients()
                    if active.serving_ap(client) == subject
                ]
                if active is not None and active.alive
                else []
            )
        elif action == "ctrl-crash":
            shard, ctrl = self._controllers[subject]
            affected = ctrl.tracked_clients()
        else:
            return
        record = CrashRecord(
            t_us=event.ts,
            action=action,
            subject=subject,
            region=shard.region.shard,
            affected=affected,
        )
        self.records.append(record)
        if affected:
            self._open.append(record)

    def _record_promotion(self, event) -> None:
        """The ``promotion`` span starts when the standby promotes."""
        shard, _ = self._controllers[str(event.tags.get("node"))]
        for record in self.records:
            if (
                record.action == "ctrl-crash"
                and record.region == shard.region.shard
                and record.promotion_us is None
            ):
                record.promotion_us = event.ts - record.t_us

    def _record_serving_update(self, event) -> None:
        client = str(event.tags.get("client"))
        ap_id = str(event.tags.get("ap"))
        gen = event.tags.get("gen")
        shard = self._ap_region.get(ap_id)
        for record in self._open:
            if client not in record.unrecovered():
                continue
            if shard is None or shard.region.shard != record.region:
                record.untracked.append(client)  # handed to another region
            elif record.action == "crash":
                if ap_id != record.subject or record.restart_us is not None:
                    record.recovered.append(
                        (client, event.ts - record.t_us, ap_id)
                    )
            elif isinstance(gen, tuple) and gen[0] >= record.t_us:
                record.recovered.append((client, event.ts - record.t_us, ap_id))
        self._open = [record for record in self._open if record.unrecovered()]

    def _close_departed(self, live) -> None:
        """AP crash records: a client the region's live active
        controller no longer tracks has left before recovering."""
        actives = {shard.region.shard: active for shard, active in live}
        for record in self._open:
            active = actives.get(record.region)
            if record.action != "crash" or active is None:
                continue
            for client in record.unrecovered():
                if not active.tracks(client):
                    record.untracked.append(client)
        self._open = [record for record in self._open if record.unrecovered()]

    # ------------------------------------------------------------------
    # periodic state probes
    # ------------------------------------------------------------------

    def _probe_tick(self) -> None:
        self._probe()
        self._timer.start(self._interval_us)

    def _probe(self) -> None:
        self.checks += 1
        self._probe_single_active_controller()
        self._probe_single_serving()
        live = self._live_regions()
        if self._open:
            self._close_departed(live)
        self._probe_switch_spans(live)
        for shard, active in live:
            self._probe_liveness_agreement(shard, active)

    def _live_regions(self) -> list:
        """(region, its active controller) wherever one is up."""
        live = []
        for shard in self._testbed.shards:
            active = shard.active_controller()
            if active is not None and active.alive:
                live.append((shard, active))
        return live

    def _probe_single_active_controller(self) -> None:
        violating: Set[str] = set()
        for shard in self._testbed.shards:
            actives = sorted(
                c.controller_id
                for c in shard.controllers()
                if c.alive
                and getattr(c, "role", "primary") in ("primary", "active")
            )
            if len(actives) > 1:
                subject = ",".join(actives)
                violating.add(subject)
                self._violate_once(
                    "single-active-controller",
                    subject,
                    f"{len(actives)} controllers active at once: {actives}",
                )
        self._keep_episodes("single-active-controller", violating)

    def _probe_single_serving(self) -> None:
        testbed = self._testbed
        now = self._sim.now
        serving: Dict[str, List[str]] = {}
        for ap_id in sorted(testbed.wgtt_aps):
            ap = testbed.wgtt_aps[ap_id]
            if not ap.alive:
                continue
            for client in ap.serving_clients():
                serving.setdefault(client, []).append(ap_id)
        overlapping = set()
        for client, holders in serving.items():
            if len(holders) <= 1:
                continue
            if self._overlap_excused(client, holders):
                continue
            overlapping.add(client)
            since = self._overlap_since.setdefault(client, now)
            if now - since >= DEFAULT_RECONVERGE_SLACK_US:
                self._violate_once(
                    "single-serving-ap",
                    client,
                    (
                        f"{client} held by {len(holders)} alive APs "
                        f"({holders}) for {now - since}us with no "
                        f"handshake in flight and no partition excuse"
                    ),
                )
        for client in list(self._overlap_since):
            if client not in overlapping:
                del self._overlap_since[client]
                self._clear_episode("single-serving-ap", client)

    def _overlap_excused(self, client: str, holders: List[str]) -> bool:
        """Each holder is judged against its own region's controller —
        the only authority that can see and repair it."""
        backhaul = self._testbed.backhaul
        for ap_id in holders:
            active = self._ap_region[ap_id].active_controller()
            if active is None or not active.alive:
                return True  # no authority exists to reconcile the overlap
            if active.coordinator.busy(client):
                return True  # mid-handshake: duty is legitimately moving
            if ap_id in active.dead_aps():
                return True  # controller already quarantined this AP
            controller_id = active.controller_id
            if backhaul.unreachable(
                controller_id, ap_id
            ) or backhaul.unreachable(ap_id, controller_id):
                return True  # repair traffic cannot reach it (yet)
        return False

    def _probe_switch_spans(self, regions) -> None:
        if not regions:
            return  # nobody to ask; open episodes keep their flag
        now = self._sim.now
        bound = self._switch_age_bound_us()
        live: Set[str] = set()
        for _, active in regions:
            pending = active.coordinator.pending_switches()
            for client_id, switch_id, record in pending:
                subject = f"{client_id}/{switch_id}"
                live.add(subject)
                # Charge the handshake only for time under a live
                # controller: halt() freezes retransmission clocks, and
                # a restore resumes them at the new epoch.
                started = max(record.started_us, active.epoch_us)
                age = now - started
                if age > bound:
                    self._violate_once(
                        "switch-span-terminates",
                        subject,
                        (
                            f"switch {switch_id} for {client_id} "
                            f"pending {age}us, past the {bound}us "
                            f"retransmission envelope"
                        ),
                    )
        self._keep_episodes("switch-span-terminates", live)

    def _probe_liveness_agreement(self, shard, active) -> None:
        backhaul = self._testbed.backhaul
        now = self._sim.now
        slack = self._liveness_slack_us()
        declared_dead = active.dead_aps()
        controller_id = active.controller_id
        disagreeing = set()
        for ap_id in sorted(shard.aps):
            ap = shard.aps[ap_id]
            declared = ap_id in declared_dead
            actual = not ap.alive
            if declared == actual:
                continue
            if backhaul.unreachable(
                ap_id, controller_id
            ) or backhaul.unreachable(controller_id, ap_id):
                # Genuinely unreachable: the verdict is the best any
                # failure detector could do.  The episode clock resets
                # so detection gets a full window after the heal.
                self._disagree_since.pop(ap_id, None)
                continue
            disagreeing.add(ap_id)
            since = self._disagree_since.setdefault(ap_id, now)
            if now - since >= slack:
                verdict = "dead" if declared else "alive"
                truth = "dead" if actual else "alive"
                self._violate_once(
                    "liveness-agreement",
                    ap_id,
                    (
                        f"controller says {ap_id} is {verdict} but it "
                        f"is {truth}, and has been for {now - since}us "
                        f"(> {slack}us detection slack) with the "
                        f"backhaul reachable"
                    ),
                )
        for ap_id in shard.aps:
            if ap_id in self._disagree_since and ap_id not in disagreeing:
                del self._disagree_since[ap_id]
                self._clear_episode("liveness-agreement", ap_id)

    # ------------------------------------------------------------------
    # derived bounds
    # ------------------------------------------------------------------

    def _switch_age_bound_us(self) -> int:
        """Worst-case pending lifetime from the retransmission schedule.

        The coordinator times out after ``SWITCH_TIMEOUT_US`` with
        bounded exponential backoff capped at ``SWITCH_BACKOFF_MAX_US``
        and abandons after ``SWITCH_RETRY_LIMIT`` retries — summing the
        per-round caps (every round bounded by the backoff cap) plus
        two extra rounds of margin for in-flight backhaul latency and
        probe quantisation.
        """
        per_round = max(SWITCH_TIMEOUT_US, SWITCH_BACKOFF_MAX_US)
        rounds = SWITCH_RETRY_LIMIT + 1
        return per_round * (rounds + 2)

    def _liveness_slack_us(self) -> int:
        """Detection-lag allowance for the liveness table.

        Death detection lags by up to ``(miss_limit + 1)`` heartbeat
        periods; recovery by one period plus backhaul latency.  Allow
        one extra period for probe quantisation.
        """
        interval = self._testbed.config.wgtt.heartbeat_interval_us
        return (HEARTBEAT_MISS_LIMIT + 2) * interval


class ShardInvariantChecker(InvariantChecker):
    """The checker for a corridor of several regions: what is genuinely
    about sharding, on top of the probes every topology shares."""

    INVARIANTS: Tuple[str, ...] = (
        "bounded-retry-storm",
        "liveness-agreement",
        "no-duplicate-delivery",
        "single-active-controller",
        "single-owner-shard",
        "single-serving-ap",
        "switch-span-terminates",
    )

    def _check_serving_gen(self, event) -> None:
        """Generations restart on every handoff: nothing to compare."""

    def _probe(self) -> None:
        super()._probe()
        self._probe_single_owner_shard()

    def _probe_single_owner_shard(self) -> None:
        manager = self._testbed.shard_manager
        tracked: Dict[str, List[int]] = {}
        for shard, ctrl in self._live_regions():
            for client in ctrl.tracked_clients():
                tracked.setdefault(client, []).append(shard.region.shard)
        violating: Set[str] = set()
        for client in sorted(tracked):
            holders = tracked[client]
            owner = manager.owner_of(client)
            if len(holders) > 1:
                violating.add(client)
                self._violate_once(
                    "single-owner-shard",
                    client,
                    (
                        f"{client} tracked by {len(holders)} shard "
                        f"controllers at once ({holders}); owner map "
                        f"says shard {owner}"
                    ),
                )
            elif owner is not None and holders[0] != owner:
                violating.add(client)
                self._violate_once(
                    "single-owner-shard",
                    client,
                    (
                        f"{client} tracked by shard {holders[0]} but "
                        f"the ownership map names shard {owner}"
                    ),
                )
        self._keep_episodes("single-owner-shard", violating)

    def _overlap_excused(self, client: str, holders: List[str]) -> bool:
        manager = self._testbed.shard_manager
        if manager.handoff_in_flight(client):
            return True  # duty is legitimately moving between shards
        if manager.owner_of(client) is None:
            return True  # departing: teardown is racing the probe
        return super()._overlap_excused(client, holders)
