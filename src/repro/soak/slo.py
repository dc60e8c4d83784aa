"""SLO / invariant guard for endurance runs.

The guard samples the testbed on a **sim-time** cadence (so two runs of
the same seed sample at identical instants), and on every sample:

* snapshots the :class:`~repro.obs.metrics.MetricsRegistry` and streams
  it as a ``sample`` line to the JSONL telemetry stream (tail -f-able);
* probes every structure that must stay bounded — selection windows,
  dedup window, index cursors, per-AP cyclic queues, hold buffers, the
  channel map's port table, the medium's device table, the engine's
  event heap, the PHY memo LRUs, the admission pacer's backlog — and
  raises a violation the moment one exceeds its hard cap;
* every :data:`CHECKPOINT_EVERY` samples, folds the snapshot into a
  SHA-256 **fingerprint checkpoint** (written as a ``checkpoint``
  line).  Two same-seed runs must produce identical checkpoint chains —
  any divergence pinpoints *when* determinism drifted, not just that
  it did.  The ``phy_memo{...}`` counters and the ``phy_memo_max`` probe
  are streamed and bounded but not hashed: they describe the caches.

At :meth:`finish` the guard additionally asserts the **memory
plateau** (no bounded gauge may still be growing in the final third of
the run) and the **latency/loss budgets** over the churn driver's
aggregated flow outcomes, then emits a structured report.

Every breach is an :class:`~repro.invariants.InvariantViolation` whose
``invariant`` is the guard's own kind (``bounded-memory``, ``plateau``,
``budget``) and whose ``subject`` is the probe; an armed checker's
breaches pass through as they are.  ``fail_fast=True`` raises
:class:`SoakViolationError` at the offending sample; the default
collects violations so a CI smoke can report all of them at once.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, TYPE_CHECKING

from repro.core.access_point import CTRL_HOLD_BUFFER_SLOTS
from repro.invariants import InvariantViolation
from repro.obs.metrics import MetricsStream
from repro.phy.per import phy_memo_stats
from repro.sim.engine import SECOND, Timer

if TYPE_CHECKING:
    from repro.invariants import InvariantChecker
    from repro.scenarios.testbed import Testbed
    from repro.soak.churn import ChurnDriver


#: Checkpoint thinning: one fingerprint checkpoint per this many
#: samples.
CHECKPOINT_EVERY = 5
#: Slack on per-client structure caps (in-flight arrivals/retires).
CLIENT_SLACK = 8
#: End-of-run mean one-way delay ceiling (µs) over delivered pkts.
MAX_MEAN_DELAY_US = 1 * SECOND
#: Plateau test: max(final third) must not exceed
#: max(earlier samples) * tolerance + slack for any bounded gauge.
PLATEAU_TOLERANCE = 1.25
PLATEAU_SLACK = 16


class SoakViolationError(AssertionError):
    """Raised in fail-fast mode at the first violated invariant."""

    def __init__(self, violations: List[InvariantViolation]):
        self.violations = violations
        lines = "; ".join(v.message for v in violations)
        super().__init__(f"soak SLO violated: {lines}")


@dataclass
class SloBudgets:
    """The hard caps a run may set; the fixed ones are module constants.

    The per-client structure caps scale with the rider cap the guard
    reads off its churn driver (plus :data:`CLIENT_SLACK`).  Budgets
    marked end-of-run are only evaluated at :meth:`SloGuard.finish`.
    """

    #: Engine event-heap ceiling (events).
    max_pending_events: int = 250_000
    #: End-of-run delivered/offered floor over all finished flows.
    min_delivery_ratio: float = 0.30


class SloGuard:
    """Cadenced sampler + invariant checker + telemetry streamer."""

    def __init__(
        self,
        testbed: "Testbed",
        churn: Optional["ChurnDriver"] = None,
        *,
        interval_us: int = 1 * SECOND,
        budgets: Optional[SloBudgets] = None,
        stream: Optional[MetricsStream] = None,
        fail_fast: bool = False,
        invariants: Optional["InvariantChecker"] = None,
    ):
        if interval_us <= 0:
            raise ValueError("interval_us must be positive")
        self._testbed = testbed
        self._churn = churn
        #: Riders that may be on the road at once: the churn driver's
        #: admission cap, or the fixed population when there is none.
        self._max_riders = (
            churn.max_concurrent if churn is not None
            else len(testbed.clients)
        )
        #: Optional runtime protocol-invariant checker; when present,
        #: its breaches join the guard's on the sample cadence (and at
        #: :meth:`finish`).
        self._invariants = invariants
        self._interval_us = interval_us
        self.budgets = budgets if budgets is not None else SloBudgets()
        self._stream = stream
        self._fail_fast = fail_fast
        self._timer = Timer(testbed.sim, self._sample)
        self.samples = 0
        self.violations: List[InvariantViolation] = []
        #: Probe history for the plateau check: probe -> [value, ...].
        self._series: Dict[str, List[float]] = {}
        self._checkpoints: List[str] = []
        self._finished = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        self._timer.start(self._interval_us)

    def stop(self) -> None:
        self._timer.stop()

    @property
    def fingerprint(self) -> str:
        """SHA-256 over the checkpoint chain — the run's identity."""
        digest = hashlib.sha256()
        for checkpoint in self._checkpoints:
            digest.update(checkpoint.encode("ascii"))
        return digest.hexdigest()

    # ------------------------------------------------------------------
    # probes
    # ------------------------------------------------------------------

    #: (probe, snapshot key) — controller gauges its collector already
    #: publishes.  An absent key (baseline scheme, sharded topology,
    #: admission off) leaves the probe out, as the owner decided.
    _SNAPSHOT_PROBES = (
        ("controller_tracked_clients", "controller_tracked_clients"),
        ("controller_index_cursors", "controller_index_cursors"),
        ("selector_series", "controller_selector_series"),
        ("dedup_window", "controller_dedup_window"),
        ("admission_backlog", "admission_backlog"),
        ("admission_clients", "admission_clients"),
    )

    def _probe(self, snapshot: Mapping[str, Any]) -> Dict[str, float]:
        """Every bounded structure, read without side effects: the
        controller gauges from this sample's metrics snapshot, the
        rest through their owners' public accessors."""
        testbed = self._testbed
        out: Dict[str, float] = {
            "engine_pending_events": testbed.sim.pending_events(),
            "channel_ports": testbed.channel.port_count(),
            "medium_devices": len(testbed.medium.devices()),
            "clients_active": len(testbed.clients),
            "clients_retiring": testbed.retiring_count(),
        }
        for probe, key in self._SNAPSHOT_PROBES:
            if key in snapshot:
                out[probe] = snapshot[key]
        if testbed.wgtt_aps:
            out["ap_cyclic_queues_max"] = max(
                ap.cyclic_queue_count() for ap in testbed.wgtt_aps.values()
            )
            out["ap_hold_buffer_max"] = max(
                ap.hold_buffer_depth() for ap in testbed.wgtt_aps.values()
            )
        out["phy_memo_max"] = max(
            stats["size"] for stats in phy_memo_stats().values()
        )
        if self._churn is not None:
            out["churn_pending_dereg"] = self._churn.pending_dereg_count()
        return out

    def _limits(self) -> Dict[str, float]:
        """Hard cap per probe (absent probes are unbounded-by-policy)."""
        budgets = self.budgets
        testbed = self._testbed
        per_client = self._max_riders + CLIENT_SLACK
        num_aps = len(testbed.ap_ids)
        wgtt = testbed.config.wgtt
        limits: Dict[str, float] = {
            "engine_pending_events": budgets.max_pending_events,
            "channel_ports": num_aps + per_client + 2,
            "medium_devices": num_aps + per_client + 2,
            "clients_active": per_client,
            "controller_tracked_clients": per_client,
            "controller_index_cursors": per_client,
            "selector_series": per_client * max(1, num_aps),
            "dedup_window": 0,  # replaced below with the real capacity
            "ap_cyclic_queues_max": per_client,
            "ap_hold_buffer_max": CTRL_HOLD_BUFFER_SLOTS,
            "admission_backlog": per_client * wgtt.admission_queue_slots,
            "admission_clients": per_client,
            "churn_pending_dereg": per_client,
        }
        controller = testbed.controller
        if controller is not None:
            limits["dedup_window"] = controller.dedup.capacity
        limits["phy_memo_max"] = max(
            stats["capacity"] for stats in phy_memo_stats().values()
        )
        return limits

    # ------------------------------------------------------------------
    # sampling
    # ------------------------------------------------------------------

    def _sample(self) -> None:
        sim = self._testbed.sim
        self.samples += 1
        snapshot = self._testbed.obs.metrics.snapshot()
        probes = self._probe(snapshot)
        for name, value in probes.items():
            self._series.setdefault(name, []).append(float(value))
        if self._stream is not None:
            self._stream.write(
                sim.now, "sample", {"metrics": snapshot, "probes": probes}
            )
        fresh: List[InvariantViolation] = []
        limits = self._limits()
        for name, limit in limits.items():
            value = probes.get(name)
            if value is not None and value > limit:
                fresh.append(
                    InvariantViolation(
                        t_us=sim.now,
                        invariant="bounded-memory",
                        subject=name,
                        message=(
                            f"{name}={value} exceeds bound {limit} "
                            f"at t={sim.now}us"
                        ),
                    )
                )
        if self._invariants is not None:
            fresh.extend(self._invariants.drain_new())
        if self.samples % CHECKPOINT_EVERY == 0:
            run = {k: v for k, v in snapshot.items() if not k.startswith("phy_memo{")}
            bounded = {k: v for k, v in probes.items() if k != "phy_memo_max"}
            payload = json.dumps(
                {"t_us": sim.now, "metrics": run, "probes": bounded},
                sort_keys=True,
                separators=(",", ":"),
            )
            checkpoint = hashlib.sha256(payload.encode()).hexdigest()
            self._checkpoints.append(checkpoint)
            if self._stream is not None:
                self._stream.write(
                    sim.now, "checkpoint", {"sha256": checkpoint}
                )
        self._record(fresh)
        self._timer.start(self._interval_us)

    def _record(self, fresh: List[InvariantViolation]) -> None:
        if not fresh:
            return
        self.violations.extend(fresh)
        if self._stream is not None:
            for violation in fresh:
                self._stream.write(
                    violation.t_us, "violation", violation.to_dict()
                )
        if self._fail_fast:
            raise SoakViolationError(fresh)

    # ------------------------------------------------------------------
    # end of run
    # ------------------------------------------------------------------

    #: Probes subject to the plateau test: the per-client structures a
    #: reclamation leak would inflate.  Capacity-bounded FIFOs/LRUs
    #: (dedup window, PHY memos, hold buffers, pacing backlog) are
    #: excluded — filling toward a hard cap is their designed behaviour
    #: and the hard cap above already polices them.
    PLATEAU_PROBES = (
        "clients_active",
        "clients_retiring",
        "channel_ports",
        "medium_devices",
        "controller_tracked_clients",
        "controller_index_cursors",
        "selector_series",
        "ap_cyclic_queues_max",
        "admission_clients",
        "churn_pending_dereg",
    )

    def _check_plateau(self) -> List[InvariantViolation]:
        """No leak-prone gauge may still be growing late in the run."""
        out: List[InvariantViolation] = []
        for name in self.PLATEAU_PROBES:
            series = self._series.get(name, [])
            if len(series) < 6:
                continue
            split = (2 * len(series)) // 3
            early_peak = max(series[:split])
            late_peak = max(series[split:])
            allowed = early_peak * PLATEAU_TOLERANCE + PLATEAU_SLACK
            if late_peak > allowed:
                out.append(
                    InvariantViolation(
                        t_us=self._testbed.sim.now,
                        invariant="plateau",
                        subject=name,
                        message=(
                            f"{name} still growing: late peak "
                            f"{late_peak} > allowed {allowed:.1f} "
                            f"(early peak {early_peak})"
                        ),
                    )
                )
        return out

    def _check_budgets(self) -> List[InvariantViolation]:
        out: List[InvariantViolation] = []
        if self._churn is None:
            return out
        now = self._testbed.sim.now
        delivery = self._churn.delivery_ratio()
        if (
            delivery is not None
            and delivery < self.budgets.min_delivery_ratio
        ):
            out.append(
                InvariantViolation(
                    t_us=now,
                    invariant="budget",
                    subject="delivery_ratio",
                    message=(
                        f"delivery ratio {delivery:.3f} below floor "
                        f"{self.budgets.min_delivery_ratio}"
                    ),
                )
            )
        delay = self._churn.mean_delay_us()
        if delay is not None and delay > MAX_MEAN_DELAY_US:
            out.append(
                InvariantViolation(
                    t_us=now,
                    invariant="budget",
                    subject="mean_delay_us",
                    message=(
                        f"mean delay {delay:.0f}us above ceiling "
                        f"{MAX_MEAN_DELAY_US:.0f}us"
                    ),
                )
            )
        return out

    def finish(self) -> Dict[str, object]:
        """Stop sampling, run end-of-run checks, emit the report."""
        if self._finished:
            raise RuntimeError("guard already finished")
        self._finished = True
        self.stop()
        if self._invariants is not None:
            self._invariants.finish()  # one last probe before draining
            self._record(self._invariants.drain_new())
        self._record(self._check_plateau())
        self._record(self._check_budgets())
        report: Dict[str, object] = {
            "samples": self.samples,
            "checkpoints": len(self._checkpoints),
            "fingerprint": self.fingerprint,
            "violations": [v.to_dict() for v in self.violations],
            "ok": not self.violations,
        }
        if self._stream is not None:
            self._stream.write(self._testbed.sim.now, "summary", report)
        return report
