"""Extension experiment: controller-kill sweep under warm-standby HA.

The paper's §6 notes the central controller is the obvious single point
of failure of the WGTT architecture; this experiment measures what the
HA subsystem (:mod:`repro.ha`) buys.  A mid-drive controller kill is
injected while a UDP downlink flow runs, for each checkpoint interval
in the sweep, and each cell reports

* **recovery latency** — kill instant → every client the dead primary
  tracked re-published by the promoted standby (detection lag +
  promotion + re-publication), from the invariant checker's crash
  record (:class:`~repro.invariants.CrashRecord`);
* **duplicate leakage** — uplink copies the server saw twice across the
  failover (the shipped dedup window should keep this near zero), plus
  the post-restore duplicates the window *caught*;
* **packets lost** — downlink datagrams that arrived at ingress while
  no controller was active (explicitly counted, never silent), and
  cyclic-queue ``overflow_drops`` (must stay zero — the backlog the
  standby's takeover resumes from is intact).

The counters (checkpoint shipping, ingress loss, re-homes, holds,
overflow) come from the metrics snapshot, where their owners publish
them.

``smoke()`` is the CI gate (``repro experiment ext_ha --smoke``):
two clients, each with a bulk TCP downlink whose ACKs are its uplink,
and one controller kill at t = 2 s, asserting promotion, full client
recovery within 250 ms of the kill, zero cyclic-queue overflow loss,
post-failover delivery progress for every client, and a clean
invariant checker — no uplink datagram delivered twice across the
promotion.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.config import WgttConfig
from repro.experiments.common import mean, seeds_for
from repro.experiments.registry import register
from repro.experiments.runner import sweep
from repro.faults.plan import ControllerCrash, FaultPlan
from repro.invariants import InvariantChecker
from repro.scenarios.testbed import Testbed, TestbedConfig
from repro.sim.engine import MS, SECOND

#: Checkpoint shipping intervals to sweep (ms).
CHECKPOINT_INTERVALS_MS = (25, 100, 400)
#: When the controller dies, relative to run start.
KILL_AT_US = 2 * SECOND
#: Recovery budget the smoke asserts (kill → all clients recovered).
SMOKE_RECOVERY_BUDGET_US = 250 * MS
#: The smoke's clients.  Two riders, so uplinks the primary delivered
#: between its last checkpoint and the kill reach the promoted standby
#: again as copies (12 at seed 3 without the ``dedup-key`` mirror).
SMOKE_SPEEDS_MPH = [25.0, 15.0]


def _ha_config(checkpoint_interval_ms: int) -> WgttConfig:
    return WgttConfig(
        ha_enabled=True,
        checkpoint_interval_us=checkpoint_interval_ms * MS,
    )


def _ms(us: Optional[int]) -> Optional[float]:
    return us / 1_000.0 if us is not None else None


def ha_summary(testbed: Testbed, checker: InvariantChecker) -> Dict:
    """A controller-kill run's numbers: latencies from the checker's
    record of the first controller crash, counters from the metrics
    snapshot.  Recovery is the last tracked client's re-publication by
    the promoted standby (the promotion itself when it tracked none)."""
    kills = [r for r in checker.records if r.action == "ctrl-crash"]
    promotion_us: Optional[int] = None
    recovery_us: Optional[int] = None
    if kills and kills[0].promotion_us is not None:
        promotion_us = kills[0].promotion_us
        if not kills[0].unrecovered():
            recovery_us = max(kills[0].latencies_us(), default=promotion_us)
    snapshot = testbed.obs.metrics.snapshot()

    def ap_total(prefix: str, suffix: str) -> int:
        return sum(
            int(value)  # type: ignore[call-overload]
            for key, value in snapshot.items()
            if key.startswith(prefix) and key.endswith(suffix)
        )

    standby = testbed.standby
    return {
        "controller_crashes": len(kills),
        "promoted": promotion_us is not None,
        "promotion_latency_ms": _ms(promotion_us),
        "recovery_latency_ms": _ms(recovery_us),
        "clients_recovered": recovery_us is not None,
        "checkpoints_shipped": snapshot["ha_checkpoints_shipped"],
        "checkpoint_bytes": snapshot["ha_checkpoint_bytes"],
        "lost_downlink": snapshot["ha_lost_downlink"],
        "aps_rehomed": ap_total("ap_stat{", ",name=rehomed}"),
        "hold_buffered": ap_total("ap_stat{", ",name=hold_buffered}"),
        "hold_dropped": ap_total("ap_stat{", ",name=hold_dropped}"),
        "hold_flushed": ap_total("ap_stat{", ",name=hold_flushed}"),
        "overflow_drops": ap_total("ap_overflow_drops{", "}"),
        "post_restore_duplicates": (
            standby.dedup.duplicates if standby.promoted else 0
        ),
    }


def cell(seed: int, checkpoint_interval_ms: int, duration_s: float) -> Dict:
    """One controller-kill run at one checkpoint interval."""
    plan = FaultPlan([ControllerCrash(at_us=KILL_AT_US, down_us=None)])
    config = TestbedConfig(
        seed=seed,
        scheme="wgtt",
        wgtt=_ha_config(checkpoint_interval_ms),
        fault_plan=plan,
    )
    testbed = Testbed(config)
    checker = testbed.install_invariant_checker()
    source, sink = testbed.add_downlink_udp_flow(0, rate_bps=4e6)
    source.start()
    uplink_sender, _ = testbed.add_uplink_tcp_flow(0)
    uplink_sender.start()
    testbed.run_seconds(duration_s)

    checker.finish()
    summary = ha_summary(testbed, checker)
    return {
        "seed": seed,
        "checkpoint_interval_ms": checkpoint_interval_ms,
        "promoted": summary["promoted"],
        "promotion_latency_ms": summary["promotion_latency_ms"],
        "recovery_latency_ms": summary["recovery_latency_ms"],
        "clients_recovered": summary["clients_recovered"],
        "lost_downlink": summary["lost_downlink"],
        "overflow_drops": summary["overflow_drops"],
        "duplicates_at_server": sink.duplicates,
        "post_restore_duplicates": summary["post_restore_duplicates"],
        "checkpoints_shipped": summary["checkpoints_shipped"],
        "checkpoint_bytes": summary["checkpoint_bytes"],
        "delivered": len(sink.arrivals),
        "sent": source.packets_sent,
    }


def run(seed: int = 3, quick: bool = True, jobs: int = 1) -> Dict:
    duration_s = 5.0 if quick else 8.0
    swept = sweep(
        cell,
        [(interval_ms, duration_s) for interval_ms in CHECKPOINT_INTERVALS_MS],
        seeds_for(seed, quick),
        jobs,
    )
    rows: List[Dict] = []
    for (interval_ms, _), cells in swept.items():
        recoveries = [
            c["recovery_latency_ms"]
            for c in cells
            if c["recovery_latency_ms"] is not None
        ]
        rows.append(
            {
                "checkpoint_interval_ms": interval_ms,
                "promoted": sum(1 for c in cells if c["promoted"]),
                "runs": len(cells),
                "mean_recovery_ms": mean(recoveries) if recoveries else None,
                "max_recovery_ms": max(recoveries) if recoveries else None,
                "lost_downlink": sum(c["lost_downlink"] for c in cells),
                "overflow_drops": sum(c["overflow_drops"] for c in cells),
                "duplicates_at_server": sum(
                    c["duplicates_at_server"] for c in cells
                ),
                "post_restore_duplicates": sum(
                    c["post_restore_duplicates"] for c in cells
                ),
                "mean_checkpoint_bytes": mean(
                    c["checkpoint_bytes"] / max(1, c["checkpoints_shipped"])
                    for c in cells
                ),
            }
        )
    return {"rows": rows}


# ----------------------------------------------------------------------
# CI smoke: one deterministic controller kill, hard pass/fail
# ----------------------------------------------------------------------


def smoke(seed: int = 3) -> Dict:
    """Kill the controller at t = 2 s; fail unless the standby promotes
    and every client recovers within the 250 ms budget, keeps receiving
    afterwards, loses nothing to cyclic-queue overflow, and the checker
    sees no datagram delivered twice."""
    plan = FaultPlan([ControllerCrash(at_us=KILL_AT_US, down_us=None)])
    config = TestbedConfig(
        seed=seed,
        scheme="wgtt",
        client_speeds_mph=SMOKE_SPEEDS_MPH,
        wgtt=_ha_config(checkpoint_interval_ms=100),
        fault_plan=plan,
    )
    testbed = Testbed(config)
    checker = testbed.install_invariant_checker()
    receivers = []
    for index in range(len(SMOKE_SPEEDS_MPH)):
        sender, receiver = testbed.add_downlink_tcp_flow(index)
        sender.start()
        receivers.append(receiver)

    # Run past the kill by exactly the recovery budget and check the
    # control plane is whole again.
    testbed.run_until(KILL_AT_US + SMOKE_RECOVERY_BUDGET_US)
    at_budget = ha_summary(testbed, checker)
    promoted_in_budget = at_budget["promoted"]
    recovered_in_budget = at_budget["clients_recovered"]
    delivered_at_budget = [receiver.rcv_nxt for receiver in receivers]

    # Then run out the drive to measure post-failover delivery.
    testbed.run_seconds(1.5)
    invariants = checker.finish()
    summary = ha_summary(testbed, checker)
    progressed = all(
        receiver.rcv_nxt > before
        for receiver, before in zip(receivers, delivered_at_budget)
    )

    # Every ingress segment is either delivered, explicitly lost at
    # ingress (no active controller), or still in flight —
    # cyclic-queue overwrites of undelivered slots must never eat one.
    overflow_ok = summary["overflow_drops"] == 0
    duplicates = invariants["counts"]["no-duplicate-delivery"]

    ok = (
        promoted_in_budget
        and recovered_in_budget
        and summary["clients_recovered"]
        and overflow_ok
        and progressed
        and bool(invariants["ok"])
    )
    return {
        "ok": ok,
        "kill_us": KILL_AT_US,
        "recovery_budget_ms": SMOKE_RECOVERY_BUDGET_US / 1_000.0,
        "promoted_in_budget": promoted_in_budget,
        "recovered_in_budget": recovered_in_budget,
        "promotion_latency_ms": summary["promotion_latency_ms"],
        "recovery_latency_ms": summary["recovery_latency_ms"],
        "overflow_drops": summary["overflow_drops"],
        "lost_downlink": summary["lost_downlink"],
        "duplicates_at_server": duplicates,
        "post_restore_duplicates": summary["post_restore_duplicates"],
        "post_failover_progress": progressed,
        "ha_summary": summary,
        "invariants": invariants,
    }


register(
    "ext_ha", "controller-kill sweep under warm-standby HA", run, smoke=smoke
)
