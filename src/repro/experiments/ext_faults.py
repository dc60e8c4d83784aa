"""Extension experiment: chaos sweep — crash rate × partition duration.

The paper's deployment ran eight healthy APs for a week; a transit
network runs thousands of cells for years, and cells *will* die.  This
sweep turns the fault-injection subsystem (:mod:`repro.faults`) loose
on the standard drive-by: AP crashes arrive as a Poisson process,
backhaul partitions cut AP subsets off the controller, and each cell
reports

* **failover latency** — crash instant → client re-served by a live AP
  (heartbeat detection lag + emergency handshake), from the invariant
  checker's crash records (:class:`~repro.invariants.CrashRecord`);
* **throughput retained** — chaos-run TCP throughput over the
  fault-free twin run of the same seed;
* **deadline violations** — recoveries slower than
  :data:`FAILOVER_DEADLINE_US` (100 ms) plus clients never
  recovered.

``smoke()`` is the CI gate (``repro experiment ext_faults
--smoke``): one mid-drive crash of the serving AP, asserting recovery
within the deadline, TCP forward progress afterwards, and a clean
invariant checker; then one cold restart of a controller without a
standby, and one restart of a lone AP before its dead verdict (it
takes its client back over a failover to itself), each asserting the
first downlink datagram after the restart within the same deadline
and a clean checker.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.apps.bulk import Drive
from repro.experiments.common import mean, seeds_for
from repro.experiments.registry import register
from repro.experiments.runner import sweep
from repro.faults.plan import ApCrash, ControllerCrash, FaultPlan, Partition
from repro.invariants import InvariantChecker
from repro.scenarios.testbed import Testbed, TestbedConfig
from repro.sim.engine import MS, SECOND
from repro.sim.rng import RngRegistry

#: AP crash arrival rates to sweep (per second of sim time).
CRASH_RATES_PER_S = (0.1, 0.3)
#: Backhaul partition durations to sweep (seconds; 0 = no partitions).
PARTITION_DURATIONS_S = (0.0, 0.2)
#: Partition arrival rate whenever partitions are enabled.
PARTITION_RATE_PER_S = 0.2
#: How long a crashed AP stays down before restarting.
CRASH_DOWN_US = 500_000
#: Recovery budget: a client whose serving AP dies mid-drive should
#: be transmitting again from a live AP within this long of the
#: crash.  With a 20 ms heartbeat and miss limit 3, detection takes
#: at most ~80 ms, leaving ~20 ms for the failover handshake.
FAILOVER_DEADLINE_US = 100 * MS


def failover_summary(checker: InvariantChecker) -> Dict:
    """The AP crashes the checker recorded, judged against
    :data:`FAILOVER_DEADLINE_US`: a recovery past it, and an affected
    client never recovered, each count as one deadline violation."""
    crashes = [r for r in checker.records if r.action == "crash"]
    latencies = [latency for r in crashes for latency in r.latencies_us()]
    unrecovered = sum(len(r.unrecovered()) for r in crashes)
    late = sum(1 for latency in latencies if latency > FAILOVER_DEADLINE_US)
    failover_ms = [latency / 1_000.0 for latency in latencies]
    return {
        "crashes": len(crashes),
        "affected_client_crashes": sum(1 for r in crashes if r.affected),
        "recovered": len(latencies),
        "unrecovered": unrecovered,
        "untracked": sum(len(r.untracked) for r in crashes),
        "deadline_violations": late + unrecovered,
        "deadline_ms": FAILOVER_DEADLINE_US / 1_000.0,
        "failover_ms": failover_ms,
        "mean_failover_ms": (
            sum(failover_ms) / len(failover_ms) if failover_ms else None
        ),
        "max_failover_ms": max(failover_ms) if failover_ms else None,
    }


def _plan_for(
    seed: int,
    ap_ids: List[str],
    duration_us: int,
    crash_rate_per_s: float,
    partition_duration_s: float,
) -> FaultPlan:
    """Draw the cell's fault schedule from its own named streams.

    The plan registry is spawned off the run seed, so plan draws can
    never perturb the testbed's channel/MAC streams — and the same
    (seed, rates) always yields the same plan.
    """
    plan_rng = RngRegistry(seed).spawn("faultplan")
    return FaultPlan.random(
        plan_rng,
        ap_ids,
        duration_us,
        {
            ApCrash: crash_rate_per_s,
            Partition: PARTITION_RATE_PER_S if partition_duration_s > 0 else 0.0,
        },
        overrides={
            ApCrash: {"down_us": CRASH_DOWN_US},
            Partition: {"duration_us": int(partition_duration_s * SECOND)},
        },
    )


def cell(
    seed: int,
    crash_rate_per_s: float,
    partition_duration_s: float,
    duration_s: float,
) -> Dict:
    """One chaos run plus its fault-free twin, same seed."""
    duration_us = int(duration_s * SECOND)
    ap_ids = [f"ap{i}" for i in range(TestbedConfig().num_aps)]
    plan = _plan_for(
        seed, ap_ids, duration_us, crash_rate_per_s, partition_duration_s
    )

    def one_run(fault_plan: Optional[FaultPlan]) -> Dict:
        config = TestbedConfig(seed=seed, scheme="wgtt", fault_plan=fault_plan)
        drive = Drive(config, "tcp")
        checker = (
            drive.testbed.install_invariant_checker()
            if fault_plan is not None
            else None
        )
        drive.run(duration_s)
        out = {
            "throughput_mbps": drive.throughput_mbps(),
            "switches": drive.switch_count(),
        }
        if checker is not None:
            checker.finish()
            out["audit"] = failover_summary(checker)
        return out

    baseline = one_run(None)
    chaos = one_run(plan)
    retained = (
        chaos["throughput_mbps"] / baseline["throughput_mbps"]
        if baseline["throughput_mbps"] > 0
        else 0.0
    )
    return {
        "crash_rate_per_s": crash_rate_per_s,
        "partition_s": partition_duration_s,
        "planned_faults": len(plan),
        "crashes": chaos["audit"]["crashes"],
        "throughput_mbps": chaos["throughput_mbps"],
        "throughput_retained": retained,
        "failover_ms": chaos["audit"]["failover_ms"],
        "deadline_violations": chaos["audit"]["deadline_violations"],
    }


def run(seed: int = 3, quick: bool = True, jobs: int = 1) -> Dict:
    duration_s = 8.0 if quick else 12.0
    swept = sweep(
        cell,
        [
            (crash_rate, partition_s, duration_s)
            for crash_rate in CRASH_RATES_PER_S
            for partition_s in PARTITION_DURATIONS_S
        ],
        seeds_for(seed, quick),
        jobs,
    )
    rows: List[Dict] = []
    for crash_rate in CRASH_RATES_PER_S:
        for partition_s in PARTITION_DURATIONS_S:
            cells = swept[crash_rate, partition_s, duration_s]
            latencies = [v for c in cells for v in c["failover_ms"]]
            rows.append(
                {
                    "crash_rate_per_s": crash_rate,
                    "partition_s": partition_s,
                    "crashes": sum(c["crashes"] for c in cells),
                    "throughput_mbps": mean(
                        c["throughput_mbps"] for c in cells
                    ),
                    "throughput_retained": mean(
                        c["throughput_retained"] for c in cells
                    ),
                    "mean_failover_ms": mean(latencies) if latencies else None,
                    "max_failover_ms": (
                        max(latencies) if latencies else None
                    ),
                    "deadline_violations": sum(
                        c["deadline_violations"] for c in cells
                    ),
                }
            )
    return {"rows": rows}


# ----------------------------------------------------------------------
# CI smoke: one deterministic mid-drive crash, hard pass/fail
# ----------------------------------------------------------------------


def smoke(seed: int = 3) -> Dict:
    """Crash the serving AP mid-drive; fail unless the client recovers
    within the failover deadline, TCP makes forward progress, and the
    invariant checker stays clean."""
    testbed = Testbed(TestbedConfig(seed=seed, scheme="wgtt"))
    checker = testbed.install_invariant_checker()
    sender, receiver = testbed.add_downlink_tcp_flow(0)
    sender.start()

    # Let the drive settle, then kill whichever AP is serving.
    testbed.run_seconds(2.0)
    victim = testbed.serving_ap_of(0)
    crash_us = testbed.sim.now
    plan = FaultPlan(
        [ApCrash(at_us=crash_us, ap_id=victim, down_us=2 * SECOND)]
    )
    testbed.install_fault_plan(plan)

    # Segments delivered by the crash instant, then run out the drive.
    segments_at_crash = receiver.rcv_nxt
    testbed.run_seconds(3.0)

    invariants = checker.finish()
    summary = failover_summary(checker)
    progressed = receiver.rcv_nxt > segments_at_crash
    restart = cold_restart(seed)
    lone_ap = lone_ap_restart(seed)
    ok = (
        summary["crashes"] == 1
        and summary["recovered"] >= 1
        and summary["unrecovered"] == 0
        and summary["deadline_violations"] == 0
        and progressed
        and bool(invariants["ok"])
        and restart["ok"]
        and lone_ap["ok"]
    )
    return {
        "ok": ok,
        "victim": victim,
        "crash_us": crash_us,
        "deadline_ms": FAILOVER_DEADLINE_US / 1_000.0,
        "failover_ms": summary["failover_ms"],
        "recovered_to": [
            ap for r in checker.records for (_, _, ap) in r.recovered
        ],
        "tcp_forward_progress": progressed,
        "summary": summary,
        "invariants": invariants,
        "cold_restart": restart,
        "lone_ap_restart": lone_ap,
    }


def cold_restart(seed: int) -> Dict:
    """No standby: the controller dies at 1 s for 200 ms under a
    2 Mbit/s UDP downlink.  Fails unless the first datagram after the
    restart lands within the failover deadline, checker clean."""
    plan = FaultPlan([ControllerCrash(at_us=SECOND, down_us=200 * MS)])
    return _restart_run(seed, plan, 1_200 * MS, 3 * SECOND)[0]


def lone_ap_restart(seed: int) -> Dict:
    """One AP, a client parked 10 m along that only it hears, and a
    2 Mbit/s UDP downlink: the AP dies at 0.5 s for 20 ms, back before
    its dead verdict.  Fails unless the first datagram after the
    restart lands within the failover deadline, the crash record
    closes, and the checker is clean."""
    plan = FaultPlan([ApCrash(at_us=500 * MS, ap_id="ap0", down_us=20 * MS)])
    result, checker = _restart_run(
        seed, plan, 520 * MS, 1_500 * MS,
        num_aps=1, client_speeds_mph=[0.0], client_start_x_m=10.0,
    )
    [record] = checker.records
    result["crash_recovered"] = not record.unrecovered()
    result["ok"] = result["ok"] and result["crash_recovered"]
    return result


def _restart_run(
    seed: int, plan: FaultPlan, restart_us: int, until_us: int, **config
) -> Tuple[Dict, InvariantChecker]:
    """A 2 Mbit/s UDP downlink to client 0 under ``plan``, judged on
    its first datagram after ``restart_us``; and the checker."""
    testbed = Testbed(TestbedConfig(seed=seed, fault_plan=plan, **config))
    checker = testbed.install_invariant_checker()
    source, sink = testbed.add_downlink_udp_flow(0, rate_bps=2e6)
    source.start()
    testbed.run_until(until_us)
    invariants = checker.finish()
    after = [t - restart_us for t, _, _, _ in sink.arrivals if t >= restart_us]
    return {
        "ok": bool(after and after[0] <= FAILOVER_DEADLINE_US and invariants["ok"]),
        "first_datagram_ms": after[0] / 1_000.0 if after else None,
        "delivered_after_restart": len(after),
        "invariants": invariants,
    }, checker


register(
    "ext_faults", "chaos sweep: crash rate x partition duration", run,
    smoke=smoke,
)
