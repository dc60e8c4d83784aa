"""The ledger's four workloads, as lists of independent *cells*.

A cell is one simulation: a generated ``TestbedConfig`` (or
``SoakConfig``), the flows attached to it, and the simulated seconds it
runs.  The program under test only ever receives those config objects
and calls on its public surface (``Testbed``, ``add_*_flow``,
``run_seconds``, ``SoakHarness.run``); everything the ledger reports is
read back through public attributes after the run.

Why these four, and why these sizes, is argued in ``README.md``.  The
short form: the driver allows ~37 s per run including set-up, so a
workload is ~11 CPU-s of cells at the box's nominal speed, each run
once, and it is split into many cells with consecutive seeds because
work per simulated second follows the seed (one cell's TCP stall, one
soak's quiet road): 8 % from run to run over 8 drive cells, under 5 %
over 24.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.mobility.road import Road
from repro.mobility.vehicle import VehicleTrack
from repro.obs.metrics import metric_key
from repro.scenarios.presets import shard_corridor_config
from repro.scenarios.testbed import Testbed, TestbedConfig
from repro.soak import SloBudgets, SoakConfig, SoakHarness, WorkloadConfig
from repro.transport.udp import UDP_PACKET_BYTES

#: The paper's fig13 speed axis.
SPEEDS_MPH = (5.0, 15.0, 25.0, 35.0)

#: Simulated seconds per drive cell.  A full transit is 32 s at 5 mph
#: and 4.6 s at 35 mph, far more than a run can afford; 1.4 s gives
#: every speed the same weight, and each seed drives both from the head
#: of the array and from mid-array, so that a run sees both ends of the
#: road at 35 mph.
DRIVE_CELL_S = 1.4
DRIVE_STARTS_M = (8.0, 34.0)
DRIVE_SEEDS = 3

#: Open-loop UDP rates.  The ISSUE's sizing used 10 Mbit/s, which this
#: model's link cannot carry (half the datagrams are dropped at the
#: sender's queue and the delay reads the queue length, ~150 ms); at
#: 3 Mbit/s the median delay is 3-7 ms, so it is the path that is
#: measured, not a full queue.
UPLINK_RATE_BPS = 3e6
FLEET_RATE_BPS = 3e6

FLEET_APS = 100
FLEET_SHARDS = 10
FLEET_CLIENTS = 4
FLEET_SPEED_MPH = 35.0

#: The soak, compressed to fit the run: the ISSUE's 100 s at one rider
#: per second is ~115 arrivals and ~30 fault windows; a run can afford
#: 32 simulated seconds, so riders arrive at 6/s against a cap of 8 on
#: the road (the rest are turned away, counted), stay ~4 s, and faults
#: and adversary windows come 4x as often.  The cap also pins the load,
#: which Poisson arrivals alone leave +-30 % from cell to cell.
SOAK_RIDERS = 8
SOAK_CHAOS = 4.0
#: Few long cells, unlike the drives: over 24 seeds, events per
#: simulated second had a standard deviation of 10 % of the mean in
#: 3.2 s cells and 5.4 % in 6.4 s cells, and the delivered share 25 %
#: and 13 % -- better than the 1/sqrt(2) that twice the seeds would
#: buy (8 s cells read 6.8 % and 12 %: no further gain).  A TCP drive
#: cell gains nothing from length: 13 % at 1.4 s, 15 % at 2.8 s; its
#: stalls outlast either.
SOAK_CELL_S = 6.4
#: The harness's 0.30 delivery floor is a budget for a minute-long
#: soak.  A short cell ends with many of its riders still in the
#: uncovered first metres of the road: 3 s cells read 0.25-0.8 by seed.
SOAK_DELIVERY_FLOOR = 0.10


@dataclass
class CellResult:
    """What one cell produced, read back from outside."""

    sim_s: float
    #: One entry per flow.
    goodput_mbps: List[float]
    offered: int
    delivered: int
    #: Completed stop->start->ack durations; empty where the harness
    #: does not expose its controller (soak).
    switch_us: List[int]
    #: One-way delays of delivered UDP datagrams; empty for TCP / soak.
    delay_us: List[int]
    #: Soak only (``SoakResult.mean_delay_us``).
    delay_mean_us: Optional[float]
    #: Flat ``name -> number`` counters (the metrics snapshot, plus the
    #: sums the snapshot omits under sharding, plus transport totals).
    counters: Dict[str, float]
    checks: List[Tuple[str, bool]]
    digest: str


@dataclass
class Cell:
    label: str
    #: Everything before the first simulated microsecond.
    build: Callable[[], object]
    #: Runs what ``build`` returned to completion.
    run: Callable[[object], CellResult]


@dataclass
class Plan:
    """The cells of one workload at one seed and scale."""

    #: The untraced run: each cell once.
    timed: List[Cell]
    #: The traced run: a prefix of ``timed`` (~3.5 CPU-s), each cell
    #: once plain and once under cProfile.
    traced: List[Cell]


@dataclass
class Workload:
    name: str
    why: str
    #: ``plan(seed, scale)``: the cells, each ``scale`` of its length.
    plan: Callable[[int, float], Plan]


def _cell_seed(seed: int, k: int) -> int:
    """Seed of a run's k-th seeded cell.  Runs with neighbouring
    ``--seed`` share no cell: were cell seeds ``seed + k``, ten runs at
    seeds 1-10 would be ten windows over the same nineteen cells, alike
    among themselves and unlike the next ten."""
    return seed * 100 + k


def _digest(parts: object) -> str:
    text = json.dumps(parts, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


def _numeric(snapshot: Dict[str, object]) -> Dict[str, float]:
    return {
        key: value
        for key, value in snapshot.items()
        if isinstance(value, (int, float)) and not isinstance(value, bool)
    }


# ----------------------------------------------------------------------
# testbed cells (both drives and the corridor)
# ----------------------------------------------------------------------


def _controllers(tb: Testbed) -> list:
    if tb.shard_manager is not None:
        return [shard.controller for shard in tb.shard_manager.shards]
    return [tb.controller]


def _outside_counters(tb: Testbed) -> Dict[str, float]:
    """Counters the snapshot lacks: per-device MAC totals always, and
    the controller / AP sums the testbed only exports unsharded."""
    out: Dict[str, float] = {}

    def add(key: str, value: float) -> None:
        out[key] = out.get(key, 0) + value

    devices = [ap.device for ap in tb.wgtt_aps.values()]
    devices += [client.device for client in tb.clients]
    for device in devices:
        for name, value in device.stats.items():
            add(metric_key("device_stat", name=name), value)
    if tb.shard_manager is None:
        return out
    for controller in _controllers(tb):
        for name, value in controller.stats.items():
            add(metric_key("controller_stat", name=name), value)
        add("dedup_accepted", controller.dedup.accepted)
        add("dedup_duplicates", controller.dedup.duplicates)
        add("switches_completed", len(controller.coordinator.history))
        add("switches_abandoned", controller.coordinator.abandoned)
    for ap_id, ap in tb.wgtt_aps.items():
        for name, value in ap.stats.items():
            add(metric_key("ap_stat", ap=ap_id, name=name), value)
        # No public accessor; the testbed's own unsharded collector
        # reads the same attribute.
        add(
            metric_key("ap_overflow_drops", ap=ap_id),
            sum(queue.overflow_drops for queue in ap._cyclic.values()),
        )
    return out


def _testbed_cell(
    label: str,
    config: Callable[[], TestbedConfig],
    flow: str,
    rate_bps: float,
    sim_s: float,
) -> Cell:
    """One flow per client: ``flow`` is "tcp_down", "udp_up" or
    "udp_down" (``rate_bps`` is the UDP offered rate)."""
    tcp = flow == "tcp_down"

    def build() -> Testbed:
        return Testbed(config())

    def run(tb: Testbed) -> CellResult:
        flows = []
        for index in range(len(tb.clients)):
            if tcp:
                flows.append(tb.add_downlink_tcp_flow(index))
            elif flow == "udp_up":
                flows.append(tb.add_uplink_udp_flow(index, rate_bps=rate_bps))
            else:
                flows.append(tb.add_downlink_udp_flow(index, rate_bps=rate_bps))
        for source, _ in flows:
            source.start()
        tb.run_seconds(sim_s)
        now = tb.sim.now

        goodput, series, delays = [], [], []
        offered = delivered = 0
        counters = _numeric(tb.obs.metrics.snapshot())
        counters.update(_outside_counters(tb))
        for source, sink in flows:
            if tcp:
                goodput.append(source.throughput_mbps(now))
                series.append(sink.goodput_series_mbps(now))
                offered += source.segments_sent
                delivered += source.segments_sent - source.retransmits
                counters["tcp_timeouts"] = (
                    counters.get("tcp_timeouts", 0) + source.timeouts
                )
            else:
                goodput.append(sink.bytes_received() * 8 / sim_s / 1e6)
                series.append(sink.throughput_series_mbps(now))
                offered += source.packets_sent
                delivered += sink.packets_received()
                delays.extend(delay for _, _, _, delay in sink.arrivals)
        counters["tcp_segments_sent"] = offered if tcp else 0
        counters["tcp_retransmits"] = offered - delivered if tcp else 0

        history = [
            (r.client, r.from_ap, r.to_ap, r.started_us, r.completed_us, r.outcome)
            for controller in _controllers(tb)
            for r in controller.coordinator.history
        ]
        switch_us = [
            duration
            for controller in _controllers(tb)
            for duration in controller.coordinator.completed_durations_us()
        ]
        checks = [
            (f"{label}: every flow delivered", all(g > 0 for g in goodput)),
        ]
        if tb.shard_manager is not None:
            checks.append(
                (
                    f"{label}: no handoff abandoned",
                    counters["shard_handoffs_abandoned"] == 0,
                )
            )
        return CellResult(
            sim_s=sim_s,
            goodput_mbps=goodput,
            offered=offered,
            delivered=delivered,
            switch_us=switch_us,
            delay_us=delays,
            delay_mean_us=None,
            counters=counters,
            checks=checks,
            digest=_digest([series, history, counters]),
        )

    return Cell(label, build, run)


def _drive_plan(flow: str, rate_bps: float):
    def cell(seed: int, start_m: float, speed: float, sim_s: float) -> Cell:
        return _testbed_cell(
            f"{speed:g}mph/x{start_m:g}/seed{seed}",
            lambda: TestbedConfig(
                seed=seed,
                scheme="wgtt",
                client_speeds_mph=[speed],
                client_start_x_m=start_m,
            ),
            flow,
            rate_bps,
            sim_s,
        )

    def plan(seed: int, scale: float) -> Plan:
        timed = [
            cell(_cell_seed(seed, k), start_m, speed, DRIVE_CELL_S * scale)
            for k in range(DRIVE_SEEDS)
            for start_m in DRIVE_STARTS_M
            for speed in SPEEDS_MPH
        ]
        # The first seed: both starts, four speeds.
        return Plan(timed=timed, traced=timed[: len(timed) // DRIVE_SEEDS])

    return plan


def _fleet_config(seed: int) -> TestbedConfig:
    """100 APs in 10 shards; four cars 150 m apart, the i-th starting
    0.5 + i metres short of a shard boundary, so (with the 2 m
    hysteresis) each hands off once within 0.35 simulated seconds."""
    config = shard_corridor_config(
        num_aps=FLEET_APS, num_shards=FLEET_SHARDS, seed=seed
    )
    road = Road(length_m=config.road_length_m())
    shard_m = FLEET_APS // FLEET_SHARDS * config.ap_spacing_m
    first_boundary_x = config.first_ap_x_m + shard_m - config.ap_spacing_m / 2
    config.client_tracks = [
        VehicleTrack(
            road,
            start_x=first_boundary_x + 2 * i * shard_m - (0.5 + i),
            speed_mph=FLEET_SPEED_MPH,
        )
        for i in range(FLEET_CLIENTS)
    ]
    return config


def _fleet_plan(seed: int, scale: float) -> Plan:
    def cell(seed: int, sim_s: float) -> Cell:
        return _testbed_cell(
            f"fleet/seed{seed}",
            lambda: _fleet_config(seed),
            "udp_down",
            FLEET_RATE_BPS,
            sim_s,
        )

    timed = [cell(_cell_seed(seed, k), 0.5 * scale) for k in range(6)]
    return Plan(timed=timed, traced=timed[:2])


# ----------------------------------------------------------------------
# soak cells
# ----------------------------------------------------------------------


def _soak_cell(seed: int, sim_s: float) -> Cell:
    label = f"soak/seed{seed}"

    def build() -> SoakHarness:
        return SoakHarness(
            SoakConfig(
                seed=seed,
                duration_s=sim_s,
                invariants_enabled=True,
                fault_intensity=SOAK_CHAOS,
                adversary_intensity=SOAK_CHAOS,
                admission_enabled=True,
                sample_interval_s=0.5,
                budgets=SloBudgets(min_delivery_ratio=SOAK_DELIVERY_FLOOR),
                workload=WorkloadConfig(
                    arrival_rate_per_s=6.0,
                    mean_dwell_s=4.0,
                    max_concurrent=SOAK_RIDERS,
                    rate_min_bps=0.5e6,
                    rate_max_bps=2e6,
                ),
            )
        )

    def run(harness: SoakHarness) -> CellResult:
        result = harness.run()
        counters = _numeric(result.final_metrics)
        counters["slo_violations"] = len(result.violations)
        offered = result.churn_stats["packets_offered"]
        delivered = result.churn_stats["packets_delivered"]
        return CellResult(
            sim_s=sim_s,
            goodput_mbps=[delivered * UDP_PACKET_BYTES * 8 / sim_s / 1e6],
            offered=offered,
            delivered=delivered,
            switch_us=[],
            delay_us=[],
            delay_mean_us=result.mean_delay_us,
            counters=counters,
            checks=[
                (f"{label}: no SLO or invariant violation", result.ok),
                (f"{label}: packets delivered", delivered > 0),
            ],
            digest=_digest([result.fingerprint, result.churn_stats, counters]),
        )

    return Cell(label, build, run)


def _soak_plan(seed: int, scale: float) -> Plan:
    timed = [_soak_cell(_cell_seed(seed, k), SOAK_CELL_S * scale) for k in range(5)]
    return Plan(timed=timed, traced=timed[:1])


#: Fixed order: reports, repeats and the driver all walk it this way.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "drive8_tcp_down",
            "fig13 headline: one saturating TCP Reno downlink past the 8-AP "
            "array at 5-35 mph; fan-out, cyclic queues, A-MPDU, BA forwarding; "
            "the only workload where transport does work (closed loop, 1 flow)",
            _drive_plan("tcp_down", 0.0),
        ),
        Workload(
            "drive8_udp_up",
            "same drives the other way: 3 Mbit/s open-loop UDP uplink; every "
            "AP overhears and forwards, the controller de-duplicates; no "
            "fan-out or cyclic queue, so a downlink-only gain must leave it flat",
            _drive_plan("udp_up", UPLINK_RATE_BPS),
        ),
        Workload(
            "corridor100_fleet",
            "the scale wall: 100 APs in 10 shards, 4 cars at 35 mph with "
            "3 Mbit/s open-loop UDP downlinks; the medium walks every radio "
            "per frame, so channel dominates; exercises shard handoff",
            _fleet_plan,
        ),
        Workload(
            "soak_churn",
            "off the fast path: riders arriving and leaving under "
            "a cap, faults, backhaul adversary, admission pacing, invariant "
            "checker on the trace stream; SLO and invariant breaches count as failed",
            _soak_plan,
        ),
    )
}
