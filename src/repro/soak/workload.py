"""Seeded heavy-tailed workload plans for endurance runs.

A :class:`WorkloadPlan` is pure data, fully materialized before the
simulation starts (the same contract as :class:`repro.faults.plan.FaultPlan`):
a list of :class:`ClientSession` entries — one per rider — each with an
arrival time (Poisson process), a dwell bounded by the vehicle's
transit of the road, a mobility draw (speed, direction, entry point),
and a handful of UDP flows whose byte sizes follow a bounded Pareto
distribution.  Heavy-tailed sizes are the operational reality the
MAC-rate-adaptation vehicular measurements report: most sessions move
a few hundred kilobytes, a few move hundreds of megabytes, and the
admission pacer has to survive both.

Every draw comes from a named stream of the caller's
:class:`~repro.sim.rng.RngRegistry`, so a plan is a deterministic
function of ``(seed, config, duration)`` — two generations are
element-identical, which is the foundation of the soak's
byte-reproducibility contract.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.mobility.road import MPH_TO_MPS
from repro.sim.engine import SECOND
from repro.sim.rng import RngRegistry

#: Vehicle speed is drawn uniformly from these choices (mph).
SPEED_CHOICES_MPH: Tuple[float, ...] = (10.0, 15.0, 25.0, 35.0)
#: Probability a rider enters at x=0 heading +x (near lane) versus
#: entering at the far end heading back.
FORWARD_FRACTION = 0.75
#: Flows per session: 1 + Poisson(EXTRA_FLOWS_MEAN).
EXTRA_FLOWS_MEAN = 0.5
#: Probability a flow is downlink (the transit-rider asymmetry).
DOWNLINK_FRACTION = 0.8
#: Bounded-Pareto flow sizes: most sessions small, a heavy tail of
#: large transfers, hard-capped so one draw cannot dominate a run.
SIZE_ALPHA = 1.3
#: Flow start offsets are uniform within this span of the session.
START_SPREAD_US = 2 * SECOND


@dataclass(frozen=True)
class FlowSpec:
    """One flow inside a client session (times relative to arrival)."""

    #: "udp-dl" (server → client) or "udp-ul" (client → server).
    kind: str
    #: Offered CBR rate while the flow is active.
    rate_bps: float
    #: Heavy-tailed total transfer size; the flow stops once the
    #: source has offered this many bytes (or the client departs).
    size_bytes: int
    #: Start offset within the session.
    start_offset_us: int

    @property
    def duration_us(self) -> int:
        """How long the source runs to offer ``size_bytes``."""
        return max(1, int(self.size_bytes * 8 / self.rate_bps * SECOND))


@dataclass(frozen=True)
class ClientSession:
    """One rider: arrival, mobility, dwell, and traffic."""

    client_id: str
    arrive_us: int
    dwell_us: int
    speed_mph: float
    direction: int
    start_x: float
    flows: Tuple[FlowSpec, ...]


@dataclass
class WorkloadConfig:
    """Knobs of the churn + traffic generator."""

    #: Poisson client arrival rate over the whole soak.
    arrival_rate_per_s: float = 1.0
    #: Mean of the exponential dwell draw; the actual dwell is
    #: min(draw, vehicle transit duration) and at least ``min_dwell_us``.
    mean_dwell_s: float = 30.0
    min_dwell_us: int = 2 * SECOND
    #: Rider population cap enforced by the churn driver — arrivals
    #: beyond it are rejected (counted), modelling a full bus stop.
    max_concurrent: int = 64
    #: Bounds of the bounded-Pareto flow size (``SIZE_ALPHA``).
    size_min_bytes: int = 64 * 1024
    size_max_bytes: int = 64 * 1024 * 1024
    #: Per-flow offered rate, drawn uniformly in this closed range.
    rate_min_bps: float = 1e6
    rate_max_bps: float = 8e6


def _bounded_pareto(u: float, alpha: float, xmin: float, xmax: float) -> float:
    """Inverse-CDF sample of a bounded Pareto from a uniform draw."""
    ratio = (xmin / xmax) ** alpha
    return xmin / (1.0 - u * (1.0 - ratio)) ** (1.0 / alpha)


@dataclass
class WorkloadPlan:
    """An arrival-ordered churn + traffic schedule (pure data)."""

    sessions: List[ClientSession] = field(default_factory=list)
    config: WorkloadConfig = field(default_factory=WorkloadConfig)

    def __iter__(self):
        return iter(self.sessions)

    @classmethod
    def generate(
        cls,
        rng: RngRegistry,
        duration_us: int,
        road_length_m: float,
        config: Optional[WorkloadConfig] = None,
    ) -> "WorkloadPlan":
        """Materialize a plan from named rng streams (``soak/...``).

        Stream-per-concern (arrivals, dwell, mobility, flows, sizes,
        rates) mirrors :meth:`FaultPlan.random`: changing one knob
        never perturbs another concern's draws.
        """
        if duration_us <= 0:
            raise ValueError("duration_us must be positive")
        if road_length_m <= 0:
            raise ValueError("road_length_m must be positive")
        cfg = config if config is not None else WorkloadConfig()

        arrivals_gen = rng.stream("soak/arrivals")
        dwell_gen = rng.stream("soak/dwell")
        mobility_gen = rng.stream("soak/mobility")
        flows_gen = rng.stream("soak/flows")
        sizes_gen = rng.stream("soak/sizes")
        rates_gen = rng.stream("soak/rates")

        duration_s = duration_us / SECOND
        count = int(arrivals_gen.poisson(cfg.arrival_rate_per_s * duration_s))
        arrive_times = sorted(
            int(arrivals_gen.integers(0, duration_us)) for _ in range(count)
        )

        sessions: List[ClientSession] = []
        for i, arrive_us in enumerate(arrive_times):
            speed = SPEED_CHOICES_MPH[
                int(mobility_gen.integers(0, len(SPEED_CHOICES_MPH)))
            ]
            forward = mobility_gen.random() < FORWARD_FRACTION
            direction = 1 if forward else -1
            start_x = 0.0 if forward else road_length_m
            # Dwell: an exponential "ride time" clipped to the physical
            # transit — the vehicle leaves the modelled road segment.
            transit_us = int(
                road_length_m / (speed * MPH_TO_MPS) * SECOND
            )
            dwell_us = min(
                transit_us,
                int(dwell_gen.exponential(cfg.mean_dwell_s) * SECOND),
            )
            dwell_us = max(cfg.min_dwell_us, dwell_us)

            n_flows = 1 + int(flows_gen.poisson(EXTRA_FLOWS_MEAN))
            flows: List[FlowSpec] = []
            for j in range(n_flows):
                kind = (
                    "udp-dl"
                    if flows_gen.random() < DOWNLINK_FRACTION
                    else "udp-ul"
                )
                size = int(
                    _bounded_pareto(
                        float(sizes_gen.random()),
                        SIZE_ALPHA,
                        float(cfg.size_min_bytes),
                        float(cfg.size_max_bytes),
                    )
                )
                rate = float(
                    rates_gen.uniform(cfg.rate_min_bps, cfg.rate_max_bps)
                )
                offset = int(flows_gen.integers(0, START_SPREAD_US))
                flows.append(
                    FlowSpec(
                        kind=kind,
                        rate_bps=rate,
                        size_bytes=size,
                        start_offset_us=offset,
                    )
                )
            sessions.append(
                ClientSession(
                    client_id=f"rider{i:05d}",
                    arrive_us=arrive_us,
                    dwell_us=dwell_us,
                    speed_mph=speed,
                    direction=direction,
                    start_x=start_x,
                    flows=tuple(flows),
                )
            )
        return cls(sessions=sessions, config=cfg)
