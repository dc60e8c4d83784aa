"""One-call soak execution: build, churn, guard, report.

:func:`run_soak` (or :class:`SoakHarness`) assembles a WGTT testbed
with an initially *empty* road, a seeded :class:`WorkloadPlan`, a
seeded continuous :class:`FaultPlan`, optional admission control, and
an :class:`SloGuard`, runs it for the configured sim time, and returns
a :class:`SoakResult` carrying the determinism fingerprint, the
violation list, and the aggregate run statistics.

Reproducibility: the harness derives every random stream from the one
seed (spawned child registries per concern), resets the process-global
PHY memos before building (they carry identity-keyed entries across
in-process runs), and never reads wall-clock time — two calls with the
same :class:`SoakConfig` produce byte-identical telemetry and equal
fingerprints.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.faults.plan import FaultPlan
from repro.obs.metrics import MetricsStream
from repro.sim.engine import SECOND
from repro.sim.rng import RngRegistry
from repro.soak.churn import ChurnDriver
from repro.soak.slo import SloBudgets, SloGuard
from repro.soak.workload import WorkloadConfig, WorkloadPlan


@dataclass
class SoakConfig:
    """Everything a soak run needs (picklable, sweep-friendly)."""

    seed: int = 1
    duration_s: float = 60.0
    num_aps: int = 8
    #: Continuous-chaos intensity (see :meth:`FaultPlan.soak`); 0
    #: disables fault injection entirely.
    fault_intensity: float = 1.0
    #: Message-level adversary intensity layered on top of the chaos
    #: plan (duplication/replay/corruption/one-way/gray windows); 0
    #: keeps soak plans byte-identical to the pre-adversary baseline.
    adversary_intensity: float = 0.0
    #: Arm the runtime protocol-invariant checker; its breaches join
    #: the guard's violations.  Off by default: the
    #: subscription wakes the trace stream, so checked runs are not
    #: fingerprint-comparable with unchecked ones.
    invariants_enabled: bool = False
    #: Build the controller with per-client fair pacing enabled.
    admission_enabled: bool = False
    workload: WorkloadConfig = field(default_factory=WorkloadConfig)
    budgets: SloBudgets = field(default_factory=SloBudgets)
    #: Guard sampling cadence.
    sample_interval_s: float = 1.0
    #: JSONL telemetry path; None keeps the run file-free.
    telemetry_path: Optional[str] = None
    #: Raise on the first violation instead of collecting.
    fail_fast: bool = False

    @property
    def duration_us(self) -> int:
        return int(self.duration_s * SECOND)


@dataclass
class SoakResult:
    """Outcome of one soak run."""

    config: SoakConfig
    ok: bool
    fingerprint: str
    violations: List[Dict[str, object]]
    samples: int
    churn_stats: Dict[str, int]
    delivery_ratio: Optional[float]
    mean_delay_us: Optional[float]
    final_metrics: Dict[str, object]

    def summary(self) -> str:
        status = "OK" if self.ok else f"{len(self.violations)} VIOLATIONS"
        delivery = (
            f"{self.delivery_ratio:.3f}"
            if self.delivery_ratio is not None
            else "n/a"
        )
        return (
            f"soak seed={self.config.seed} "
            f"dur={self.config.duration_s:.0f}s: {status}; "
            f"arrivals={self.churn_stats['arrivals']} "
            f"departures={self.churn_stats['departures']} "
            f"delivery={delivery} "
            f"fingerprint={self.fingerprint[:16]}"
        )


class SoakHarness:
    """Builds and runs one soak from a :class:`SoakConfig`."""

    def __init__(self, config: SoakConfig):
        self.config = config

    def run(self) -> SoakResult:
        from repro.phy.per import reset_phy_memo_stats, reset_phy_memos
        from repro.scenarios.testbed import Testbed, TestbedConfig
        from repro.core.config import WgttConfig

        cfg = self.config
        # Refuse a bad cadence before anything is built or opened: the
        # guard would refuse it only after the telemetry file exists.
        interval_us = int(cfg.sample_interval_s * SECOND)
        if interval_us <= 0:
            raise ValueError("sample_interval_s must be positive")
        # Identity-keyed PHY memo entries and their hit/miss counters
        # survive across in-process runs and would make the second
        # same-seed run stream different telemetry — reset both for a
        # clean determinism baseline.
        reset_phy_memos()
        reset_phy_memo_stats()

        wgtt = WgttConfig(admission_enabled=cfg.admission_enabled)
        testbed_config = TestbedConfig(
            seed=cfg.seed,
            scheme="wgtt",
            num_aps=cfg.num_aps,
            client_tracks=[],  # the road starts empty; churn fills it
            wgtt=wgtt,
        )
        plan = WorkloadPlan.generate(
            RngRegistry(cfg.seed).spawn("soak-workload"),
            cfg.duration_us,
            testbed_config.road_length_m(),
            cfg.workload,
        )
        fault_plan: Optional[FaultPlan] = None
        if cfg.fault_intensity > 0 or cfg.adversary_intensity > 0:
            fault_plan = FaultPlan.soak(
                RngRegistry(cfg.seed).spawn("soak-faults"),
                [f"ap{i}" for i in range(cfg.num_aps)],
                cfg.duration_us,
                intensity=cfg.fault_intensity,
                adversary_intensity=cfg.adversary_intensity,
            )
        testbed_config.fault_plan = fault_plan
        testbed = Testbed(testbed_config)
        checker = (
            testbed.install_invariant_checker()
            if cfg.invariants_enabled
            else None
        )

        churn = ChurnDriver(testbed, plan)
        testbed.obs.metrics.register_collector(churn.collect_metrics)
        churn.arm()

        stream: Optional[MetricsStream] = None
        if cfg.telemetry_path is not None:
            stream = MetricsStream(cfg.telemetry_path)
        guard = SloGuard(
            testbed,
            churn,
            interval_us=interval_us,
            budgets=cfg.budgets,
            stream=stream,
            fail_fast=cfg.fail_fast,
            invariants=checker,
        )
        guard.start()

        try:
            testbed.run_seconds(cfg.duration_s)
            churn.finalize()
            report = guard.finish()
        finally:
            if stream is not None:
                stream.close()

        return SoakResult(
            config=cfg,
            ok=bool(report["ok"]),
            fingerprint=str(report["fingerprint"]),
            violations=list(report["violations"]),  # type: ignore[arg-type]
            samples=int(report["samples"]),  # type: ignore[call-overload]
            churn_stats=dict(churn.stats),
            delivery_ratio=churn.delivery_ratio(),
            mean_delay_us=churn.mean_delay_us(),
            final_metrics=testbed.obs.metrics.snapshot(),
        )


def run_soak(config: Optional[SoakConfig] = None) -> SoakResult:
    """Convenience wrapper: ``run_soak(SoakConfig(seed=7))``."""
    return SoakHarness(config if config is not None else SoakConfig()).run()
