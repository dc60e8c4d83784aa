"""The observability context: tracer + metrics.

:class:`ObsConfig` is the picklable, config-file-friendly knob set that
rides on :class:`~repro.scenarios.testbed.TestbedConfig` (so parallel
``run_grid`` workers rebuild the same context); :class:`ObsContext` is
the live object every :class:`~repro.sim.engine.Simulator` carries as
``sim.obs``.  Everything defaults off: a default-configured run keeps
``tracer.active`` False, which is what keeps fault-free runs
bit-identical to the pre-obs tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer

__all__ = ["ObsConfig", "ObsContext"]


@dataclass(frozen=True)
class ObsConfig:
    """Observability switches (all off by default)."""

    #: Record trace events/spans for export.
    trace: bool = False
    #: Also keep per-packet ("detail") records; large files.
    detail: bool = False


class ObsContext:
    """One tracer + one metrics registry."""

    def __init__(self, config: Optional[ObsConfig] = None):
        self.config = config if config is not None else ObsConfig()
        self.trace = Tracer(
            recording=self.config.trace, detail=self.config.detail
        )
        self.metrics = MetricsRegistry()
