"""The built-in analysis passes."""

from repro.analysis.passes.checkpoint import CheckpointCoveragePass
from repro.analysis.passes.determinism import DeterminismPass
from repro.analysis.passes.metricnames import MetricNamePass
from repro.analysis.passes.tracekinds import TraceKindPass

__all__ = [
    "CheckpointCoveragePass",
    "DeterminismPass",
    "MetricNamePass",
    "TraceKindPass",
]
