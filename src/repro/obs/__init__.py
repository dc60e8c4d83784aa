"""Unified observability layer: tracing and metrics.

* :mod:`repro.obs.trace` — structured event/span tracer with sim-time
  stamps, JSONL and Chrome ``trace_event`` export;
* :mod:`repro.obs.metrics` — central metrics registry (owner-published
  collectors, labelled keys, deterministic snapshots);
* :mod:`repro.obs.schema` — the event schema and a JSONL validator
  (``python -m repro.obs.schema trace.jsonl``);
* :mod:`repro.obs.recorders` — the experiment recorders
  (:class:`RateUsageLog` & co.), re-homed as event-stream consumers.
  Imported on demand, not here: it depends on the simulation stack,
  while this package root stays import-cycle-free so the engine itself
  can depend on :class:`ObsContext`.

Everything is off by default; a default-configured run is bit-identical
to one built before this package existed.  See docs/observability.md.
"""

from repro.obs.context import ObsConfig, ObsContext
from repro.obs.metrics import MetricsRegistry, metric_key
from repro.obs.trace import TraceEvent, Tracer, chrome_trace

__all__ = [
    "ObsConfig",
    "ObsContext",
    "MetricsRegistry",
    "metric_key",
    "TraceEvent",
    "Tracer",
    "chrome_trace",
]
