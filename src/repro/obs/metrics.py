"""Central metrics registry: pull-style collectors, one snapshot.

One :class:`MetricsRegistry` per :class:`~repro.obs.context.ObsContext`
gathers the counters every subsystem keeps in its own ``stats`` dict
(cyclic ``overflow_drops``, dedup hits, switch outcomes, liveness
misses, backhaul loss...).  There is one feeding style: the component
that owns the numbers exposes ``collect_metrics()`` returning
``{metric_key: value}``, and whoever builds the component registers it
with ``registry.register_collector(component.collect_metrics)``.
Collectors run only when a snapshot is requested, so the hot paths keep
their plain ``dict[key] += 1`` increments — zero added cost and zero
behaviour risk for the bit-identity contract.

Snapshots are plain ``{key: value}`` dicts with deterministically
sorted keys, so a snapshot JSON-round-trips byte-identically.
"""

from __future__ import annotations

import json
from typing import Callable, Dict, List

__all__ = [
    "MetricsRegistry",
    "MetricsStream",
    "metric_key",
]


def metric_key(name: str, /, **labels: object) -> str:
    """Canonical registry key: ``name{a=1,b=x}`` with sorted labels.

    The metric name is positional-only so a label may itself be called
    ``name`` (``metric_key("controller_stat", name="heartbeats")``).
    """
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


class MetricsRegistry:
    """Registry of snapshot-time collectors."""

    def __init__(self) -> None:
        self._collectors: List[Callable[[], Dict[str, object]]] = []

    def register_collector(self, collect: Callable[[], Dict[str, object]]) -> None:
        """Register a pull-style source: called at :meth:`snapshot`
        time, returning ``{metric_key: value}``.  Collector keys
        overwrite earlier collectors' keys (registration order)."""
        self._collectors.append(collect)

    def snapshot(self) -> Dict[str, object]:
        """All current values, keys deterministically sorted."""
        merged: Dict[str, object] = {}
        for collect in self._collectors:
            merged.update(collect())
        return {key: merged[key] for key in sorted(merged)}

    def to_json(self) -> str:
        """Canonical JSON rendering; ``json.loads`` round-trips it to
        exactly :meth:`snapshot`'s dict."""
        return json.dumps(self.snapshot(), sort_keys=True, separators=(",", ":"))

    def export_json(self, path: str) -> None:
        with open(path, "w") as handle:
            handle.write(self.to_json())
            handle.write("\n")


class MetricsStream:
    """Append-only JSONL telemetry stream of registry snapshots.

    One line per sample: ``{"t_us": ..., "kind": ..., ...payload}`` in
    canonical JSON (sorted keys, minimal separators), flushed per line
    so a soak can be watched live with ``tail -f``.  The soak SLO
    guard writes ``sample`` lines (full snapshots), ``checkpoint``
    lines (determinism fingerprints) and ``violation`` lines through
    the same stream, giving one chronologically ordered artifact per
    run.
    """

    def __init__(self, path: str):
        self.path = path
        self._handle = open(path, "w")
        self.lines_written = 0

    def write(self, t_us: int, kind: str, payload: Dict[str, object]) -> None:
        record: Dict[str, object] = {"t_us": int(t_us), "kind": kind}
        record.update(payload)
        self._handle.write(
            json.dumps(record, sort_keys=True, separators=(",", ":"))
        )
        self._handle.write("\n")
        self._handle.flush()
        self.lines_written += 1

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()
