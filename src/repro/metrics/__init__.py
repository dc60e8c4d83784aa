"""Measurement: accuracy, capacity loss, rate logs, statistics."""

from repro.metrics.accuracy import SwitchingAccuracyMeter
from repro.metrics.capacity import CapacityLossMeter, selector_capacity_loss_mbps
from repro.obs.recorders import RateUsageLog, UplinkLossMeter
from repro.metrics.stats import cdf_points, percentile, summarize
from repro.metrics.textplot import cdf_strip, series_panel, sparkline, timeline

__all__ = [
    "SwitchingAccuracyMeter",
    "CapacityLossMeter",
    "selector_capacity_loss_mbps",
    "RateUsageLog",
    "UplinkLossMeter",
    "cdf_points",
    "percentile",
    "summarize",
    "cdf_strip",
    "series_panel",
    "sparkline",
    "timeline",
]
