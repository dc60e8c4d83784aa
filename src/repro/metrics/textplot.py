"""Terminal rendering for the evaluation's timeseries and CDFs.

The paper's figures are line plots; in a terminal library the honest
equivalents are sparklines, bar strips, and step timelines. Examples
and the CLI use these so a run's story is visible without matplotlib.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

_BLOCKS = " ▁▂▃▄▅▆▇█"
#: Column width of a :func:`series_panel` label.
LABEL_WIDTH = 10
#: A :func:`timeline` slot before the first event.
UNKNOWN_SLOT = "."


def sparkline(
    values: Sequence[float], lo: Optional[float] = None,
    hi: Optional[float] = None,
) -> str:
    """One-line block-character plot of a series."""
    values = list(values)
    if not values:
        return ""
    lo = min(values) if lo is None else lo
    hi = max(values) if hi is None else hi
    span = hi - lo or 1.0
    out = []
    for value in values:
        level = int((value - lo) / span * (len(_BLOCKS) - 1))
        out.append(_BLOCKS[max(0, min(len(_BLOCKS) - 1, level))])
    return "".join(out)


def series_panel(series: Dict[str, Sequence[float]]) -> str:
    """Several labelled sparklines on a shared scale (0 to the highest
    peak)."""
    if not series:
        return ""
    ceiling = max((max(v) for v in series.values() if len(v)), default=1.0)
    lines = []
    for label in series:
        values = series[label]
        peak = max(values) if len(values) else 0.0
        lines.append(
            f"{label:<{LABEL_WIDTH}} {sparkline(values, 0.0, ceiling)}"
            f"  (peak {peak:.1f})"
        )
    return "\n".join(lines)


def timeline(
    events: Sequence[Tuple[float, str]],
    duration: float,
    slots: int = 60,
) -> str:
    """Step-function timeline: which label was active in each slot.

    ``events`` are (time, label) change points; labels are rendered by
    their final character (``ap3`` -> ``3``), matching the association
    panels under the paper's Figures 14/15/22.
    """
    if duration <= 0:
        return ""
    ordered = sorted(events)
    out = []
    index = -1
    for slot in range(slots):
        t = slot * duration / slots
        while index + 1 < len(ordered) and ordered[index + 1][0] <= t:
            index += 1
        if index < 0:
            out.append(UNKNOWN_SLOT)
        else:
            label = ordered[index][1]
            out.append(label[-1] if label else UNKNOWN_SLOT)
    return "".join(out)


def cdf_strip(
    values: Sequence[float], percentiles: Sequence[int] = (10, 50, 85, 90),
) -> str:
    """Compact textual CDF summary: 'p50=...  p85=...' style."""
    if not values:
        return "(no samples)"
    ordered = sorted(values)

    def pct(q: int) -> float:
        position = min(len(ordered) - 1, int(q / 100 * len(ordered)))
        return ordered[position]

    return "  ".join(f"p{q}={pct(q):.1f}" for q in percentiles)
