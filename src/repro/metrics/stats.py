"""Small statistics helpers shared by the experiment drivers."""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

import numpy as np


def cdf_points(values: Iterable[float]) -> List[Tuple[float, float]]:
    """Empirical CDF as (value, probability) pairs, sorted by value."""
    data = sorted(values)
    n = len(data)
    if n == 0:
        return []
    return [(value, (i + 1) / n) for i, value in enumerate(data)]


def percentile(values: Sequence[float], q: float) -> float:
    """The q-th percentile (q in [0, 100]) of ``values``."""
    if not values:
        raise ValueError("percentile of empty sequence")
    return float(np.percentile(np.asarray(values, dtype=float), q))


def summarize(values: Sequence[float]) -> dict:
    """Mean / std / min / median / max in one dict (for table rows)."""
    if not values:
        return {"n": 0, "mean": 0.0, "std": 0.0, "min": 0.0, "median": 0.0, "max": 0.0}
    arr = np.asarray(values, dtype=float)
    return {
        "n": int(arr.size),
        "mean": float(arr.mean()),
        "std": float(arr.std(ddof=1)) if arr.size > 1 else 0.0,
        "min": float(arr.min()),
        "median": float(np.median(arr)),
        "max": float(arr.max()),
    }
