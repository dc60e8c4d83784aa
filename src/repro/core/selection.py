"""WGTT AP selection: maximal median ESNR over a sliding window.

Every CSI report an AP forwards becomes one (time, ESNR) reading for
that client↔AP link. The controller keeps the last W = 10 ms of
readings per link and, when asked, picks the AP whose *median* reading
is highest (paper §3.1.1, Figure 6). The median — not the mean or the
latest sample — is what rides out single-frame fading flukes while
still reacting within the window.

The same window also defines the downlink fan-out set: the APs that
have heard anything from the client recently (paper footnote 1).

Performance: this is the code the controller runs every 2 ms for every
client, so the window is maintained *incrementally*.  Each link keeps
its readings twice — in arrival order (a deque, for O(1) expiry) and
in value order (a bisect-maintained sorted list) — giving O(log n)
``record``, O(1) median, and no per-query ``sorted()``.  Series that
prune to empty are dropped outright (and the per-client dict with
them), so a long multi-client run never accumulates dead state; the
surviving per-client dict doubles as the cached candidate set.
"""

from __future__ import annotations

from bisect import insort, bisect_left
from collections import deque
from math import fsum
from typing import Deque, Dict, List, Optional, Tuple

from repro.sim.engine import MS

#: ESNR comparison sliding window W (§3.1.1; §5.3.1 picks 10 ms).
SELECTION_WINDOW_US = 10 * MS


class _Window:
    """One link's sliding window, in arrival order and value order.

    ``entries`` is the arrival-ordered (time, value) deque the pruning
    walks; ``sorted_values`` is the same multiset in value order.  The
    incremental median is *exactly* the ``sorted(...)[n // 2]`` of the
    reference implementation — the equivalence property test in
    ``tests/test_perf_equivalence.py`` holds it to that, element for
    element, over randomized insert/expire sequences.
    """

    __slots__ = ("entries", "sorted_values")

    def __init__(self) -> None:
        self.entries: Deque[Tuple[int, float]] = deque()
        self.sorted_values: List[float] = []

    def add(self, time_us: int, value: float) -> None:
        self.entries.append((time_us, value))
        insort(self.sorted_values, value)

    def prune(self, horizon_us: int) -> None:
        """Drop readings strictly older than ``horizon_us``."""
        entries = self.entries
        while entries and entries[0][0] < horizon_us:
            _, value = entries.popleft()
            values = self.sorted_values
            del values[bisect_left(values, value)]

    def statistic(self, metric: str) -> float:
        if metric == "median":
            values = self.sorted_values
            return values[len(values) // 2]
        if metric == "latest":
            return self.entries[-1][1]
        # mean: fsum for exact agreement with the naive reference.
        return fsum(self.sorted_values) / len(self.sorted_values)


class ApSelector:
    """Sliding-window median-ESNR ranking, per client.

    ``metric`` selects the window statistic: "median" (the paper's
    choice — robust to single-frame fading flukes), "mean", or
    "latest" (agile but noise-prone); the alternatives exist for the
    ablation benches.
    """

    def __init__(
        self, window_us: int = SELECTION_WINDOW_US, metric: str = "median"
    ):
        if window_us <= 0:
            raise ValueError("window must be positive")
        if metric not in ("median", "mean", "latest"):
            raise ValueError(f"unknown selection metric {metric!r}")
        self.window_us = window_us
        self.metric = metric
        #: client -> ap -> window; empty windows are dropped eagerly.
        self._readings: Dict[str, Dict[str, _Window]] = {}

    def record(self, client_id: str, ap_id: str, time_us: int, esnr_db: float):
        """Ingest one CSI-derived ESNR reading — O(log window)."""
        per_client = self._readings.setdefault(client_id, {})
        window = per_client.get(ap_id)
        if window is None:
            window = per_client[ap_id] = _Window()
        window.add(time_us, esnr_db)
        window.prune(time_us - self.window_us)

    def _window(
        self, client_id: str, ap_id: str, now_us: int
    ) -> Optional[_Window]:
        """The pruned, non-empty window for one link (or None).

        Windows that prune to empty are deleted on the spot, so the
        per-client dict only ever holds live series.
        """
        per_client = self._readings.get(client_id)
        if per_client is None:
            return None
        window = per_client.get(ap_id)
        if window is None:
            return None
        window.prune(now_us - self.window_us)
        if not window.entries:
            del per_client[ap_id]
            if not per_client:
                del self._readings[client_id]
            return None
        return window

    def median_esnr(
        self, client_id: str, ap_id: str, now_us: int
    ) -> Optional[float]:
        """Window statistic of one link (O(1) median), or None if silent.

        No run reads one link's statistic; tests hold the incremental
        best-AP path to it (``tests/test_perf_equivalence.py``)."""
        window = self._window(client_id, ap_id, now_us)
        if window is None:
            return None
        return window.statistic(self.metric)

    def candidates(self, client_id: str, now_us: int) -> List[str]:
        """APs that heard the client within the window — the fan-out set."""
        per_client = self._readings.get(client_id)
        if not per_client:
            return []
        horizon = now_us - self.window_us
        result: List[str] = []
        dead: List[str] = []
        for ap_id, window in per_client.items():
            # O(1) freshness check; pruning only touches expired entries.
            if window.entries and window.entries[-1][0] >= horizon:
                window.prune(horizon)
                result.append(ap_id)
            else:
                dead.append(ap_id)
        for ap_id in dead:
            del per_client[ap_id]
        if not per_client:
            del self._readings[client_id]
        return result

    def best_ap(
        self,
        client_id: str,
        now_us: int,
        incumbent: Optional[str] = None,
        margin_db: float = 0.0,
    ) -> Optional[str]:
        """The AP with the maximal median ESNR.

        A non-incumbent challenger must beat the incumbent's median by
        ``margin_db``; ties go to the incumbent, so silent flapping on
        equal links never happens.
        """
        per_client = self._readings.get(client_id)
        if not per_client:
            return incumbent
        metric = self.metric
        horizon = now_us - self.window_us
        best_ap: Optional[str] = None
        best_value = 0.0
        incumbent_value: Optional[float] = None
        dead: List[str] = []
        for ap_id, window in per_client.items():
            if not (window.entries and window.entries[-1][0] >= horizon):
                dead.append(ap_id)
                continue
            window.prune(horizon)
            value = window.statistic(metric)
            if best_ap is None or value > best_value:
                best_ap, best_value = ap_id, value
            if ap_id == incumbent:
                incumbent_value = value
        for ap_id in dead:
            del per_client[ap_id]
        if not per_client:
            del self._readings[client_id]
        if best_ap is None:
            return incumbent
        if (
            incumbent is not None
            and incumbent_value is not None
            and best_ap != incumbent
            and best_value < incumbent_value + margin_db
        ):
            return incumbent
        return best_ap

    def series_count(self, client_id: Optional[str] = None) -> int:
        """Live (client, AP) series held — the memory-bound invariant
        the long-run tests assert on."""
        if client_id is not None:
            return len(self._readings.get(client_id, {}))
        return sum(len(per_client) for per_client in self._readings.values())

    def forget_client(self, client_id: str) -> None:
        self._readings.pop(client_id, None)

    def forget_ap(self, ap_id: str) -> None:
        """Drop every client's window for one AP and free its memory.

        The liveness tracker calls this when an AP is declared DEAD: a
        dead AP must stop competing in :meth:`best_ap` and stop padding
        the fan-out set immediately — its last CSI reports may be only
        microseconds old and would otherwise keep it attractive for a
        full window.  It also closes the unbounded-growth hole where an
        AP that never reports again (decommissioned, dead, re-homed)
        would pin its windows forever on clients that also went silent.
        """
        empty_clients = []
        for client_id, per_client in self._readings.items():
            per_client.pop(ap_id, None)
            if not per_client:
                empty_clients.append(client_id)
        for client_id in empty_clients:
            del self._readings[client_id]

    def clients(self) -> List[str]:
        """Clients holding at least one live series."""
        return list(self._readings)

    def clear(self) -> None:
        self._readings.clear()

    # -- checkpoint support -------------------------------------------

    def client_snapshot(
        self, client_id: str
    ) -> Dict[str, List[Tuple[int, float]]]:
        """One client's arrival-ordered window entries per AP — its
        share of a controller checkpoint or handoff slice.  Only
        ``entries`` is captured; ``sorted_values`` is the same multiset
        in value order and is rebuilt exactly on restore."""
        per_client = self._readings.get(client_id)
        if not per_client:
            return {}
        return {
            ap_id: list(window.entries)
            for ap_id, window in per_client.items()
        }

    def restore_client(
        self, client_id: str, state: Dict[str, List[Tuple[int, float]]]
    ) -> None:
        """Merge one client's :meth:`client_snapshot` into this selector.

        Into an emptied selector this is lossless (a checkpoint
        restore).  On the receiving side of an inter-shard handoff,
        series this selector already holds for the client (CSI its own
        APs overheard while the client approached the boundary) win
        over the transferred copies — they are fresher by construction
        and merging value-by-value would double-count readings.
        """
        per_client = self._readings.setdefault(client_id, {})
        for ap_id, entries in state.items():
            if not entries or ap_id in per_client:
                continue
            window = _Window()
            window.entries = deque((int(t), float(v)) for t, v in entries)
            window.sorted_values = sorted(v for _, v in window.entries)
            per_client[ap_id] = window
        if not per_client:
            del self._readings[client_id]
