"""Per-layer numbers, taken from outside the program.

Two sources, both read after the cells have run:

* a ``cProfile`` wrapped around the trace cells, folded by
  ``repro.<package>``: a Python function's own time goes to the package
  its file lives in, and a function outside ``repro`` (a C builtin,
  numpy, the stdlib) is charged to whichever package called it, so the
  table is exclusive and sums to the profiled total;
* the public counters the cells returned (``CellResult.counters``),
  turned into per-frame / per-packet / per-second ratios.

Spans inside ``src/`` are a later issue; their self times will have to
reconcile with this table.
"""

from __future__ import annotations

import os
import statistics
import time
from collections import defaultdict
from typing import Dict, Iterable, Tuple

import repro
from repro.metrics.stats import percentile
from repro.obs.metrics import metric_key

#: The ``repro.*`` packages that run in some workload.  Anything else
#: that shows up in a profile (``repro.apps``, the ledger's own frames,
#: the profiler's entry points) is folded into ``other``.
LAYERS = (
    "sim", "mobility", "channel", "phy", "mac", "net", "transport",
    "core", "shard", "faults", "invariants", "soak", "obs", "scenarios",
)
OTHER = "other"

_REPRO_DIR = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep

Func = Tuple[str, int, str]


def _layer_of(func: Func) -> str:
    """Package of a profiled function, or "" when outside ``repro``."""
    filename = func[0]
    if not filename.startswith(_REPRO_DIR):
        return ""
    head, sep, _ = filename[len(_REPRO_DIR):].partition(os.sep)
    return head if sep and head in LAYERS else OTHER


def fold_profile(stats: Dict[Func, tuple]) -> Tuple[Dict[str, float], Dict[str, float]]:
    """``(self_seconds, calls)`` per layer from ``cProfile`` stats.

    ``stats`` is ``Profile.stats`` after ``create_stats()``:
    ``func -> (cc, nc, tt, ct, callers)`` with
    ``callers[caller] = (nc, cc, tt, ct)`` for that edge.  A foreign
    function reached through other foreign functions is split between
    layers by the *call counts* of the edges leading to it, never by
    their times, and functions are walked in sorted order, so the
    per-layer call totals repeat exactly.
    """
    memo: Dict[Func, Dict[str, float]] = {}
    active = set()

    def owners(func: Func) -> Dict[str, float]:
        """Layer -> share of responsibility for calls made by ``func``."""
        layer = _layer_of(func)
        if layer:
            return {layer: 1.0}
        if func in memo:
            return memo[func]
        if func in active:  # foreign recursion: the back edge owns nothing
            return {}
        active.add(func)
        weights: Dict[str, float] = defaultdict(float)
        callers = stats[func][4] if func in stats else {}
        for caller in sorted(callers):
            for owner, share in owners(caller).items():
                weights[owner] += callers[caller][0] * share
        active.discard(func)
        total = sum(weights.values())
        memo[func] = (
            {owner: weight / total for owner, weight in weights.items()}
            if total
            else {OTHER: 1.0}  # a root: the profiler's entry or the ledger
        )
        return memo[func]

    seconds: Dict[str, float] = defaultdict(float)
    calls: Dict[str, float] = defaultdict(float)
    for func in sorted(stats):
        _, nc, tt, _, callers = stats[func]
        layer = _layer_of(func)
        if layer:
            seconds[layer] += tt
            calls[layer] += nc
        elif not callers:
            seconds[OTHER] += tt
            calls[OTHER] += nc
        else:
            for caller in sorted(callers):
                edge_nc, _, edge_tt, _ = callers[caller]
                for owner, share in (owners(caller) or {OTHER: 1.0}).items():
                    seconds[owner] += edge_tt * share
                    calls[owner] += edge_nc * share
    return dict(seconds), dict(calls)


def total_calls(stats: Dict[Func, tuple]) -> int:
    return sum(entry[1] for entry in stats.values())


# ----------------------------------------------------------------------
# counters -> ratios
# ----------------------------------------------------------------------


def sum_counters(cells: Iterable[Dict[str, float]]) -> Dict[str, float]:
    out: Dict[str, float] = defaultdict(float)
    for counters in cells:
        for key, value in counters.items():
            out[key] += value
    return out


def ratio(numerator: float, denominator: float) -> float:
    """0 where the workload never exercises the denominator."""
    return numerator / denominator if denominator else 0.0


def _by_suffix(counters: Dict[str, float], prefix: str, suffix: str) -> float:
    """Sum of ``prefix{...,suffix}`` keys (per-AP stats, all APs)."""
    return sum(
        value
        for key, value in counters.items()
        if key.startswith(prefix) and key.endswith(suffix)
    )


def counter_metrics(
    results: list, c: Dict[str, float], cpu_s: float
) -> Dict[str, Tuple[float, str]]:
    """The counter half of the per-layer table: ``name -> (value, unit)``.

    ``results`` are the ``CellResult`` of the trace cells run
    untraced, ``c`` the sum of their counters, ``cpu_s`` their host CPU
    time.  A ratio
    whose denominator the workload never moves reads 0 (README lists
    which).
    """
    sim_s = sum(r.sim_s for r in results)
    switch_us = [d for r in results for d in r.switch_us]
    delay_us = [d for r in results for d in r.delay_us]
    # Soak exposes only its own mean (``SoakResult.mean_delay_us``).
    delay_means = [r.delay_mean_us for r in results if r.delay_mean_us is not None]
    delay_mean_us = statistics.fmean(delay_means or delay_us or [0.0])

    def stat(kind: str, name: str) -> float:
        return c.get(metric_key(f"{kind}_stat", name=name), 0)

    def memo(which: str, field: str) -> float:
        return c.get(metric_key("phy_memo", memo=which, stat=field), 0)

    def ap_stat(name: str) -> float:
        return _by_suffix(c, "ap_stat{", f"name={name}}}")

    events = c["engine_events_processed"]
    frames = c["medium_frames_sent"]
    messages = c["backhaul_messages"]
    switches = c.get("switches_completed", 0)
    mpdus = stat("device", "mpdus_sent")
    evictions = sum(
        memo(which, "evictions") for which in ("esnr", "coded_ber", "preamble", "rssi")
    )
    ms = 1e-3
    return {
        "sim.events_per_sim_s": (events / sim_s, "1/s"),
        "sim.cpu_us_per_event": (cpu_s / events * 1e6, "us"),
        "sim.compactions": (c["engine_compactions"], "count"),
        "mac.frames_per_sim_s": (frames / sim_s, "1/s"),
        "mac.airtime_share": (c["medium_airtime_us"] / (sim_s * 1e6), "ratio"),
        "mac.mpdus_per_ampdu": (ratio(mpdus, stat("device", "ampdus_sent")), "ratio"),
        "mac.mpdu_retx_share": (
            ratio(
                mpdus - stat("device", "mpdus_acked") - stat("device", "mpdus_dropped"),
                mpdus,
            ),
            "ratio",
        ),
        "mac.ba_timeout_share": (
            ratio(stat("device", "ba_timeouts"), stat("device", "ampdus_sent")),
            "ratio",
        ),
        "phy.memo_hit_share.preamble": (
            ratio(memo("preamble", "hits"), memo("preamble", "hits") + memo("preamble", "misses")),
            "ratio",
        ),
        "phy.memo_hit_share.esnr": (
            ratio(memo("esnr", "hits"), memo("esnr", "hits") + memo("esnr", "misses")),
            "ratio",
        ),
        "phy.memo_evictions_per_sim_s": (evictions / sim_s, "1/s"),
        "net.backhaul_msgs_per_sim_s": (messages / sim_s, "1/s"),
        "net.backhaul_bytes_per_sim_s": (c["backhaul_bytes"] / sim_s, "B/s"),
        "net.backhaul_control_share": (
            ratio(c["backhaul_control_messages"], messages), "ratio",
        ),
        "net.backhaul_dropped": (
            c["backhaul_fault_dropped"] + c["backhaul_loss_dropped"], "count",
        ),
        "core.switches_per_sim_s": (switches / sim_s, "1/s"),
        "core.switch_abandoned_share": (
            ratio(c.get("switches_abandoned", 0), switches), "ratio",
        ),
        "core.switch_samples": (len(switch_us), "count"),
        "core.switch_ms_p50": (
            statistics.median(switch_us) * ms if switch_us else 0.0, "ms",
        ),
        "core.switch_ms_p75": (
            percentile(switch_us, 75) * ms if switch_us else 0.0, "ms",
        ),
        "core.csi_reports_per_sim_s": (stat("controller", "csi_reports") / sim_s, "1/s"),
        "core.fanout_copies_per_pkt": (
            ratio(stat("controller", "fanout_messages"), stat("controller", "downlink_accepted")),
            "ratio",
        ),
        "core.dedup_dup_share": (
            ratio(
                c.get("dedup_duplicates", 0),
                c.get("dedup_duplicates", 0) + c.get("dedup_accepted", 0),
            ),
            "ratio",
        ),
        "core.ba_forward_useful_share": (
            ratio(ap_stat("ba_forward_applied"), ap_stat("ba_forwarded")), "ratio",
        ),
        "core.cyclic_overflow_drops": (_by_suffix(c, "ap_overflow_drops{", "}"), "count"),
        "transport.goodput_mbps": (
            statistics.fmean(g for r in results for g in r.goodput_mbps), "Mbit/s",
        ),
        "transport.tcp_retx_share": (
            ratio(c.get("tcp_retransmits", 0), c.get("tcp_segments_sent", 0)), "ratio",
        ),
        "transport.tcp_timeouts": (c.get("tcp_timeouts", 0), "count"),
        "transport.udp_delay_samples": (len(delay_us), "count"),
        "transport.udp_delay_ms_p50": (
            statistics.median(delay_us) * ms if delay_us else 0.0, "ms",
        ),
        "transport.udp_delay_ms_p99": (
            percentile(delay_us, 99) * ms if delay_us else 0.0, "ms",
        ),
        "transport.udp_delay_ms_mean": (delay_mean_us * ms, "ms"),
        "shard.handoffs_completed": (c.get("shard_handoffs_completed", 0), "count"),
        "shard.handoff_retry_share": (
            ratio(c.get("shard_handoff_retries", 0), c.get("shard_handoffs_initiated", 0)),
            "ratio",
        ),
        "scenarios.ap_index_scanned_per_query": (
            ratio(c.get("ap_index_scanned", 0), c.get("ap_index_queries", 0)), "ratio",
        ),
        "soak.arrivals": (c.get("churn_arrivals", 0), "count"),
        "soak.slo_violations": (c.get("slo_violations", 0), "count"),
        "faults.executed": (c.get("faults_executed", 0), "count"),
        "invariants.checks": (c.get("invariant_checks", 0), "count"),
        "invariants.violations": (c.get("invariant_violations_total", 0), "count"),
    }


# ----------------------------------------------------------------------
# direct-call probes
# ----------------------------------------------------------------------


def probe_metrics(perf_dir: str) -> Dict[str, Tuple[float, str]]:
    """One direct call loop per hot kernel; each should move with its
    layer's ``self_us_per_event``.  Three come from the existing
    ``run_benchmarks.py`` (imported, not copied)."""
    import sys

    sys.path.insert(0, perf_dir)
    try:
        import run_benchmarks
    finally:
        sys.path.pop(0)
    engine = run_benchmarks.bench_engine()
    esnr = run_benchmarks.bench_esnr()
    selector = run_benchmarks.bench_selector()
    return {
        "sim.probe_us_per_event": (1e6 / engine["events_per_s"], "us"),
        "phy.probe_esnr_us": (esnr["lut_us_per_eval"], "us"),
        "core.probe_selector_us_per_query": (
            1e6 / selector["incremental_queries_per_s"], "us",
        ),
        "channel.probe_snapshot_us": (_probe_snapshot_us(), "us"),
    }


def _probe_snapshot_us(samples: int = 4000) -> float:
    """One ``Link`` snapshot (fading evolve + per-subcarrier SNR) of a
    25 mph client, at the 500 us cadence frames complete at."""
    from repro.scenarios.testbed import Testbed, TestbedConfig

    tb = Testbed(TestbedConfig(seed=1, client_speeds_mph=[25.0]))
    link = tb.channel.link("ap3", "client0")
    start = time.process_time()
    for step in range(samples):
        link.subcarrier_snr_db(step * 500)
    return (time.process_time() - start) / samples * 1e6
