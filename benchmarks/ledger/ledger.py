#!/usr/bin/env python3
"""The perf ledger: four workloads, end to end and layer by layer.

Three ways in (README.md has the tables and the reasons)::

    # one workload, one process: the form the PR driver calls
    python3 benchmarks/ledger/ledger.py --workload drive8_tcp_down \\
        --seed 1 --seconds 25 --trace 0

    # the whole ledger: every workload untraced then traced, each in
    # its own subprocess, a table on stdout and a JSON report
    python3 benchmarks/ledger/ledger.py run [--seed S] [--workload NAME] \\
        [--scale F] [--repeats N] [--output PATH]

    # two reports: every metric as a ratio with its base, flagged
    # against the bounds in BENCHMARK.json
    python3 benchmarks/ledger/ledger.py compare A.json B.json

A single-workload run prints every metric by name with its unit, then
an ``info`` line (digests, per-cell rows, failed checks), then -- last
-- the one JSON object the driver reads.  All host timing is
``time.process_time`` of this one single-threaded process, and in the
untraced run it is divided by how slow the box was meanwhile
(``hostspeed.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))

#: Seed of the committed reports, and the hold-out seed a later gain
#: claim must also hold on (README, "Seeds").
DEFAULT_SEED = 1
HOLDOUT_SEED = 101

#: Fresh interpreters that repeat the set-up during an untraced run,
#: evenly spaced between its cells; with this process's own set-up that
#: makes five samples, and ``setup_s`` is their median.
SETUP_CHILDREN = 4

#: How closely CPU time follows the speed probe's, as an exponent
#: (``hostspeed.reference_seconds``).  Measured over 117 runs in three
#: hours of a box moving between 0.55 and 1.05 of nominal speed: 0.62
#: and 0.66 on the two drives, 0.77 on the soak, 0.96 on the corridor;
#: one middle value for all four, so that no workload's reading leans
#: on a constant of its own.  Set-up is mostly imports: 0.4-0.7.
CELLS_FOLLOW = 0.75
SETUP_FOLLOWS = 0.5


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def child_env() -> dict:
    """Environment of every ledger process: one hash seed, so set and
    dict layouts (and with them cache behaviour) repeat run to run."""
    return {**os.environ, "PYTHONHASHSEED": "0"}


def spawn_one(name: str, seed: int, seconds: float, *flags: str) -> str:
    """Stdout of a single-workload run in a fresh interpreter."""
    done = subprocess.run(
        [
            sys.executable, os.path.abspath(__file__),
            "--workload", name, "--seed", str(seed),
            "--seconds", repr(seconds), *flags,
        ],
        env=child_env(), check=True, capture_output=True, text=True,
    )
    return done.stdout


# ----------------------------------------------------------------------
# one workload, in this process
# ----------------------------------------------------------------------


def _import_program() -> None:
    """Make ``repro`` and the ledger's helpers importable; an empty
    checkout fails here, before anything is printed."""
    for path in (HERE, os.path.join(ROOT, "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    import repro  # noqa: F401


def _warm_up() -> None:
    """Build the PHY tables and touch the lazily imported hot path with
    0.07 simulated seconds of the default drive."""
    from workloads import WORKLOADS

    cell = WORKLOADS["drive8_tcp_down"].plan(DEFAULT_SEED, 0.05).timed[2]
    cell.run(cell.build())


def _set_up(name: str, seed: int, scale: float):
    """Everything a user waits for before the first simulated
    microsecond: imports, PHY tables, the warm-up drive and one
    construction of every cell.  Returns the plan."""
    _import_program()
    from workloads import WORKLOADS

    _warm_up()
    plan = WORKLOADS[name].plan(seed, scale)
    for cell in plan.timed:
        cell.build()
    return plan


def _run_cell(cell, host=None, profile=None):
    """``(CellResult, cpu_s, probe samples)`` with cold PHY memos;
    construction is not timed (``setup_s`` carries it).  ``cpu_s`` is
    the program's own: the probes' time is taken out."""
    import gc

    from repro.phy.per import reset_phy_memo_stats, reset_phy_memos

    reset_phy_memos()
    reset_phy_memo_stats()
    gc.collect()
    handle = cell.build()
    if profile is not None:
        profile.enable()
    start = time.process_time()
    if host is not None:
        host.resume()
        mark = host.mark()
    result = cell.run(handle)
    if host is not None:
        cpu_s, samples = host.since(mark)
        host.pause()
    else:
        cpu_s, samples = time.process_time() - start, []
    if profile is not None:
        profile.disable()
    return result, cpu_s, samples


def _combined_digest(results) -> str:
    import hashlib

    return hashlib.sha256(
        "".join(r.digest for r in results).encode()
    ).hexdigest()


def _untraced(name: str, seed: int, seconds: float, plan, host, setup_s, checks, info):
    """The end-to-end block: every cell once, tracing off, the box's
    speed sampled throughout."""
    import resource

    from hostspeed import reference_seconds, speed
    from layers import ratio

    setups = [setup_s]
    results, cpu, samples = [], [], []
    for index, cell in enumerate(plan.timed, start=1):
        result, cpu_s, inside = _run_cell(cell, host)
        results.append(result)
        cpu.append(cpu_s)
        samples.extend(inside)
        checks.extend(result.checks)
        while len(setups) <= SETUP_CHILDREN * index // len(plan.timed):
            setups.append(float(spawn_one(name, seed, seconds, "--setup-only")))
    checks.append(_switch_check(results))
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    sim_s = sum(r.sim_s for r in results)
    info["digest"] = _combined_digest(results)
    info["setup_samples_s"] = setups
    info["host_speed"] = speed(samples)
    info["probes"] = len(samples)
    info["raw_sim_s_per_cpu_s"] = sim_s / sum(cpu)
    info["cells"] = [
        {"label": cell.label, "sim_s": r.sim_s, "cpu_s": cpu_s,
         "events": r.counters["engine_events_processed"], "digest": r.digest}
        for cell, r, cpu_s in zip(plan.timed, results, cpu)
    ]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "sim_s_per_cpu_s": (
            sim_s / reference_seconds(sum(cpu), samples, CELLS_FOLLOW), "1/s",
        ),
        "peak_rss_mb": (peak_kib / 1024, "MiB"),
        "delivered_share": (
            ratio(sum(r.delivered for r in results), sum(r.offered for r in results)),
            "ratio",
        ),
    }


def _switch_check(results) -> tuple:
    switches = sum(r.counters.get("switches_completed", 0) for r in results)
    return ("a switch completed somewhere in the workload", switches > 0)


def _traced(plan, checks, info):
    """The per-layer block: each trace cell untraced (counters, the CPU
    baseline, the digest to match) and then under cProfile.  Host times
    here are raw CPU seconds: no probes run, a profile would count
    them."""
    import cProfile

    from layers import (
        LAYERS, OTHER, counter_metrics, fold_profile, probe_metrics, ratio,
        sum_counters, total_calls,
    )

    profile = cProfile.Profile()
    results, plain_cpu, traced_cpu = [], 0.0, 0.0
    for cell in plan.traced:
        result, cpu_s, _ = _run_cell(cell)
        again, cpu_t, _ = _run_cell(cell, profile=profile)
        results.append(result)
        plain_cpu += cpu_s
        traced_cpu += cpu_t
        checks.extend(result.checks)
        checks.append(
            (f"{cell.label}: traced digest equals untraced",
             again.digest == result.digest)
        )
    checks.append(_switch_check(results))
    profile.create_stats()
    seconds, calls = fold_profile(profile.stats)

    sim_s = sum(r.sim_s for r in results)
    counters = sum_counters(r.counters for r in results)
    events = counters["engine_events_processed"]
    metrics = counter_metrics(results, counters, plain_cpu)
    total_s = sum(seconds.values())
    for layer in (*LAYERS, OTHER):
        self_s = seconds.get(layer, 0.0)
        metrics[f"{layer}.self_share"] = (self_s / total_s, "ratio")
        metrics[f"{layer}.self_us_per_event"] = (self_s / events * 1e6, "us")
        metrics[f"{layer}.calls_per_sim_s"] = (calls.get(layer, 0.0) / sim_s, "1/s")
    metrics["channel.calls_per_frame"] = (
        ratio(calls.get("channel", 0.0), counters["medium_frames_sent"]), "ratio",
    )
    metrics["bench.py_calls_per_event"] = (
        total_calls(profile.stats) / events, "ratio",
    )
    metrics["bench.trace_overhead_x"] = (traced_cpu / plain_cpu, "ratio")
    metrics.update(probe_metrics(os.path.join(ROOT, "benchmarks", "perf")))
    info["digest"] = _combined_digest(results)
    return metrics


def run_one(name: str, seed: int, seconds: float, trace: bool, setup_only: bool) -> int:
    scale = seconds / load_spec()["run_seconds"]
    checks: list = []
    info = {"workload": name, "seed": seed, "scale": scale, "trace": int(trace)}
    if trace:
        metrics = _traced(_set_up(name, seed, scale), checks, info)
    else:
        from hostspeed import HostSpeed, reference_seconds

        host = HostSpeed()
        try:
            host.resume()
            mark = host.mark()
            plan = _set_up(name, seed, scale)
            cpu_s, samples = host.since(mark)
            host.pause()
            setup_s = reference_seconds(cpu_s, samples, SETUP_FOLLOWS)
            if setup_only:
                print(repr(setup_s))
                return 0
            metrics = _untraced(name, seed, seconds, plan, host, setup_s, checks, info)
        finally:
            # An armed timer outlives its handler at interpreter exit
            # and would kill the process instead of letting it report.
            host.pause()
    failed = [label for label, ok in checks if not ok]
    info["failed_checks"] = failed

    for metric, (value, unit) in metrics.items():
        print(f"{metric:40s} {value!r:>24} {unit}")
    print("info " + json.dumps(info))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": {
            metric: {"value": value, "unit": unit}
            for metric, (value, unit) in metrics.items()
        },
    }))
    return 0


# ----------------------------------------------------------------------
# the whole ledger
# ----------------------------------------------------------------------


def _result_and_info(name: str, seed: int, seconds: float, trace: int):
    lines = spawn_one(name, seed, seconds, "--trace", str(trace)).strip().splitlines()
    info = next(
        json.loads(line[5:]) for line in reversed(lines) if line.startswith("info ")
    )
    return json.loads(lines[-1]), info


def _summary(values: list) -> dict:
    """Median of the repeats, with quartiles once there are enough."""
    out = {"value": statistics.median(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3, runs=values)
    return out


def run_ledger(args) -> int:
    import numpy

    from_spec = load_spec()
    names = [w["name"] for w in from_spec["workloads"]]
    if args.workload:
        names = [name for name in names if name in args.workload]
    seconds = from_spec["run_seconds"] * args.scale
    report = {
        "generated_by": "benchmarks/ledger/ledger.py run",
        "header": {
            "nproc": os.cpu_count(),
            "loadavg": os.getloadavg(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "machine": platform.machine(),
        },
        "seed": args.seed,
        "scale": args.scale,
        # A scaled report is a smoke run, never a ledger entry.
        "scaled": args.scale != 1.0,
        "repeats": args.repeats,
        "workloads": {},
    }
    runs: dict = {name: {0: [], 1: []} for name in names}
    for _ in range(args.repeats):  # round-robin, fixed order
        for name in names:
            for trace in (0, 1):
                runs[name][trace].append(
                    _result_and_info(name, args.seed, seconds, trace)
                )

    for name in names:
        entry = {"attempted": 0, "failed": 0, "failed_checks": [], "result_digest": {}}
        for trace, block in ((0, "end_to_end"), (1, "per_layer")):
            results = [result for result, _ in runs[name][trace]]
            infos = [info for _, info in runs[name][trace]]
            entry["attempted"] += results[0]["attempted"]
            entry["failed"] += max(r["failed"] for r in results)
            entry["failed_checks"] += sorted({c for i in infos for c in i["failed_checks"]})
            digests = sorted({info["digest"] for info in infos})
            entry["result_digest"][block] = digests[0] if len(digests) == 1 else digests
            entry[block] = {
                metric: {
                    **_summary([r["metrics"][metric]["value"] for r in results]),
                    "unit": first["unit"],
                }
                for metric, first in results[0]["metrics"].items()
            }
            if trace == 0:
                entry["cells"] = infos[0]["cells"]
        entry["correct"] = entry["failed"] == 0
        report["workloads"][name] = entry

    _print_report(report)
    _print_digest_changes(report)
    if args.output:
        with open(args.output, "w") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
        print(f"wrote {args.output}")
    return 0 if all(w["correct"] for w in report["workloads"].values()) else 1


def _print_report(report: dict) -> None:
    header = report["header"]
    print(
        f"ledger seed={report['seed']} scale={report['scale']}"
        f"{' (SCALED: not a ledger entry)' if report['scaled'] else ''} "
        f"repeats={report['repeats']} nproc={header['nproc']} "
        f"load={header['loadavg'][0]:.2f} python={header['python']} "
        f"numpy={header['numpy']}"
    )
    names = list(report["workloads"])
    for block in ("end_to_end", "per_layer"):
        print(f"\n{block:42s}" + "".join(f"{name:>20s}" for name in names))
        first = report["workloads"][names[0]][block]
        for metric, cell in first.items():
            row = "".join(
                f"{report['workloads'][name][block][metric]['value']:>20.6g}"
                for name in names
            )
            print(f"{metric:34s}{cell['unit']:>8s}{row}")
    for name in names:
        entry = report["workloads"][name]
        print(
            f"\n{name}: {entry['failed']} of {entry['attempted']} checks failed"
            + "".join(f"\n  FAILED {label}" for label in entry["failed_checks"])
        )
        for block, digest in entry["result_digest"].items():
            print(f"  result_digest[{block}] {digest}")


def _print_digest_changes(report: dict) -> None:
    """Information, not a failure: a change that only speeds the
    simulator leaves every digest as committed; one that changes
    behaviour on purpose re-commits the report."""
    committed = os.path.join(HERE, "reports", f"seed{report['seed']}.json")
    if report["scaled"] or not os.path.exists(committed):
        return
    with open(committed) as fh:
        before = json.load(fh)["workloads"]
    for name, entry in report["workloads"].items():
        if name in before:
            changed = entry["result_digest"] != before[name]["result_digest"]
            print(f"digest_changed[{name}] {changed} (against reports/seed{report['seed']}.json)")


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------


def is_host_timed(metric: str) -> bool:
    """Metrics that read the host clock (or memory); every other one is
    a count or a simulated quantity and repeats exactly on one commit."""
    return (
        metric in ("setup_s", "sim_s_per_cpu_s", "peak_rss_mb",
                   "sim.cpu_us_per_event", "bench.trace_overhead_x")
        or metric.endswith((".self_share", ".self_us_per_event"))
        or ".probe_" in metric
    )


def compare(path_a: str, path_b: str) -> int:
    with open(path_a) as fh:
        a = json.load(fh)
    with open(path_b) as fh:
        b = json.load(fh)
    bounds = {m["name"]: m for m in load_spec()["end_to_end"]}
    same_inputs = (a["seed"], a["scale"]) == (b["seed"], b["scale"])
    if not same_inputs:
        print(
            f"inputs differ (seed {a['seed']} scale {a['scale']} vs "
            f"seed {b['seed']} scale {b['scale']}): exact metrics not checked"
        )
    flagged = 0
    for name, in_a in a["workloads"].items():
        in_b = b["workloads"].get(name)
        if in_b is None:
            continue
        print(f"\n{name}")
        for block in ("end_to_end", "per_layer"):
            for metric, cell in in_a[block].items():
                if metric not in in_b[block]:
                    continue
                base, new = cell["value"], in_b[block][metric]["value"]
                ratio = new / base if base else float("nan")
                note = ""
                bound = bounds.get(metric)
                if bound is not None and base:
                    worse = (new - base) / base
                    if bound["better"] == "higher":
                        worse = -worse
                    if worse > bound["bound"]:
                        note = f"  WORSE by {worse:.1%} (bound {bound['bound']:.0%})"
                if same_inputs and not is_host_timed(metric) and new != base:
                    note += "  DIFFERS (exact metric)"
                flagged += bool(note)
                print(
                    f"  {metric:40s} {ratio:8.4f}x of {base:<14.6g} "
                    f"{cell['unit']}{note}"
                )
        if same_inputs and in_a["result_digest"] != in_b["result_digest"]:
            flagged += 1
            print("  result_digest DIFFERS")
    print(f"\n{flagged} flagged")
    return 1 if flagged else 0


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------


def main(argv: list) -> int:
    if argv and argv[0] == "compare":
        parser = argparse.ArgumentParser(prog="ledger.py compare")
        parser.add_argument("a")
        parser.add_argument("b")
        args = parser.parse_args(argv[1:])
        return compare(args.a, args.b)
    if argv and argv[0] == "run":
        parser = argparse.ArgumentParser(prog="ledger.py run")
        parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                            help=f"base seed (hold-out: {HOLDOUT_SEED})")
        parser.add_argument("--workload", action="append", metavar="NAME",
                            help="run only this workload (repeatable)")
        parser.add_argument("--scale", type=float, default=1.0, metavar="F",
                            help="shorten every cell to F of its length "
                                 "(smoke use; the report is marked scaled)")
        parser.add_argument("--repeats", type=int, default=1, metavar="N",
                            help="round-robin passes; medians and quartiles")
        parser.add_argument("--output", metavar="PATH")
        _import_program()
        return run_ledger(parser.parse_args(argv[1:]))

    parser = argparse.ArgumentParser(prog="ledger.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="internal: print this process's set-up time")
    args = parser.parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.execve(sys.executable, [sys.executable, *sys.argv], child_env())
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace), args.setup_only)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
