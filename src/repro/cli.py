"""Command-line interface: ``python -m repro <command>``.

Five commands cover the common workflows:

* ``drive``       — one drive-by under either scheme, summarized.
                    ``--trace``/``--metrics`` switch on
                    the observability layer (``repro.obs``).
* ``experiment``  — run a paper table/figure driver, print its rows and
                    judge the paper's claims about them (nonzero exit
                    on a failed claim or a failed gate).
* ``fidelity``    — every claim-bearing driver at the pinned seed and a
                    hold-out seed: the table committed as FIDELITY.json.
* ``soak``        — an SLO-guarded endurance run (``repro.soak``):
                    heavy-tailed churn, continuous faults, optional
                    admission control; nonzero exit on any violation.
* ``list``        — enumerate the available experiment drivers.

Experiment ids, entry points and claims come from the drivers'
``register`` rows (:mod:`repro.experiments.registry`).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from typing import Dict, List, Optional

from repro.experiments import registry as experiment_registry
from repro.experiments.common import format_table
from repro.experiments.registry import Claim, Experiment, verdict

#: ``repro fidelity`` judges every claim at the seed the claims were
#: written against and at one hold-out seed.
FIDELITY_SEEDS = (3, 101)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Wi-Fi Goes to Town (SIGCOMM 2017) reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    drive = sub.add_parser("drive", help="run one drive-by and summarize")
    drive.add_argument("--scheme", choices=("wgtt", "baseline"), default="wgtt")
    drive.add_argument("--speed", type=float, default=15.0, metavar="MPH")
    drive.add_argument(
        "--preset", metavar="NAME", default=None,
        help="start from a scenario preset (repro.scenarios.presets; "
        "e.g. mixed-density, shard-corridor); --seed/--scheme still "
        "apply, and --speed applies unless the preset pins its own "
        "client tracks",
    )
    drive.add_argument(
        "--protocol", choices=("tcp", "udp"), default="tcp"
    )
    drive.add_argument("--seconds", type=float, default=None)
    drive.add_argument("--seed", type=int, default=3)
    drive.add_argument("--udp-rate-mbps", type=float, default=50.0)
    drive.add_argument(
        "--trace", metavar="PREFIX", default=None,
        help="record a structured trace; writes PREFIX.jsonl and "
        "PREFIX.trace.json (chrome://tracing / Perfetto)",
    )
    drive.add_argument(
        "--trace-detail", action="store_true",
        help="also keep per-packet trace events (large files)",
    )
    drive.add_argument(
        "--metrics", metavar="PATH", default=None,
        help="export a metrics-registry snapshot as JSON",
    )

    experiment = sub.add_parser(
        "experiment", help="run a paper table/figure driver"
    )
    experiment.add_argument(
        "id", choices=experiment_registry.experiment_ids()
    )
    experiment.add_argument(
        "--seed", type=int, default=None,
        help="default: the driver's own (3; ext_soak and ext_adversary 1)",
    )
    experiment.add_argument(
        "--full", action="store_true",
        help="full sweep instead of the quick one",
    )
    experiment.add_argument(
        "--smoke", action="store_true",
        help="run the driver's CI smoke variant (where provided)",
    )
    experiment.add_argument(
        "--json", action="store_true", help="emit raw JSON instead of tables"
    )
    experiment.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for grid fan-out (0 = all cores); "
        "results are byte-identical to --jobs 1 for the same seeds",
    )

    fidelity = sub.add_parser(
        "fidelity",
        help="judge every driver's claims at seeds 3 and 101; prints "
        "the table committed as FIDELITY.json",
    )
    fidelity.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes per driver (0 = all cores)",
    )

    soak = sub.add_parser(
        "soak",
        help="SLO-guarded endurance run: churn + faults + guard",
    )
    soak.add_argument("--seed", type=int, default=1)
    soak.add_argument(
        "--seconds", type=float, default=60.0,
        help="sim-time duration of the soak",
    )
    soak.add_argument(
        "--arrival-rate", type=float, default=1.0, metavar="PER_S",
        help="Poisson rider arrival rate",
    )
    soak.add_argument(
        "--max-concurrent", type=int, default=64,
        help="rider population cap (excess arrivals are rejected)",
    )
    soak.add_argument(
        "--fault-intensity", type=float, default=1.0,
        help="continuous-chaos intensity multiplier (0 = no faults)",
    )
    soak.add_argument(
        "--admission", action="store_true",
        help="enable per-client fair pacing at the controller",
    )
    soak.add_argument(
        "--telemetry", metavar="PATH", default=None,
        help="stream guard samples/checkpoints/violations as JSONL",
    )
    soak.add_argument(
        "--fail-fast", action="store_true",
        help="raise on the first SLO violation instead of collecting",
    )

    sub.add_parser("list", help="list available experiment drivers")
    return parser


def cmd_drive(args) -> int:
    from repro.apps.bulk import run_bulk_download
    from repro.obs.context import ObsConfig
    from repro.scenarios.testbed import TestbedConfig

    if args.trace_detail and args.trace is None:
        print("error: --trace-detail requires --trace", file=sys.stderr)
        return 2
    obs = None
    want_obs = args.trace is not None or args.metrics
    if want_obs:
        obs = ObsConfig(
            trace=args.trace is not None,
            detail=args.trace_detail,
        )
    if args.preset is not None:
        from repro.scenarios.presets import preset

        try:
            config = preset(
                args.preset, seed=args.seed, scheme=args.scheme, obs=obs
            )
        except ValueError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        if config.client_tracks is None:
            config.client_speeds_mph = [args.speed]
    else:
        config = TestbedConfig(
            seed=args.seed,
            scheme=args.scheme,
            client_speeds_mph=[args.speed],
            obs=obs,
        )
    try:
        result = run_bulk_download(
            config,
            protocol=args.protocol,
            duration_s=args.seconds,
            udp_rate_bps=args.udp_rate_mbps * 1e6,
            keep_testbed=bool(want_obs),
        )
    except ValueError as error:
        # e.g. a sharded preset driven with --scheme baseline.
        print(f"error: {error}", file=sys.stderr)
        return 2
    label = f" [{args.preset}]" if args.preset is not None else ""
    print(
        f"{args.scheme}{label} / {args.protocol.upper()} at "
        f"{args.speed:g} mph for {result.duration_s:.1f} s"
    )
    print(f"  throughput : {result.throughput_mbps:.2f} Mbit/s")
    print(f"  switches   : {result.switch_count}")
    if args.protocol == "tcp":
        print(f"  timeouts   : {result.tcp_timeouts}")
    series = " ".join(f"{g:.1f}" for g in result.goodput_series_mbps)
    print(f"  goodput/s  : {series}")
    if want_obs:
        testbed = result.testbed
        tracer = testbed.sim.obs.trace
        if args.trace is not None:
            tracer.finish()
            count = tracer.export_jsonl(f"{args.trace}.jsonl")
            tracer.export_chrome(f"{args.trace}.trace.json")
            print(f"  trace      : {count} records -> {args.trace}.jsonl")
            print(f"               chrome view  -> {args.trace}.trace.json")
        if args.metrics is not None:
            testbed.sim.obs.metrics.export_json(args.metrics)
            print(f"  metrics    : {args.metrics}")
    return 0


def cmd_experiment(args) -> int:
    experiment = experiment_registry.get(args.id)
    seed = {} if args.seed is None else {"seed": args.seed}
    if not args.smoke:
        data = experiment.run(quick=not args.full, jobs=args.jobs, **seed)
    elif experiment.smoke is not None:
        data = experiment.smoke(**seed)
    else:
        print(
            f"error: experiment {args.id!r} has no smoke variant",
            file=sys.stderr,
        )
        return 2
    rows = data.get("rows")
    if args.json:
        print(_to_json(data))
    elif isinstance(rows, list):
        columns = list(rows[0].keys()) if rows else []
        print(format_table(rows, columns))
    else:
        print(json.dumps(_summarize(data), default=_json_default, indent=2))
    # A gate (``--smoke``, or a driver that judges itself) says so in
    # its result; a figure is judged by the paper's claims about it, at
    # the scale they are made at.
    failed = data.get("ok") is False
    if experiment.shape is not None and not args.smoke:
        if args.full == experiment.full:
            claims = experiment.shape(data)
            print(_claims_report(experiment, claims), file=sys.stderr)
            failed = failed or verdict(claims) == "fail"
        else:
            print(
                f"{args.id}: not judged (the paper's claims are made on the "
                f"{_scale(experiment)} sweep)",
                file=sys.stderr,
            )
    return 1 if failed else 0


def _scale(experiment: Experiment) -> str:
    return "full" if experiment.full else "quick"


def _claims_report(experiment: Experiment, claims: List[Claim]) -> str:
    labels = {
        (True, True): "ok  ",
        (False, True): "FAIL",
        (False, False): "gap ",  # a known gap, still open
        (True, False): "FAIL (listed as a known gap, but holds)",
    }
    lines = [f"{experiment.id} ({_scale(experiment)}): {verdict(claims)}"]
    lines += [
        f"  {labels[bool(claim.holds), claim.expected]} {claim.text}"
        for claim in claims
    ]
    return "\n".join(lines)


def cmd_fidelity(args) -> int:
    """Regenerate the verdict table (``FIDELITY.json``): every driver
    with claims, at each pinned seed, at the scale its claims are made."""
    rows: List[Dict] = []
    for experiment_id in experiment_registry.experiment_ids():
        experiment = experiment_registry.get(experiment_id)
        if experiment.shape is None:
            continue
        for seed in FIDELITY_SEEDS:
            print(f"{experiment_id} seed {seed} ...", file=sys.stderr)
            result = experiment.run(
                seed=seed, quick=not experiment.full, jobs=args.jobs
            )
            claims = experiment.shape(result)
            rows.append(
                {
                    "id": experiment_id,
                    "paper": experiment.paper,
                    "seed": seed,
                    "scale": _scale(experiment),
                    "claims": [
                        {
                            "text": claim.text,
                            "holds": bool(claim.holds),
                            "expected": claim.expected,
                        }
                        for claim in claims
                    ],
                    "verdict": verdict(claims),
                    # of what `repro experiment <id> --json` prints
                    "result_sha256": hashlib.sha256(
                        (_to_json(result) + "\n").encode()
                    ).hexdigest(),
                }
            )
    print(json.dumps(rows, indent=1))
    # The claims are pinned at the first seed; the hold-out seed's
    # misses are findings (EXPERIMENTS.md lists them), not failures.
    pinned_fail = any(
        row["seed"] == FIDELITY_SEEDS[0] and row["verdict"] == "fail"
        for row in rows
    )
    return 1 if pinned_fail else 0


def _to_json(data) -> str:
    return json.dumps(data, default=_json_default, indent=2)


def _summarize(value, depth=0):
    """Keep CLI output readable: elide long series at the top levels."""
    if isinstance(value, dict):
        return {k: _summarize(v, depth + 1) for k, v in value.items()}
    if isinstance(value, (list, tuple)) and len(value) > 12:
        return f"<{len(value)} values>"
    return value


def _json_default(value):
    """JSON for the numpy values and sets a driver result may hold."""
    try:
        import numpy as np

        if isinstance(value, np.generic):
            return value.item()
        if isinstance(value, np.ndarray):
            return value.tolist()
    except ImportError:  # pragma: no cover
        pass
    if isinstance(value, (set, frozenset)):
        return sorted(value)
    return str(value)


def cmd_soak(args) -> int:
    from repro.soak.harness import SoakConfig, run_soak
    from repro.soak.workload import WorkloadConfig

    config = SoakConfig(
        seed=args.seed,
        duration_s=args.seconds,
        fault_intensity=args.fault_intensity,
        admission_enabled=args.admission,
        workload=WorkloadConfig(
            arrival_rate_per_s=args.arrival_rate,
            max_concurrent=args.max_concurrent,
        ),
        telemetry_path=args.telemetry,
        fail_fast=args.fail_fast,
    )
    result = run_soak(config)
    print(result.summary())
    if args.telemetry is not None:
        print(f"  telemetry  : {args.telemetry}")
    for violation in result.violations:
        print(f"  VIOLATION  : {json.dumps(violation, default=str)}")
    return 0 if result.ok else 1


def cmd_list(_args) -> int:
    descriptions = experiment_registry.descriptions()
    width = max(len(k) for k in descriptions)
    for key in sorted(descriptions):
        print(f"{key.ljust(width)}  {descriptions[key]}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "drive": cmd_drive,
        "experiment": cmd_experiment,
        "fidelity": cmd_fidelity,
        "soak": cmd_soak,
        "list": cmd_list,
    }
    try:
        return handlers[args.command](args)
    except BrokenPipeError:  # e.g. `wgtt-repro list | head`
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
