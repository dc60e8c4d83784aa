"""Tests for the command-line interface."""

import dataclasses
import json

import pytest

from repro.cli import build_parser, main
from repro.experiments import registry as experiment_registry


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for key in ("fig13", "tab01", "ablations"):
        assert key in out


def test_list_covers_every_registered_experiment(capsys):
    main(["list"])
    out = capsys.readouterr().out
    assert len([l for l in out.splitlines() if l.strip()]) == len(
        experiment_registry.experiment_ids()
    )


def test_drive_tcp(capsys):
    code = main([
        "drive", "--scheme", "wgtt", "--speed", "15", "--seconds", "2",
        "--seed", "3",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "throughput" in out
    assert "switches" in out
    assert "timeouts" in out


def test_drive_udp(capsys):
    code = main([
        "drive", "--scheme", "baseline", "--protocol", "udp",
        "--seconds", "2", "--seed", "3", "--udp-rate-mbps", "10",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "baseline / UDP" in out
    assert "timeouts" not in out


def test_experiment_table_output(capsys):
    code = main(["experiment", "tab01", "--seed", "3"])
    assert code == 0
    out = capsys.readouterr().out
    assert "rate_mbps" in out and "mean_ms" in out


def test_experiment_json_output(capsys):
    code = main(["experiment", "fig10", "--json"])
    assert code == 0
    parsed = json.loads(capsys.readouterr().out)
    assert "overlaps_m" in parsed


def test_experiment_prints_the_claims_verdict_on_stderr(capsys):
    assert main(["experiment", "tab01", "--json"]) == 0
    captured = capsys.readouterr()
    json.loads(captured.out)  # stdout stays the driver's result
    assert captured.err.startswith("tab01 (quick): pass")
    # tab02's claims are made on the full sweep: a quick run is not judged.
    assert main(["experiment", "tab02"]) == 0
    assert "not judged" in capsys.readouterr().err


def test_experiment_exits_1_on_a_failed_claim(capsys, monkeypatch):
    from repro.experiments.registry import Claim

    row = dataclasses.replace(
        experiment_registry.get("tab01"),
        shape=lambda result: [Claim("never true", False)],
    )
    monkeypatch.setitem(experiment_registry._REGISTRY, "tab01", row)
    assert main(["experiment", "tab01"]) == 1
    assert "FAIL never true" in capsys.readouterr().err


def test_smoke_of_a_driver_without_one_is_a_usage_error(capsys):
    assert main(["experiment", "fig13", "--smoke"]) == 2
    assert "'fig13' has no smoke variant" in capsys.readouterr().err


def test_unknown_experiment_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["experiment", "fig99"])


def test_command_required():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_drive_preset_shard_corridor(capsys):
    code = main([
        "drive", "--preset", "shard-corridor", "--protocol", "udp",
        "--seconds", "2", "--seed", "3",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "wgtt [shard-corridor] / UDP" in out


def test_drive_preset_two_ap(capsys):
    code = main([
        "drive", "--preset", "two-ap", "--seconds", "1", "--seed", "3",
    ])
    assert code == 0
    assert "[two-ap]" in capsys.readouterr().out


def test_drive_unknown_preset_rejected(capsys):
    code = main(["drive", "--preset", "nope", "--seconds", "1"])
    assert code == 2
    err = capsys.readouterr().err
    assert "unknown preset" in err and "shard-corridor" in err
