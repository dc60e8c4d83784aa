"""Smoke tests for the experiment-driver layer (cheap drivers only —
the expensive sweeps are exercised by the benchmark suite)."""


import dataclasses

from repro.experiments import fig02, fig10
from repro.experiments.common import format_table, mean, seeds_for


class TestCommonHelpers:
    def test_seeds_for(self):
        # The default seed keeps the historical draws; any other seed
        # shifts them all.
        assert seeds_for(3, quick=True) == (3, 7)
        assert seeds_for(3, quick=False) == (3, 7, 11, 19, 23)
        assert seeds_for(101, quick=True) == (101, 105)

    def test_mean(self):
        assert mean([1.0, 3.0]) == 2.0
        assert mean([]) == 0.0

    def test_format_table(self):
        rows = [
            {"a": 1, "b": 2.5},
            {"a": 10, "b": float("inf")},
        ]
        text = format_table(rows, ["a", "b"])
        lines = text.splitlines()
        assert lines[0].startswith("a")
        assert "2.50" in text and "inf" in text
        assert len(lines) == 4

    def test_format_table_missing_key(self):
        text = format_table([{"a": 1}], ["a", "missing"])
        assert "-" in text


class TestFig02Driver:
    def test_returns_series_and_flip_stats(self):
        result = fig02.run(seed=3, quick=True)
        assert set(result["esnr_series"]) == {"ap0", "ap1", "ap2"}
        lengths = {len(s) for s in result["esnr_series"].values()}
        assert len(lengths) == 1
        assert result["flips"] >= 0
        assert 0.0 <= result["contested_fraction"] <= 1.0
        assert result["best_ap"][0] in result["esnr_series"]


class TestExtFaultsDriver:
    def test_registered_in_cli(self):
        from repro.experiments import registry

        assert "ext_faults" in registry.experiment_ids()
        assert "ext_density" in registry.experiment_ids()

    def test_smoke_recovers_within_deadline(self):
        """The CI chaos smoke: one mid-drive crash of the serving AP
        must fail over to a live AP inside the recovery deadline."""
        from repro.experiments import ext_faults

        result = ext_faults.smoke(seed=3)
        assert result["ok"] is True
        assert result["tcp_forward_progress"] is True
        assert result["summary"]["deadline_violations"] == 0
        assert result["lone_ap_restart"]["crash_recovered"] is True
        assert all(
            latency <= result["deadline_ms"]
            for latency in result["failover_ms"]
        )

    def test_smoke_cli_exit_code(self, capsys, monkeypatch):
        from repro import cli
        from repro.experiments import registry

        argv = ["experiment", "ext_faults", "--smoke", "--seed", "3"]
        assert cli.main(argv) == 0
        assert '"ok": true' in capsys.readouterr().out
        # The gate's verdict is the exit code: a driver result that
        # says ok: False exits 1.
        row = dataclasses.replace(
            registry.get("ext_faults"),
            smoke=lambda seed=3: {"ok": False, "seed": seed},
        )
        monkeypatch.setitem(registry._REGISTRY, "ext_faults", row)
        assert cli.main(argv) == 1


class TestFig10Driver:
    def test_heatmap_geometry(self):
        result = fig10.run(seed=3)
        assert len(result["heatmap"]) == 8
        # each AP's kerbside ESNR peaks near its own x position
        xs = result["xs"]
        for i in range(8):
            row = result["heatmap"][f"ap{i}"][0]
            peak_x = xs[row.index(max(row))]
            assert abs(peak_x - (10.0 + 7.5 * i)) < 2.0
        # overlaps land in the paper's 6-10 m band (with slack)
        for overlap in result["overlaps_m"]:
            assert 4.0 <= overlap <= 12.0
