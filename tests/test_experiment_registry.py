"""Tests for the experiment registry (decorator registration, the
uniform run() interface)."""

import pytest

from repro.experiments import registry
from repro.experiments.registry import (
    ExperimentConfig,
    ExperimentResult,
    register_experiment,
)

EXPECTED_IDS = {
    "ablations",
    "ext_adversary",
    "ext_density",
    "ext_faults",
    "ext_ha",
    "ext_shard",
    "ext_soak",
    "fig02",
    "fig04",
    "fig10",
    "fig13",
    "fig14",
    "fig15",
    "fig16",
    "fig17",
    "fig18",
    "fig20",
    "fig21",
    "fig22",
    "fig23",
    "fig24",
    "tab01",
    "tab02",
    "tab03",
    "tab04",
    "tab05",
}


class TestDiscovery:
    def test_all_drivers_registered(self):
        assert set(registry.experiment_ids()) == EXPECTED_IDS

    def test_descriptions_sorted_and_nonempty(self):
        descriptions = registry.descriptions()
        assert list(descriptions) == sorted(descriptions)
        assert all(descriptions.values())

    def test_get_unknown_raises(self):
        with pytest.raises(KeyError, match="nope"):
            registry.get("nope")

    def test_duplicate_id_rejected(self):
        def other_fn():
            return None

        with pytest.raises(ValueError, match="registered twice"):
            register_experiment("fig13", "imposter")(other_fn)

    def test_reregistering_same_fn_is_idempotent(self):
        experiment = registry.get("fig13")
        register_experiment("fig13", "same fn again")(experiment._fn)
        assert registry.get("fig13").description == "same fn again"
        # restore the original description for later assertions
        register_experiment("fig13", experiment.description)(experiment._fn)


class TestUniformRun:
    def test_run_returns_result_wrapper(self):
        experiment = registry.get("tab01")
        cfg = ExperimentConfig(seed=3, quick=True)
        result = experiment.run(cfg)
        assert isinstance(result, ExperimentResult)
        assert result.experiment_id == "tab01"
        assert result.config is cfg
        assert result.smoke is False
        assert result.data

    def test_default_config(self):
        result = registry.get("tab01").run()
        assert result.config == ExperimentConfig()

    def test_rows_helper(self):
        assert ExperimentResult("x", {"rows": [{"a": 1}]}).rows() == [{"a": 1}]
        assert ExperimentResult("x", {"other": 1}).rows() is None
        assert ExperimentResult("x", [1, 2]).rows() is None

    def test_smoke_variant_where_provided(self):
        assert registry.get("ext_faults").has_smoke
        assert registry.get("ext_ha").has_smoke
        assert registry.get("ext_soak").has_smoke
        assert not registry.get("fig13").has_smoke
        with pytest.raises(ValueError, match="no smoke variant"):
            registry.get("fig13").run(smoke=True)
        result = registry.get("ext_faults").run(smoke=True)
        assert result.smoke is True
        assert result.data

    def test_legacy_module_run_still_callable(self):
        # The decorator returns the function unchanged.
        from repro.experiments import tab01

        assert tab01.run is registry.get("tab01")._fn

