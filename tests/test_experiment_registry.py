"""Tests for the experiment registry (one ``register`` row per driver,
the one ``run(seed, quick, jobs)`` signature, claims and verdicts)."""

import inspect

import pytest

from repro.experiments import registry
from repro.experiments.registry import register

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
            register("fig13", "imposter", other_fn)

    def test_reregistering_same_fn_is_idempotent(self):
        experiment = registry.get("fig13")
        register("fig13", "same fn again", experiment.run)
        assert registry.get("fig13").description == "same fn again"
        # restore the original row for later assertions
        registry._REGISTRY["fig13"] = experiment


class TestUniformRun:
    def test_every_run_has_the_one_signature(self):
        for experiment in registry.discover().values():
            parameters = inspect.signature(experiment.run).parameters
            assert list(parameters) == ["seed", "quick", "jobs"], experiment.id
            assert parameters["quick"].default is True, experiment.id
            assert parameters["jobs"].default == 1, experiment.id
            assert isinstance(parameters["seed"].default, int), experiment.id

    def test_a_sweeps_seed_reaches_its_cells(self, monkeypatch):
        """``--seed`` used to stop at 12 drivers' ``run``; now the cell
        is a function of it and the sweep hands it the derived seeds."""
        from repro.experiments import fig22

        assert fig22.cell(5, 40, 0.5) != fig22.cell(3, 40, 0.5)
        seen = []
        monkeypatch.setattr(
            fig22, "sweep",
            lambda cell, keys, seeds, jobs: seen.append(tuple(seeds)) or {},
        )
        fig22.run(seed=5, quick=True)
        fig22.run(seed=3, quick=False)
        assert seen == [(5, 9), (3, 7, 11, 19, 23)]

    def test_smoke_variant_where_provided(self):
        for gate in ("ext_faults", "ext_ha", "ext_soak"):
            assert registry.get(gate).smoke is not None
        assert registry.get("fig13").smoke is None
        result = registry.get("ext_faults").smoke(seed=3)
        assert result["ok"] is True

    def test_legacy_module_run_still_callable(self):
        # The row holds the module's own function, nothing wraps it.
        from repro.experiments import tab01

        assert registry.get("tab01").run is tab01.run


class TestClaims:
    def test_every_figure_driver_states_the_papers_claims(self):
        shaped = {e.id for e in registry.discover().values() if e.shape}
        assert shaped == {
            i for i in EXPECTED_IDS if i == "ext_density" or not i.startswith("ext_")
        }
        for experiment in registry.discover().values():
            assert bool(experiment.paper) == (experiment.shape is not None)
