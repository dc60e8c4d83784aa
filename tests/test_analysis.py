"""The static-analysis engine: per-rule fixtures + repo self-checks.

Three layers:

* **fixture tests** — for every rule, a minimal snippet where it fires
  (positive), a minimal snippet where it must stay silent (negative),
  and — where the suppression protocol applies — an explained
  ``# noqa-repro`` marker absorbing the finding;
* **repo self-check** — ``python -m repro.analysis src/`` must exit 0:
  the tree this suite ships in is clean under its own lints;
* **manifest regression** — the committed ``analysis/flags.toml`` must
  match the *live* config dataclass defaults (imported, not parsed),
  so the AST view and the runtime view can never drift apart.
"""

import ast
import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.cli import build_passes, main, rule_catalog
from repro.analysis.engine import run_passes
from repro.analysis.passes import (
    CheckpointCoveragePass,
    DeterminismPass,
    FlagManifestPass,
    MetricNamePass,
    TraceKindPass,
)
from repro.analysis.passes.flags import load_flags_manifest
from repro.analysis.project import load_project

REPO_ROOT = Path(__file__).resolve().parent.parent


def run_fixture(tmp_path, sources, passes, rel="pkg/mod.py"):
    """Write ``sources`` under ``tmp_path`` and run ``passes``.

    ``sources`` is either one source string (written to ``rel``) or a
    dict of relative-path -> source.  Returns the finding list.
    """
    if isinstance(sources, str):
        sources = {rel: sources}
    for relative, text in sources.items():
        target = tmp_path / relative
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(text)
    project = load_project([tmp_path], root=tmp_path)
    return run_passes(project, passes)


def rules_of(findings):
    return [finding.rule for finding in findings]


# ----------------------------------------------------------------------
# DET001..DET006 — determinism lint
# ----------------------------------------------------------------------


class TestDeterminismRules:
    def test_det001_banned_import_and_call(self, tmp_path):
        findings = run_fixture(
            tmp_path,
            "import random\n"
            "import time\n"
            "def f():\n"
            "    return time.time()\n",
            [DeterminismPass()],
        )
        assert rules_of(findings) == ["DET001", "DET001", "DET001"]

    def test_det001_negative(self, tmp_path):
        findings = run_fixture(
            tmp_path,
            "from repro.sim.rng import RngRegistry\n"
            "def f(sim):\n"
            "    return sim.now\n",
            [DeterminismPass()],
        )
        assert findings == []

    def test_det001_suppressed_with_reason(self, tmp_path):
        findings = run_fixture(
            tmp_path,
            "from time import perf_counter"
            "  # noqa-repro: DET001 — profiler only, never touches sim state\n",
            [DeterminismPass()],
        )
        assert findings == []

    def test_det002_direct_numpy_generator(self, tmp_path):
        findings = run_fixture(
            tmp_path,
            "import numpy as np\n"
            "gen = np.random.default_rng(7)\n",
            [DeterminismPass()],
        )
        assert rules_of(findings) == ["DET002"]

    def test_det002_blessed_inside_rng_module(self, tmp_path):
        findings = run_fixture(
            tmp_path,
            {
                "repro/sim/rng.py": (
                    "import numpy as np\n"
                    "gen = np.random.default_rng(7)\n"
                )
            },
            [DeterminismPass()],
        )
        assert findings == []

    def test_det003_dynamic_label(self, tmp_path):
        findings = run_fixture(
            tmp_path,
            "def f(rng, label):\n"
            "    return rng.stream(label)\n",
            [DeterminismPass()],
        )
        assert rules_of(findings) == ["DET003"]

    def test_det003_literal_and_fstring_prefix_ok(self, tmp_path):
        findings = run_fixture(
            tmp_path,
            "def f(rng, ap):\n"
            '    a = rng.stream("mac/backoff")\n'
            '    b = rng.stream(f"fading/{ap}")\n'
            "    return a, b\n",
            [DeterminismPass()],
        )
        assert findings == []

    def test_det004_duplicate_label(self, tmp_path):
        findings = run_fixture(
            tmp_path,
            "def f(rng):\n"
            '    return rng.stream("shared/label")\n'
            "def g(rng):\n"
            '    return rng.stream("shared/label")\n',
            [DeterminismPass()],
        )
        assert rules_of(findings) == ["DET004"]

    def test_det006_builtin_hash(self, tmp_path):
        findings = run_fixture(
            tmp_path,
            "import zlib\n"
            "def key(src, table):\n"
            "    a = hash(src) & 0xFFFFFFFF\n"
            "    b = zlib.crc32(src.encode())  # a stable digest is fine\n"
            "    c = table.hash(src)  # so is somebody's method\n"
            "    d = hash((1, 2))"
            "  # noqa-repro: DET006 — ints only, unsalted\n"
            "    return a, b, c, d\n",
            [DeterminismPass()],
        )
        assert rules_of(findings) == ["DET006"]
        assert findings[0].line == 3

    def test_det005_unsorted_values_in_export(self, tmp_path):
        findings = run_fixture(
            tmp_path,
            "def snapshot(d):\n"
            "    return [t.deadline for t in d.values()]\n",
            [DeterminismPass()],
        )
        assert rules_of(findings) == ["DET005"]

    def test_det005_sorted_or_non_export_ok(self, tmp_path):
        findings = run_fixture(
            tmp_path,
            # sorted() wrapping, an order-insensitive reducer over a
            # set, and an unsorted .values() in a non-export function
            # are all fine.
            "def snapshot(d, s):\n"
            "    total = sum(x for x in s)\n"
            "    return total, [d[k] for k in sorted(d)]\n"
            "def plain_hot_path(d):\n"
            "    return [v for v in d.values()]\n",
            [DeterminismPass()],
        )
        assert findings == []


# ----------------------------------------------------------------------
# CFG001..CFG003 — flags manifest
# ----------------------------------------------------------------------

_CONFIG_SRC = (
    "from dataclasses import dataclass\n"
    "@dataclass\n"
    "class DemoConfig:\n"
    "    speed: float = 1.0\n"
    "    shiny_enabled: bool = False\n"
)


class TestFlagManifestRules:
    def run_flags(self, tmp_path, manifest_text, source=_CONFIG_SRC):
        manifest = tmp_path / "flags.toml"
        manifest.write_text(manifest_text)
        return run_fixture(
            tmp_path,
            {"src/demo/conf.py": source},
            [FlagManifestPass(manifest_path=manifest)],
        )

    def test_cfg001_unreviewed_flag(self, tmp_path):
        findings = self.run_flags(tmp_path, "[flags]\n")
        assert rules_of(findings) == ["CFG001"]

    def test_cfg002_stale_entry(self, tmp_path):
        findings = self.run_flags(
            tmp_path,
            "[flags]\n"
            '"demo.conf.DemoConfig.shiny_enabled" = false\n'
            '"demo.conf.DemoConfig.gone_enabled" = true\n',
        )
        assert rules_of(findings) == ["CFG002"]

    def test_cfg002_missing_manifest(self, tmp_path):
        findings = run_fixture(
            tmp_path,
            {"src/demo/conf.py": _CONFIG_SRC},
            [FlagManifestPass(manifest_path=tmp_path / "nope.toml")],
        )
        assert rules_of(findings) == ["CFG002"]

    def test_cfg003_flipped_default(self, tmp_path):
        findings = self.run_flags(
            tmp_path,
            "[flags]\n"
            '"demo.conf.DemoConfig.shiny_enabled" = true\n',
        )
        assert rules_of(findings) == ["CFG003"]

    def test_reviewed_manifest_is_clean(self, tmp_path):
        findings = self.run_flags(
            tmp_path,
            "[flags]\n"
            '"demo.conf.DemoConfig.shiny_enabled" = false\n',
        )
        assert findings == []

    def test_non_bool_and_non_config_fields_ignored(self, tmp_path):
        findings = self.run_flags(
            tmp_path,
            "[flags]\n",
            source=(
                "from dataclasses import dataclass\n"
                "@dataclass\n"
                "class NotAConf:\n"
                "    on: bool = True\n"
                "@dataclass\n"
                "class DemoConfig:\n"
                "    rate: float = 2.0\n"
            ),
        )
        assert findings == []


# ----------------------------------------------------------------------
# TRC001..TRC003 — trace-kind cross-check
# ----------------------------------------------------------------------

_CATALOG = {"switch": ("controller",), "tx": ("backhaul",)}


class TestTraceKindRules:
    def test_trc001_uncataloged_emit(self, tmp_path):
        findings = run_fixture(
            tmp_path,
            {
                "repro/core/controller.py": (
                    "def f(tracer):\n"
                    '    tracer.emit("controller", "switch")\n'
                    '    tracer.emit("controller", "mystery")\n'
                    '    tracer.emit("backhaul", "tx")\n'
                )
            },
            [TraceKindPass(catalog=_CATALOG)],
        )
        assert rules_of(findings) == ["TRC001"]

    def test_trc001_wrong_subsystem(self, tmp_path):
        findings = run_fixture(
            tmp_path,
            {
                "repro/core/controller.py": (
                    "def f(tracer):\n"
                    '    tracer.emit("mac", "switch")\n'
                    '    tracer.emit("backhaul", "tx")\n'
                )
            },
            [TraceKindPass(catalog=_CATALOG)],
        )
        assert rules_of(findings) == ["TRC001"]

    def test_trc002_dead_catalog_entry(self, tmp_path):
        findings = run_fixture(
            tmp_path,
            {
                "repro/core/controller.py": (
                    "def f(tracer):\n"
                    '    tracer.emit("controller", "switch")\n'
                )
            },
            [TraceKindPass(catalog=_CATALOG)],
        )
        # "tx" is cataloged but never emitted; the full-scan marker
        # file is present so the dead entry is reported.
        assert rules_of(findings) == ["TRC002"]

    def test_trc002_silent_on_partial_scan(self, tmp_path):
        findings = run_fixture(
            tmp_path,
            {
                "somewhere/else.py": (
                    "def f(tracer):\n"
                    '    tracer.emit("controller", "switch")\n'
                )
            },
            [TraceKindPass(catalog=_CATALOG)],
        )
        assert findings == []

    def test_trc003_dynamic_name(self, tmp_path):
        findings = run_fixture(
            tmp_path,
            {
                "repro/core/controller.py": (
                    "def f(tracer, name):\n"
                    '    tracer.emit("controller", name)\n'
                    '    tracer.emit("controller", "switch")\n'
                    '    tracer.emit("backhaul", "tx")\n'
                )
            },
            [TraceKindPass(catalog=_CATALOG)],
        )
        assert rules_of(findings) == ["TRC003"]

    def test_conditional_literal_pair_ok(self, tmp_path):
        findings = run_fixture(
            tmp_path,
            {
                "repro/core/controller.py": (
                    "def f(tracer, fast):\n"
                    '    tracer.emit("controller", '
                    '"switch" if fast else "tx")\n'
                )
            },
            [TraceKindPass(catalog={"switch": ("controller",),
                                    "tx": ("controller",)})],
        )
        assert findings == []


# ----------------------------------------------------------------------
# CKP001..CKP003 — checkpoint coverage
# ----------------------------------------------------------------------

_SNAPSHOT_SRC = (
    "    def snapshot(self):\n"
    "        return {'clients': dict(self._clients)}\n"
    "    def restore(self, state):\n"
    "        self._clients = dict(state['clients'])\n"
)


def _controller_src(marker=""):
    return (
        "class WgttController:\n"
        "    def __init__(self):\n"
        "        self._clients = {}\n"
        f"        self.mood = 0{marker}\n"
        "    def tick(self):\n"
        "        self._clients['x'] = 1\n"
        "        self.mood += 1\n"
    ) + _SNAPSHOT_SRC


class TestCheckpointRules:
    def run_ckp(self, tmp_path, controller_src):
        return run_fixture(
            tmp_path,
            {"repro/core/controller.py": controller_src},
            [CheckpointCoveragePass()],
        )

    def test_ckp001_uncovered_volatile_attr(self, tmp_path):
        findings = self.run_ckp(
            tmp_path, _controller_src()
        )
        assert rules_of(findings) == ["CKP001"]
        assert "mood" in findings[0].message

    def test_volatile_ok_with_reason_is_clean(self, tmp_path):
        findings = self.run_ckp(
            tmp_path,
            _controller_src(
                "  # volatile-ok: derived, rebuilt on first tick"
            ),
        )
        assert findings == []

    def test_ckp003_volatile_ok_without_reason(self, tmp_path):
        # A reasonless marker still allowlists the attr (no double
        # report) but is itself an error — the gate stays red.
        findings = self.run_ckp(
            tmp_path, _controller_src("  # volatile-ok")
        )
        assert rules_of(findings) == ["CKP003"]

    def test_ckp002_stale_serializer_read(self, tmp_path):
        findings = self.run_ckp(
            tmp_path,
            "class WgttController:\n"
            "    def __init__(self):\n"
            "        self._clients = {}\n"
            "    def tick(self):\n"
            "        self._clients['x'] = 1\n"
            "    def snapshot(self):\n"
            "        return {'clients': dict(self._clients),\n"
            "                'ghost': self._renamed_away}\n"
            "    def restore(self, state):\n"
            "        self._clients = dict(state['clients'])\n",
        )
        assert rules_of(findings) == ["CKP002"]
        assert "_renamed_away" in findings[0].message

    def test_to_state_class_coverage(self, tmp_path):
        findings = self.run_ckp(
            tmp_path,
            "class WgttController:\n"
            "    def __init__(self):\n"
            "        self._clients = {}\n"
            "    def tick(self):\n"
            "        self._clients['x'] = 1\n"
            + _SNAPSHOT_SRC
            + "class ClientState:\n"
            "    def __init__(self, client_id):\n"
            "        self.client_id = client_id\n"
            "        self.forgotten = 0\n"
            "    def to_state(self):\n"
            "        return {'client_id': self.client_id}\n",
        )
        assert rules_of(findings) == ["CKP001"]
        assert "ClientState.forgotten" in findings[0].message


# ----------------------------------------------------------------------
# MET001 — metric-name lint
# ----------------------------------------------------------------------


class TestMetricNameRules:
    def test_met001_braces_in_instrument_name(self, tmp_path):
        findings = run_fixture(
            tmp_path,
            'def f():\n    return metric_key("drops{ap=a3}")\n',
            [MetricNamePass()],
        )
        assert "MET001" in rules_of(findings)

    def test_met001_non_canonical_key_literal(self, tmp_path):
        findings = run_fixture(
            tmp_path,
            # Unsorted labels: metric_key() would emit ap before zone.
            'KEY = "drops{zone=z1,ap=a3}"\n',
            [MetricNamePass()],
        )
        assert rules_of(findings) == ["MET001"]

    def test_met001_canonical_key_ok(self, tmp_path):
        findings = run_fixture(
            tmp_path,
            'KEY = "drops{ap=a3,zone=z1}"\n'
            'def f():\n    return metric_key("drops", ap="a3")\n',
            [MetricNamePass()],
        )
        assert findings == []


# ----------------------------------------------------------------------
# SUP001/SUP002/SYN001 — the engine's own rules
# ----------------------------------------------------------------------


class TestEngineRules:
    def test_sup001_reasonless_suppression(self, tmp_path):
        findings = run_fixture(
            tmp_path,
            "import random  # noqa-repro: DET001\n",
            [DeterminismPass()],
        )
        assert rules_of(findings) == ["SUP001"]

    def test_sup002_unused_suppression(self, tmp_path):
        findings = run_fixture(
            tmp_path,
            "x = 1  # noqa-repro: DET001 — no DET001 fires on this line\n",
            [DeterminismPass()],
        )
        assert rules_of(findings) == ["SUP002"]

    def test_suppression_in_string_literal_ignored(self, tmp_path):
        findings = run_fixture(
            tmp_path,
            'DOC = "suppress with # noqa-repro: DET001 — reason"\n',
            [DeterminismPass()],
        )
        assert findings == []

    def test_syn001_parse_error(self, tmp_path):
        findings = run_fixture(
            tmp_path, "def broken(:\n", [DeterminismPass()]
        )
        assert rules_of(findings) == ["SYN001"]

    def test_rule_filter_skips_suppression_audit(self, tmp_path):
        (tmp_path / "mod.py").write_text(
            "import random  # noqa-repro: DET001 — fixture exception\n"
            "import time\n"
        )
        project = load_project([tmp_path], root=tmp_path)
        findings = run_passes(
            project, [DeterminismPass()], rule_filter=["DET001"]
        )
        # The reasoned suppression absorbs line 1; line 2 survives.
        assert rules_of(findings) == ["DET001"]
        assert findings[0].line == 2


# ----------------------------------------------------------------------
# CLI + repo self-check
# ----------------------------------------------------------------------


class TestCliAndSelfCheck:
    def test_repo_is_clean_under_its_own_lints(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro.analysis", "--json", "src/"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
        )
        assert result.returncode == 0, result.stdout + result.stderr
        payload = json.loads(result.stdout)
        assert payload["findings"] == []

    def test_cli_reports_fixture_findings(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import random\n")
        assert main([str(bad)]) == 1
        out = capsys.readouterr().out
        assert "DET001" in out

    def test_cli_json_is_deterministic(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import random\nimport time\n")
        assert main(["--json", str(bad)]) == 1
        first = capsys.readouterr().out
        assert main(["--json", str(bad)]) == 1
        second = capsys.readouterr().out
        assert first == second
        assert len(json.loads(first)["findings"]) == 2

    def test_cli_rejects_unknown_rule_and_path(self, tmp_path):
        assert main(["--rule", "NOPE999", str(tmp_path)]) == 2
        assert main([str(tmp_path / "missing.py")]) == 2

    def test_rule_catalog_covers_every_pass(self):
        catalog = rule_catalog()
        for analysis_pass in build_passes():
            for rule in analysis_pass.rules:
                assert rule in catalog
        for rule in ("SYN001", "SUP001", "SUP002"):
            assert rule in catalog

    def test_docs_document_every_rule(self):
        doc = (REPO_ROOT / "docs" / "static-analysis.md").read_text()
        for rule in rule_catalog():
            assert rule in doc, f"docs/static-analysis.md must cover {rule}"

    #: Files allowed to touch another module's private fields, and why.
    PRIVATE_READ_ALLOWED = {
        "channel/link_batch.py": (
            "the fused twin of Link.subcarrier_snr_db; its A/B against "
            "the per-link path kept it"
        ),
    }

    def test_no_module_reads_another_modules_private_fields(self):
        """The owner publishes (``collect_metrics()`` / a public
        accessor / a constructor argument); no module reads or writes
        ``x._name`` unless ``x`` is ``self`` / ``cls`` / ``super()`` or
        the file itself defines ``_name`` (a method, a class attribute,
        or a ``self._name`` it assigns)."""
        src = REPO_ROOT / "src" / "repro"
        reach_ins = []
        for path in sorted(src.rglob("*.py")):
            rel = path.relative_to(src).as_posix()
            if rel in self.PRIVATE_READ_ALLOWED:
                continue
            tree = ast.parse(path.read_text())
            defined = set()
            for node in ast.walk(tree):
                if isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                ):
                    defined.add(node.name)
                if isinstance(node, ast.ClassDef):
                    for stmt in node.body:
                        targets = getattr(stmt, "targets", None) or [
                            getattr(stmt, "target", None)
                        ]
                        defined.update(
                            t.id for t in targets if isinstance(t, ast.Name)
                        )
                if (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Store)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in ("self", "cls")
                ):
                    defined.add(node.attr)
            for node in ast.walk(tree):
                if not isinstance(node, ast.Attribute):
                    continue
                name, owner = node.attr, node.value
                if not name.startswith("_") or name.endswith("__"):
                    continue
                if isinstance(owner, ast.Name) and owner.id in ("self", "cls"):
                    continue
                if (
                    isinstance(owner, ast.Call)
                    and isinstance(owner.func, ast.Name)
                    and owner.func.id == "super"
                ):
                    continue
                if name not in defined:
                    reach_ins.append(f"{rel}:{node.lineno} .{name}")
        assert reach_ins == []

    def test_only_the_testbed_asks_whether_there_is_a_shard_manager(self):
        """Every WGTT control plane is ``tb.shards``; code that walks it
        loops over that.  ``shard_manager is (not) None`` anywhere but
        the testbed's own delegations (and ``repro.shard``) is the
        classic/sharded fork growing back one ``if`` at a time."""
        src = REPO_ROOT / "src" / "repro"
        forks = []
        for path in sorted(src.rglob("*.py")):
            rel = path.relative_to(src).as_posix()
            if rel.startswith("shard/") or rel == "scenarios/testbed.py":
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Compare) and any(
                    isinstance(side, ast.Attribute)
                    and side.attr == "shard_manager"
                    for side in (node.left, *node.comparators)
                ):
                    forks.append(f"{rel}:{node.lineno}")
        assert forks == []

    @pytest.mark.skipif(
        not hasattr(sys, "stdlib_module_names"),
        reason="sys.stdlib_module_names needs Python 3.10+",
    )
    def test_every_third_party_import_is_a_declared_dependency(self):
        """``pip install .`` must yield an importable package: whatever
        ``src/repro`` imports that is neither stdlib nor ``repro``
        itself has to be in ``[project].dependencies``.  A package of
        the ``dev`` extra (scipy: the table generator and the closed-form
        oracles) may be imported only inside the function that uses it;
        that a run calls none of those is
        ``tests/test_phy_tables.py::test_a_run_never_imports_scipy``."""
        import re

        pyproject = (REPO_ROOT / "pyproject.toml").read_text()

        def names(key):
            listed = re.search(rf"^{key}\s*=\s*\[(.*?)\]", pyproject, re.M | re.S)
            assert listed, f"pyproject.toml has no {key} list"
            return {
                name.lower().replace("-", "_")
                for name in re.findall(r'"([A-Za-z0-9_.-]+)', listed.group(1))
            }

        declared, dev = names("dependencies"), names("dev")
        undeclared = set()
        for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py")):
            tree = ast.parse(path.read_text())
            in_functions = {
                id(node)
                for function in ast.walk(tree)
                if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
                for node in ast.walk(function)
            }
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    modules = [node.module]
                else:
                    continue
                for module in modules:
                    top = module.split(".")[0].lower()
                    if (
                        top != "repro"
                        and top not in sys.stdlib_module_names
                        and top not in declared
                        and not (top in dev and id(node) in in_functions)
                    ):
                        undeclared.add(
                            f"{path.relative_to(REPO_ROOT)}:{node.lineno} {top}"
                        )
        assert sorted(undeclared) == []


# ----------------------------------------------------------------------
# Flags-manifest regression: AST view == runtime view
# ----------------------------------------------------------------------


def _live_flags():
    """module.Class.field -> default, from the *imported* dataclasses."""
    from repro.core.config import WgttConfig
    from repro.obs.context import ObsConfig
    from repro.scenarios.testbed import TestbedConfig
    from repro.shard.config import ShardConfig
    from repro.soak.harness import SoakConfig

    flags = {}
    for cls in (WgttConfig, ObsConfig, TestbedConfig, ShardConfig,
                SoakConfig):
        for field in dataclasses.fields(cls):
            if field.type in ("bool", bool) and isinstance(
                field.default, bool
            ):
                key = f"{cls.__module__}.{cls.__qualname__}.{field.name}"
                flags[key] = field.default
    return flags


class TestFlagsManifestRegression:
    def test_manifest_matches_live_defaults(self):
        manifest = load_flags_manifest(REPO_ROOT / "analysis" / "flags.toml")
        assert manifest == _live_flags()

    def test_fallback_parser_matches_tomllib(self):
        pytest.importorskip("tomllib")
        import re

        from repro.analysis.passes import flags as flags_mod

        path = REPO_ROOT / "analysis" / "flags.toml"
        via_tomllib = load_flags_manifest(path)
        # Drive the regex fallback directly on the committed manifest.
        parsed = {}
        section = ""
        for line in path.read_text().splitlines():
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            section_match = flags_mod._TOML_SECTION.match(line)
            if section_match:
                section = section_match.group("name").strip()
                continue
            if section != "flags":
                continue
            match = flags_mod._TOML_LINE.match(line)
            assert match, f"fallback parser rejects line: {line!r}"
            key = match.group("quoted") or match.group("bare")
            parsed[key] = match.group("value") == "true"
        assert parsed == via_tomllib
