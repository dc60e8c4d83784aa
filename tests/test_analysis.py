"""The repository's static checks (``tests/lint.py``): per-rule fixtures
and tree-wide self-checks.

Five layers:

* **fixture tests** — for every rule, a minimal snippet where it fires
  (positive) and a minimal snippet where it must stay silent
  (negative);
* **self-checks** — ``src/repro`` must be clean under every rule, and
  under the structural checks below (no reach-ins to another module's
  private fields, declared dependencies);
* **flags manifest** — the committed ``analysis/flags.toml`` must match
  the defaults of every ``bool`` field of every ``*Config`` dataclass
  the imported ``repro`` package defines.  This test is the only check
  of the manifest;
* **setter census** — every field of those dataclasses is set by some
  code in ``src/``, ``tests/``, ``examples/`` or ``benchmarks/``;
* **signature census** — every defaulted parameter of every function
  and method the package defines is passed by some call there.
"""

import ast
import dataclasses
import importlib
import inspect
import pkgutil
import sys
from pathlib import Path

import pytest

from tests.lint import (
    RULES,
    checkpoint_coverage,
    determinism,
    lint,
    load,
    metric_names,
    trace_kinds,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


def run_fixture(tmp_path, sources, check, rel="pkg/mod.py"):
    """Write ``sources`` under ``tmp_path`` and run ``check`` over them.

    ``sources`` is either one source string (written to ``rel``) or a
    dict of relative-path -> source.  Returns the sorted findings.
    """
    if isinstance(sources, str):
        sources = {rel: sources}
    for relative, text in sources.items():
        target = tmp_path / relative
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(text)
    return sorted(check(load(tmp_path)))


def rules_of(findings):
    return [finding.rule for finding in findings]


def catalog_check(catalog):
    return lambda sources: trace_kinds(sources, catalog=catalog)


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
            determinism,
        )
        assert rules_of(findings) == ["DET001", "DET001", "DET001"]

    def test_det001_negative(self, tmp_path):
        findings = run_fixture(
            tmp_path,
            "from repro.sim.rng import RngRegistry\n"
            "def f(sim):\n"
            "    return sim.now\n",
            determinism,
        )
        assert findings == []

    def test_det002_direct_numpy_generator(self, tmp_path):
        findings = run_fixture(
            tmp_path,
            "import numpy as np\n"
            "gen = np.random.default_rng(7)\n",
            determinism,
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
            determinism,
        )
        assert findings == []

    def test_det003_dynamic_label(self, tmp_path):
        findings = run_fixture(
            tmp_path,
            "def f(rng, label):\n"
            "    return rng.stream(label)\n",
            determinism,
        )
        assert rules_of(findings) == ["DET003"]

    def test_det003_literal_and_fstring_prefix_ok(self, tmp_path):
        findings = run_fixture(
            tmp_path,
            "def f(rng, ap):\n"
            '    a = rng.stream("mac/backoff")\n'
            '    b = rng.stream(f"fading/{ap}")\n'
            "    return a, b\n",
            determinism,
        )
        assert findings == []

    def test_det004_duplicate_label(self, tmp_path):
        findings = run_fixture(
            tmp_path,
            "def f(rng):\n"
            '    return rng.stream("shared/label")\n'
            "def g(rng):\n"
            '    return rng.stream("shared/label")\n',
            determinism,
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
            "    return a, b, c\n",
            determinism,
        )
        assert rules_of(findings) == ["DET006"]
        assert findings[0].line == 3

    def test_det005_unsorted_values_in_export(self, tmp_path):
        findings = run_fixture(
            tmp_path,
            "def snapshot(d):\n"
            "    return [t.deadline for t in d.values()]\n",
            determinism,
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
            determinism,
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
            catalog_check(_CATALOG),
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
            catalog_check(_CATALOG),
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
            catalog_check(_CATALOG),
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
            catalog_check(_CATALOG),
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
            catalog_check(_CATALOG),
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
            catalog_check({"switch": ("controller",), "tx": ("controller",)}),
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
            checkpoint_coverage,
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

    def test_coverage_follows_snapshot_into_its_helpers(self, tmp_path):
        # A store the per-client record builder reads is covered; one
        # neither reads is still flagged.
        findings = self.run_ckp(
            tmp_path,
            "class WgttController:\n"
            "    def __init__(self):\n"
            "        self._clients = {}\n"
            "        self._heard = {}\n"
            "        self._forgotten = {}\n"
            "    def tick(self):\n"
            "        self._clients['x'] = 1\n"
            "        self._heard['x'] = 1\n"
            "        self._forgotten['x'] = 1\n"
            "    def snapshot(self):\n"
            "        return {c: self._record(c) for c in self._clients}\n"
            "    def _record(self, client):\n"
            "        return {'heard': self._heard.get(client)}\n"
            "    def restore(self, state):\n"
            "        self._clients = dict(state)\n",
        )
        assert rules_of(findings) == ["CKP001"]
        assert "_forgotten" in findings[0].message

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
            metric_names,
        )
        assert "MET001" in rules_of(findings)

    def test_met001_non_canonical_key_literal(self, tmp_path):
        findings = run_fixture(
            tmp_path,
            # Unsorted labels: metric_key() would emit ap before zone.
            'KEY = "drops{zone=z1,ap=a3}"\n',
            metric_names,
        )
        assert rules_of(findings) == ["MET001"]

    def test_met001_canonical_key_ok(self, tmp_path):
        findings = run_fixture(
            tmp_path,
            'KEY = "drops{ap=a3,zone=z1}"\n'
            'def f():\n    return metric_key("drops", ap="a3")\n',
            metric_names,
        )
        assert findings == []


# ----------------------------------------------------------------------
# The tree under every rule, and the structural self-checks
# ----------------------------------------------------------------------


class TestCliAndSelfCheck:
    def test_repo_is_clean_under_its_own_lints(self):
        findings = lint(load(REPO_ROOT / "src", root=REPO_ROOT))
        assert findings == [], "\n".join(map(str, findings))

    def test_findings_name_file_and_line(self, tmp_path):
        findings = run_fixture(
            tmp_path, "import zlib\nimport random\n", lint, rel="pkg/bad.py"
        )
        assert [str(f).split(": ")[0] for f in findings] == ["pkg/bad.py:2 DET001"]

    def test_findings_are_deterministic(self, tmp_path):
        source = "import random\nimport time\n"
        first = run_fixture(tmp_path, source, lint)
        assert len(first) == 2
        assert run_fixture(tmp_path, source, lint) == first

    def test_rule_catalog_covers_every_pass(self):
        assert sorted(RULES) == [
            *(f"CKP00{n}" for n in (1, 2, 3)),
            *(f"DET00{n}" for n in range(1, 7)),
            "MET001",
            *(f"TRC00{n}" for n in (1, 2, 3)),
        ]

    def test_docs_document_every_rule(self):
        doc = (REPO_ROOT / "docs" / "static-analysis.md").read_text()
        for rule in RULES:
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
# The flags manifest: analysis/flags.toml == the live config defaults
# ----------------------------------------------------------------------


def _repro_modules():
    """Every module of the imported ``repro`` package tree."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith(".__main__"):
            continue  # repro/__main__.py calls sys.exit on import
        yield importlib.import_module(info.name)


def _config_classes():
    """Every ``*Config`` dataclass in the imported ``repro`` package
    tree, once each, in name order."""
    classes = {}
    for module in _repro_modules():
        for name, cls in vars(module).items():
            if (
                name.endswith("Config")
                and isinstance(cls, type)
                and dataclasses.is_dataclass(cls)
            ):
                classes[f"{cls.__module__}.{cls.__qualname__}"] = cls
    return [classes[key] for key in sorted(classes)]


def _live_flags():
    """module.Class.field -> default, for every bool field of every
    ``*Config`` dataclass in the imported ``repro`` package tree."""
    flags = {}
    for cls in _config_classes():
        for field in dataclasses.fields(cls):
            if field.type in ("bool", bool) and isinstance(field.default, bool):
                key = f"{cls.__module__}.{cls.__qualname__}.{field.name}"
                flags[key] = field.default
    return flags


def manifest_drift(manifest, live):
    """One line per key on which the manifest and the code disagree."""
    return (
        [
            f"unreviewed: {key} = {live[key]} is not in the manifest"
            for key in sorted(live.keys() - manifest.keys())
        ]
        + [
            f"stale: {key} = {manifest[key]} matches no config field"
            for key in sorted(manifest.keys() - live.keys())
        ]
        + [
            f"flipped: {key} defaults to {live[key]}, "
            f"the manifest says {manifest[key]}"
            for key in sorted(manifest.keys() & live.keys())
            if manifest[key] != live[key]
        ]
    )


class TestFlagsManifestRegression:
    @pytest.mark.skipif(
        sys.version_info < (3, 11),
        reason="reads the manifest with tomllib (Python 3.11+)",
    )
    def test_manifest_matches_live_defaults(self):
        import tomllib

        with open(REPO_ROOT / "analysis" / "flags.toml", "rb") as handle:
            manifest = tomllib.load(handle)["flags"]
        drift = manifest_drift(manifest, _live_flags())
        assert not drift, "\n".join(
            ["analysis/flags.toml disagrees with the code:", *drift]
        )


#: Config fields that no code sets, each with why it stays a field.
UNSET_FIELDS_ALLOWED = {
    "TestbedConfig.first_ap_x_m": "read, not set, by the ledger",
}


def _forwards(name, value):
    """``value`` hands on the field's own value (``config.name``,
    ``self._name``) rather than choosing one."""
    return isinstance(value, ast.Attribute) and value.attr in (name, "_" + name)


def _set_names(roots):
    """Every name some code under ``roots`` sets: keyword arguments and
    assignments to ``x.name`` (not ``self.name``, the assigning object's
    own attribute), less those that only forward the same name's
    value."""
    names = set()
    for root in roots:
        for path in sorted((REPO_ROOT / root).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.keyword) and node.arg:
                    if not _forwards(node.arg, node.value):
                        names.add(node.arg)
                elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                    targets = (
                        node.targets
                        if isinstance(node, ast.Assign)
                        else [node.target]
                    )
                    for target in targets:
                        for part in ast.walk(target):
                            if (
                                isinstance(part, ast.Attribute)
                                and isinstance(part.ctx, ast.Store)
                                and not (
                                    isinstance(part.value, ast.Name)
                                    and part.value.id == "self"
                                )
                                and not _forwards(part.attr, node.value)
                            ):
                                names.add(part.attr)
    return names


class TestConfigSetterCensus:
    def test_every_config_field_is_set_somewhere(self):
        """A ``*Config`` field that no run, sweep, example or test sets
        is a constant in disguise: it belongs beside its reader as an
        UPPER_SNAKE module constant.  Forwarding a field's own value
        (``pathloss=config.pathloss``) is plumbing, not a setting."""
        set_names = _set_names(("src", "tests", "examples", "benchmarks"))
        unset = sorted(
            f"{cls.__qualname__}.{field.name}"
            for cls in _config_classes()
            for field in dataclasses.fields(cls)
            if field.name not in set_names
        )
        assert unset == sorted(UNSET_FIELDS_ALLOWED), (
            "config fields no code sets (make each a module constant "
            "beside its reader, or list why it stays): "
            + ", ".join(sorted(set(unset) - set(UNSET_FIELDS_ALLOWED)))
        )


class TestFlagManifestRules:
    """Each kind of drift is named with its key and the default at stake;
    keys on which the manifest and the code agree are not reported."""

    def test_cfg001_unreviewed_flag(self):
        drift = manifest_drift(
            {"m.C.same": True}, {"m.C.same": True, "m.C.new": True}
        )
        assert drift == ["unreviewed: m.C.new = True is not in the manifest"]

    def test_cfg002_stale_entry(self):
        drift = manifest_drift(
            {"m.C.same": False, "m.C.gone": True}, {"m.C.same": False}
        )
        assert drift == ["stale: m.C.gone = True matches no config field"]

    def test_cfg003_flipped_default(self):
        drift = manifest_drift(
            {"m.C.same": True, "m.C.flip": False},
            {"m.C.same": True, "m.C.flip": True},
        )
        assert drift == [
            "flipped: m.C.flip defaults to True, the manifest says False"
        ]


#: Defaulted parameters that no call passes, each with why it stays:
#: function (``run`` for every registered driver) -> (parameters, why).
UNPASSED_PARAMETERS_ALLOWED = {
    "run": (
        ("seed", "quick", "jobs"),
        "every registered driver's signature contract; the CLI calls "
        "each one as Experiment.run",
    ),
    "repro.phy.esnr.effective_snr_db": (
        ("_reduce",),
        "binds np.add.reduce as a local on the hot path; not a setting",
    ),
    "repro.channel.link.Link.rssi_dbm": (
        ("tx_id",),
        "the per-link oracle reads either end, like the Link's other "
        "power methods",
    ),
    "repro.net.backhaul.EthernetBackhaul.__init__": (
        ("loss_rng",),
        "goes with loss_rate (ROADMAP 1(a))",
    ),
}


def _signatures():
    """label -> (callee name, function, leading bound parameter?) for
    every function and method the ``repro`` package tree defines.  A
    dataclass's generated ``__init__`` is the setter census's business
    and is left out."""
    found = {}
    for module in _repro_modules():
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                found[f"{module.__name__}.{obj.__qualname__}"] = (
                    obj.__name__, obj, False
                )
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    function = getattr(member, "__func__", member)
                    if (
                        not inspect.isfunction(function)
                        or function.__qualname__ != f"{obj.__qualname__}.{attr}"
                        or (attr == "__init__" and dataclasses.is_dataclass(obj))
                    ):
                        continue
                    callee = obj.__name__ if attr == "__init__" else attr
                    found[f"{module.__name__}.{function.__qualname__}"] = (
                        callee, function, not isinstance(member, staticmethod)
                    )
    return found


def _calls_by_name(roots):
    """callee name -> every call under ``roots`` to ``name(...)`` or
    ``x.name(...)``."""
    calls = {}
    for root in roots:
        for path in sorted((REPO_ROOT / root).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = getattr(func, "id", getattr(func, "attr", None))
                    calls.setdefault(name, []).append(node)
    return calls


def _hands_on_own(name, value):
    """``value`` is the calling object's own ``self.name`` /
    ``self._name``: plumbing, not a choice."""
    return (
        isinstance(value, ast.Attribute)
        and isinstance(value.value, ast.Name)
        and value.value.id == "self"
        and value.attr in (name, "_" + name)
    )


def _passes(call, parameter, index, named):
    """Whether ``call`` chooses ``parameter`` (the ``index``-th after any
    bound ``self``/``cls``; ``named`` are all the parameter names)."""
    if any(isinstance(arg, ast.Starred) for arg in call.args) or any(
        keyword.arg is None for keyword in call.keywords
    ):
        return True
    if parameter.kind is parameter.VAR_KEYWORD:
        return any(keyword.arg not in named for keyword in call.keywords)
    if parameter.kind is not parameter.KEYWORD_ONLY and index < len(call.args):
        return not _hands_on_own(parameter.name, call.args[index])
    return any(
        keyword.arg == parameter.name
        and not _hands_on_own(parameter.name, keyword.value)
        for keyword in call.keywords
    )


class TestSignatureSetterCensus:
    def test_every_defaulted_parameter_is_passed_somewhere(self):
        """A defaulted parameter that no run, sweep, example or test
        passes is a constant in disguise, like an unset config field.
        A call counts when its callee has the function's name (the
        class's, for ``__init__``) and it passes the parameter by
        keyword, by position or through a ``*``/``**`` splat; handing
        on the caller's own ``self.name`` does not choose a value."""
        from repro.experiments import registry

        drivers = {experiment.run for experiment in registry.discover().values()}
        calls = _calls_by_name(("src", "tests", "examples", "benchmarks"))
        defaulted = 0
        unpassed = set()
        for label, (callee, function, bound) in _signatures().items():
            parameters = list(inspect.signature(function).parameters.values())
            parameters = parameters[1:] if bound else parameters
            named = {parameter.name for parameter in parameters}
            for index, parameter in enumerate(parameters):
                if parameter.kind is parameter.VAR_KEYWORD:
                    name = "**" + parameter.name
                elif parameter.default is not parameter.empty:
                    defaulted += 1
                    name = parameter.name
                else:
                    continue
                if not any(
                    _passes(call, parameter, index, named)
                    for call in calls.get(callee, ())
                ):
                    unpassed.add(("run" if function in drivers else label, name))
        allowed = {
            (label, name)
            for label, (names, _why) in UNPASSED_PARAMETERS_ALLOWED.items()
            for name in names
        }
        unlisted = [f"{label}({name})" for label, name in sorted(unpassed - allowed)]
        stale = [f"{label}({name})" for label, name in sorted(allowed - unpassed)]
        assert not unlisted and not stale, (
            f"of {defaulted} defaulted parameters, no code passes "
            f"{', '.join(unlisted) or 'none unlisted'} (make each a module "
            "constant beside its reader, or list why it stays); listed but "
            f"passed now: {', '.join(stale) or 'none'}"
        )
