"""Determinism lint: seed discipline, wall-clock bans, ordered exports.

Everything this reproduction promises — byte-identical replays per
seed, drive-digest comparisons across PRs, sha256 fingerprint chains in
the soak harness — rests on two disciplines the interpreter does not
enforce:

1. **all randomness flows through** :class:`repro.sim.rng.RngRegistry`
   (one root seed, one named stream per consumer), and
2. **nothing that reaches an export** (trace JSONL, checkpoints,
   metrics snapshots) **iterates an unordered container**.

These rules machine-check both.

========  ============================================================
rule      fires when
========  ============================================================
DET001    ``random``/``time``/``datetime`` imported, or a wall-clock /
          calendar call (``time.time()``, ``datetime.now()``, ...)
DET002    a direct ``np.random.*`` / ``numpy.random.*`` call outside
          ``repro/sim/rng.py`` (the one blessed construction site)
DET003    ``RngRegistry.stream()/spawn()`` with a non-literal label
          (a bare variable defeats grep-ability and risks collisions;
          f-strings with a literal prefix are the entity-keyed idiom)
DET004    the same literal stream label used at two different call
          sites (two consumers would share — and perturb — one stream)
DET005    iteration over a ``set`` in an export-path or trace-emitting
          function, or over ``dict.values()/.keys()`` in an
          export-path function, without ``sorted(...)``
DET006    a call to builtin ``hash()``: str/bytes hashes are salted
          per process, so a value derived from one differs run to run
========  ============================================================
"""

from __future__ import annotations

import ast
import re
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.astutil import (
    dotted_name,
    fstring_literal_prefix,
    str_literal,
    walk_functions,
)
from repro.analysis.engine import AnalysisPass
from repro.analysis.findings import Finding
from repro.analysis.project import Project, SourceFile

__all__ = ["DeterminismPass"]

#: The one module allowed to touch numpy's generator constructors.
RNG_MODULE_SUFFIX = "repro/sim/rng.py"

#: Modules whose import is banned outright (DET001).
_BANNED_MODULES = ("random", "time", "datetime")

#: Wall-clock / calendar calls (DET001) by dotted suffix.
_BANNED_CALLS = (
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.process_time",
    "time.process_time_ns",
    "datetime.now",
    "datetime.utcnow",
    "datetime.today",
    "date.today",
)

_NP_RANDOM_CALL = re.compile(r"^(np|numpy)\.random\.\w+$")

#: Functions whose *output ordering is the product*: serializers,
#: snapshots, collectors, checkpoint plumbing.  DET005 holds these to
#: sorted iteration over sets and dict views alike.
_EXPORT_NAME_RE = re.compile(
    r"^_?(snapshot\w*|to_state|to_record|to_json|to_bytes|jsonl_lines"
    r"|fingerprint\w*|digest|describe|collect\w*|export\w*"
    r"|checkpoint\w*|restore\w*|serialize\w*)$"
)

#: Reducers whose result is order-insensitive: a generator feeding one
#: of these may iterate an unordered container without harm.
_ORDER_INSENSITIVE_REDUCERS = frozenset(
    {"sum", "max", "min", "any", "all", "len", "sorted", "set", "frozenset"}
)

_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _is_trace_emit_call(node: ast.Call) -> bool:
    """``tracer.emit(...)`` / ``<...>.trace.begin(...)`` shapes."""
    func = node.func
    if not isinstance(func, ast.Attribute) or func.attr not in ("emit", "begin"):
        return False
    receiver = dotted_name(func.value)
    if receiver is None:
        return False
    return receiver == "tracer" or receiver.endswith(".trace") or receiver == "trace"


def _is_set_expr(node: ast.AST, local_sets: Set[str]) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    ):
        return True
    if isinstance(node, ast.Name) and node.id in local_sets:
        return True
    return False


class DeterminismPass(AnalysisPass):
    name = "determinism"
    rules = {
        "DET001": "banned entropy/clock source (random, time, datetime)",
        "DET002": "direct np.random call outside repro/sim/rng.py",
        "DET003": "non-literal RngRegistry stream/spawn label",
        "DET004": "duplicate literal rng stream label across call sites",
        "DET005": "unsorted set/dict-view iteration on an export path",
        "DET006": "builtin hash() call (salted per process)",
    }

    def run(self, project: Project) -> List[Finding]:
        findings: List[Finding] = []
        #: (method, label) -> [(display_path, line)]
        literal_labels: Dict[Tuple[str, str], List[Tuple[str, int]]] = {}
        for file in project.files:
            if file.tree is None:
                continue
            findings.extend(self._check_imports_and_calls(file))
            findings.extend(self._check_stream_labels(file, literal_labels))
            findings.extend(self._check_export_iteration(file))
        findings.extend(self._check_duplicate_labels(literal_labels))
        return findings

    # -- DET001 / DET002 ----------------------------------------------

    def _check_imports_and_calls(self, file: SourceFile) -> List[Finding]:
        findings: List[Finding] = []
        in_rng_module = file.path.as_posix().endswith(RNG_MODULE_SUFFIX)
        assert file.tree is not None
        for node in ast.walk(file.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    root = alias.name.split(".")[0]
                    if root in _BANNED_MODULES:
                        findings.append(self._det001(file, node, alias.name))
            elif isinstance(node, ast.ImportFrom):
                root = (node.module or "").split(".")[0]
                if root in _BANNED_MODULES and node.level == 0:
                    findings.append(
                        self._det001(file, node, node.module or "")
                    )
            elif isinstance(node, ast.Call):
                name = dotted_name(node.func)
                if name is None:
                    continue
                if any(
                    name == banned or name.endswith("." + banned)
                    for banned in _BANNED_CALLS
                ):
                    findings.append(self._det001(file, node, name + "()"))
                elif name == "hash":
                    findings.append(
                        Finding(
                            path=file.display_path,
                            line=node.lineno,
                            col=node.col_offset,
                            rule="DET006",
                            message=(
                                "builtin hash() call: str/bytes hashes are "
                                "salted per process, so a value derived from "
                                "one differs between runs of the same seed"
                            ),
                            hint=(
                                "use a stable digest (zlib.crc32, hashlib; "
                                "repro.net.packet.src_bits for node ids)"
                            ),
                        )
                    )
                elif _NP_RANDOM_CALL.match(name) and not in_rng_module:
                    findings.append(
                        Finding(
                            path=file.display_path,
                            line=node.lineno,
                            col=node.col_offset,
                            rule="DET002",
                            message=(
                                f"direct {name}() call: numpy generators "
                                "may only be constructed in repro/sim/rng.py"
                            ),
                            hint=(
                                "take an RngRegistry and call "
                                '.stream("<label>"), or use '
                                "repro.sim.rng.seeded_generator for a "
                                "fixed-seed stream"
                            ),
                        )
                    )
        return findings

    def _det001(self, file: SourceFile, node: ast.AST, what: str) -> Finding:
        return Finding(
            path=file.display_path,
            line=node.lineno,
            col=node.col_offset,
            rule="DET001",
            message=(
                f"banned entropy/clock source {what!r}: simulation code "
                "must be a pure function of (seed, config)"
            ),
            hint=(
                "draw randomness from RngRegistry.stream(); timestamps "
                "come from the simulation clock (sim.now)"
            ),
        )

    # -- DET003 / DET004 ----------------------------------------------

    def _check_stream_labels(
        self,
        file: SourceFile,
        literal_labels: Dict[Tuple[str, str], List[Tuple[str, int]]],
    ) -> List[Finding]:
        findings: List[Finding] = []
        assert file.tree is not None
        for node in ast.walk(file.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            if func.attr not in ("stream", "spawn"):
                continue
            label_node: Optional[ast.AST] = None
            if node.args:
                label_node = node.args[0]
            else:
                for keyword in node.keywords:
                    if keyword.arg == "label":
                        label_node = keyword.value
            if label_node is None:
                continue
            literal = str_literal(label_node)
            if literal is not None:
                key = (func.attr, literal)
                literal_labels.setdefault(key, []).append(
                    (file.display_path, node.lineno)
                )
                continue
            prefix = fstring_literal_prefix(label_node)
            if prefix:
                # Entity-keyed stream families ("fading/{ap}/{client}")
                # are the supported idiom: the literal prefix keeps the
                # family greppable and namespaced.
                continue
            findings.append(
                Finding(
                    path=file.display_path,
                    line=node.lineno,
                    col=node.col_offset,
                    rule="DET003",
                    message=(
                        f"rng .{func.attr}() label is not a string "
                        "literal (or an f-string with a literal prefix)"
                    ),
                    hint=(
                        "pass the label literally at the call site so "
                        "stream ownership stays greppable and collision-"
                        "checkable"
                    ),
                )
            )
        return findings

    def _check_duplicate_labels(
        self,
        literal_labels: Dict[Tuple[str, str], List[Tuple[str, int]]],
    ) -> List[Finding]:
        findings: List[Finding] = []
        for (method, label), sites in sorted(literal_labels.items()):
            distinct = sorted(set(sites))
            if len(distinct) < 2:
                continue
            first = distinct[0]
            for path, line in distinct[1:]:
                findings.append(
                    Finding(
                        path=path,
                        line=line,
                        col=0,
                        rule="DET004",
                        message=(
                            f"duplicate rng {method} label {label!r} "
                            f"(first used at {first[0]}:{first[1]}): two "
                            "call sites would share one stream and "
                            "perturb each other's draws"
                        ),
                        hint="give each consumer its own label",
                    )
                )
        return findings

    # -- DET005 --------------------------------------------------------

    def _check_export_iteration(self, file: SourceFile) -> List[Finding]:
        findings: List[Finding] = []
        assert file.tree is not None
        for function, qualified in walk_functions(file.tree):
            short_name = qualified.rsplit(".", 1)[-1]
            is_export = bool(_EXPORT_NAME_RE.match(short_name))
            emits_trace = any(
                isinstance(node, ast.Call) and _is_trace_emit_call(node)
                for node in ast.walk(function)
            )
            if not (is_export or emits_trace):
                continue
            findings.extend(
                self._check_function_iteration(
                    file, function, qualified, dict_views=is_export
                )
            )
        return findings

    def _check_function_iteration(
        self,
        file: SourceFile,
        function: ast.AST,
        qualified: str,
        dict_views: bool,
    ) -> List[Finding]:
        local_sets: Set[str] = set()
        for node in ast.walk(function):
            if isinstance(node, ast.Assign) and _is_set_expr(
                node.value, local_sets
            ):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        local_sets.add(target.id)

        # Generator expressions feeding sum()/max()/... are order-safe.
        exempt: Set[int] = set()
        for node in ast.walk(function):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in _ORDER_INSENSITIVE_REDUCERS
            ):
                for arg in node.args:
                    if isinstance(arg, _COMPREHENSIONS):
                        exempt.add(id(arg))

        iteration_sites: List[Tuple[ast.AST, ast.AST]] = []
        for node in ast.walk(function):
            if isinstance(node, ast.For):
                iteration_sites.append((node, node.iter))
            elif isinstance(node, _COMPREHENSIONS) and id(node) not in exempt:
                for generator in node.generators:
                    iteration_sites.append((node, generator.iter))

        findings: List[Finding] = []
        for site, iterable in iteration_sites:
            if _is_set_expr(iterable, local_sets):
                findings.append(
                    self._det005(file, site, qualified, "a set")
                )
            elif (
                dict_views
                and isinstance(iterable, ast.Call)
                and isinstance(iterable.func, ast.Attribute)
                and iterable.func.attr in ("values", "keys")
            ):
                findings.append(
                    self._det005(
                        file, site, qualified, f".{iterable.func.attr}()"
                    )
                )
        return findings

    def _det005(
        self, file: SourceFile, node: ast.AST, qualified: str, what: str
    ) -> Finding:
        return Finding(
            path=file.display_path,
            line=node.lineno,
            col=node.col_offset,
            rule="DET005",
            message=(
                f"{qualified} iterates {what} without sorted(): "
                "export-path ordering would depend on hash seeds or "
                "insertion history"
            ),
            hint=(
                "iterate sorted(keys) and index, or wrap the iterable "
                "in sorted(...)"
            ),
        )
