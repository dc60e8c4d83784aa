"""The repository's own static checks, as plain functions over parsed source.

Every guarantee this reproduction makes -- byte-identical replays per
seed, checkpoints that restore bit-identically, trace exports the
validator accepts -- is a global property one local edit can break.
These checks turn four such contracts into AST rules.
``tests/test_analysis.py`` runs them over ``src/repro`` (the tree must
be clean) and over a fixture per rule; each finding reads
``path:line RULE: message``.  docs/static-analysis.md is the catalog.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Mapping, NamedTuple, Optional, Sequence, Set, Tuple

#: Rule id -> what it catches.
RULES = {
    "DET001": "banned entropy/clock source (random, time, datetime)",
    "DET002": "direct np.random call outside repro/sim/rng.py",
    "DET003": "non-literal RngRegistry stream/spawn label",
    "DET004": "duplicate literal rng stream label across call sites",
    "DET005": "unsorted set/dict-view iteration on an export path",
    "DET006": "builtin hash() call (salted per process)",
    "TRC001": "emitted trace (sub, name) missing from the schema catalog",
    "TRC002": "schema catalog trace name emitted nowhere",
    "TRC003": "trace emit site with non-literal sub/name",
    "CKP001": "volatile controller state not covered by the checkpoint",
    "CKP002": "checkpoint reads an attribute the controller lacks",
    "CKP003": "volatile-ok allowlist entry without a reason",
    "MET001": "malformed metric name or non-canonical key literal",
}


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source line."""

    path: str
    line: int
    rule: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line} {self.rule}: {self.message}"


class Source(NamedTuple):
    path: str  # posix, relative to the root the tree was loaded from
    tree: ast.AST
    lines: List[str]


def load(directory: Path, root: Optional[Path] = None) -> List[Source]:
    """Every ``*.py`` under ``directory``, parsed, in path order."""
    root = root or directory
    sources = []
    for path in sorted(directory.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        sources.append(
            Source(
                path.relative_to(root).as_posix(),
                ast.parse(text, filename=str(path)),
                text.splitlines(),
            )
        )
    return sources


def lint(sources: Sequence[Source]) -> List[Finding]:
    """Every check over ``sources``; the findings, sorted."""
    return sorted(
        determinism(sources)
        + trace_kinds(sources)
        + checkpoint_coverage(sources)
        + metric_names(sources)
    )


# -- AST helpers ---------------------------------------------------------


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def str_literal(node: Optional[ast.AST]) -> Optional[str]:
    """The value of a plain string constant, else None."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def walk_functions(tree: ast.AST, prefix: str = "") -> Iterator[Tuple[ast.AST, str]]:
    """Every (async) function definition with its dotted qualified name."""
    for child in ast.iter_child_nodes(tree):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qualified = f"{prefix}{child.name}"
            yield child, qualified
            yield from walk_functions(child, f"{qualified}.")
        elif isinstance(child, ast.ClassDef):
            yield from walk_functions(child, f"{prefix}{child.name}.")
        else:
            yield from walk_functions(child, prefix)


# -- DET001-DET006: determinism ------------------------------------------
#
# Byte-identical replays rest on two disciplines: all randomness flows
# through repro.sim.rng.RngRegistry (one root seed, one named stream per
# consumer), and nothing that reaches an export (trace JSONL,
# checkpoints, metrics snapshots) iterates an unordered container.

#: The one module allowed to touch numpy's generator constructors.
RNG_MODULE_SUFFIX = "repro/sim/rng.py"

_BANNED_MODULES = ("random", "time", "datetime")

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


def determinism(sources: Sequence[Source]) -> List[Finding]:
    findings: List[Finding] = []
    #: (method, label) -> [(path, line)]
    labels: Dict[Tuple[str, str], List[Tuple[str, int]]] = {}
    for source in sources:
        findings += _entropy_sources(source)
        findings += _stream_labels(source, labels)
        findings += _export_iteration(source)
    for (method, label), sites in sorted(labels.items()):
        distinct = sorted(set(sites))
        for path, line in distinct[1:]:
            findings.append(
                Finding(
                    path,
                    line,
                    "DET004",
                    f"duplicate rng {method} label {label!r} (first used at "
                    f"{distinct[0][0]}:{distinct[0][1]}): two call sites would "
                    "share one stream and perturb each other's draws; give "
                    "each consumer its own label",
                )
            )
    return findings


def _entropy_sources(source: Source) -> List[Finding]:
    """DET001 (clock/entropy imports and calls), DET002, DET006."""
    findings: List[Finding] = []
    in_rng_module = source.path.endswith(RNG_MODULE_SUFFIX)

    def det001(node: ast.AST, what: str) -> None:
        findings.append(
            Finding(
                source.path,
                node.lineno,
                "DET001",
                f"banned entropy/clock source {what!r}: simulation code must "
                "be a pure function of (seed, config); draw randomness from "
                "RngRegistry.stream() and read time from sim.now",
            )
        )

    for node in ast.walk(source.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] in _BANNED_MODULES:
                    det001(node, alias.name)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module.split(".")[0] in _BANNED_MODULES and node.level == 0:
                det001(node, module)
        elif isinstance(node, ast.Call):
            name = dotted_name(node.func)
            if name is None:
                continue
            if any(name == b or name.endswith("." + b) for b in _BANNED_CALLS):
                det001(node, name + "()")
            elif name == "hash":
                findings.append(
                    Finding(
                        source.path,
                        node.lineno,
                        "DET006",
                        "builtin hash() call: str/bytes hashes are salted per "
                        "process, so a value derived from one differs between "
                        "runs of the same seed; use a stable digest "
                        "(zlib.crc32, hashlib; repro.net.packet.src_bits for "
                        "node ids)",
                    )
                )
            elif _NP_RANDOM_CALL.match(name) and not in_rng_module:
                findings.append(
                    Finding(
                        source.path,
                        node.lineno,
                        "DET002",
                        f"direct {name}() call: numpy generators may only be "
                        "constructed in repro/sim/rng.py; take an RngRegistry "
                        'and call .stream("<label>"), or use '
                        "repro.sim.rng.seeded_generator for a fixed-seed stream",
                    )
                )
    return findings


def _stream_labels(
    source: Source, labels: Dict[Tuple[str, str], List[Tuple[str, int]]]
) -> List[Finding]:
    """DET003; collects the literal labels DET004 compares."""
    findings: List[Finding] = []
    for node in ast.walk(source.tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("stream", "spawn")
        ):
            continue
        method = node.func.attr
        label = node.args[0] if node.args else next(
            (k.value for k in node.keywords if k.arg == "label"), None
        )
        if label is None:
            continue
        literal = str_literal(label)
        if literal is not None:
            labels.setdefault((method, literal), []).append((source.path, node.lineno))
            continue
        # Entity-keyed stream families (f"fading/{ap}/{client}") are the
        # supported idiom: the literal prefix keeps the family greppable.
        if isinstance(label, ast.JoinedStr) and str_literal(
            label.values[0] if label.values else None
        ):
            continue
        findings.append(
            Finding(
                source.path,
                node.lineno,
                "DET003",
                f"rng .{method}() label is not a string literal (or an "
                "f-string with a literal prefix): pass the label literally so "
                "stream ownership stays greppable and collision-checkable",
            )
        )
    return findings


def _is_set_expr(node: ast.AST, local_sets: Set[str]) -> bool:
    return (
        isinstance(node, (ast.Set, ast.SetComp))
        or (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("set", "frozenset")
        )
        or (isinstance(node, ast.Name) and node.id in local_sets)
    )


def _is_trace_emit_call(node: ast.AST) -> bool:
    """``tracer.emit(...)`` / ``<...>.trace.begin(...)`` shapes."""
    if not (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("emit", "begin")
    ):
        return False
    receiver = dotted_name(node.func.value)
    return receiver is not None and (
        receiver in ("tracer", "trace") or receiver.endswith(".trace")
    )


def _export_iteration(source: Source) -> List[Finding]:
    """DET005: export-path and trace-emitting functions iterate sorted."""
    findings: List[Finding] = []
    for function, qualified in walk_functions(source.tree):
        is_export = bool(_EXPORT_NAME_RE.match(qualified.rsplit(".", 1)[-1]))
        if not (is_export or any(map(_is_trace_emit_call, ast.walk(function)))):
            continue
        local_sets: Set[str] = set()
        exempt: Set[int] = set()
        sites: List[Tuple[ast.AST, ast.AST]] = []
        for node in ast.walk(function):
            if isinstance(node, ast.Assign) and _is_set_expr(node.value, local_sets):
                local_sets.update(t.id for t in node.targets if isinstance(t, ast.Name))
            # Generator expressions feeding sum()/max()/... are order-safe.
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in _ORDER_INSENSITIVE_REDUCERS
            ):
                exempt.update(id(a) for a in node.args if isinstance(a, _COMPREHENSIONS))
        for node in ast.walk(function):
            if isinstance(node, ast.For):
                sites.append((node, node.iter))
            elif isinstance(node, _COMPREHENSIONS) and id(node) not in exempt:
                sites += [(node, g.iter) for g in node.generators]
        for site, iterable in sites:
            what = None
            if _is_set_expr(iterable, local_sets):
                what = "a set"
            elif (
                is_export
                and isinstance(iterable, ast.Call)
                and isinstance(iterable.func, ast.Attribute)
                and iterable.func.attr in ("values", "keys")
            ):
                what = f".{iterable.func.attr}()"
            if what is not None:
                findings.append(
                    Finding(
                        source.path,
                        site.lineno,
                        "DET005",
                        f"{qualified} iterates {what} without sorted(): "
                        "export-path ordering would depend on hash seeds or "
                        "insertion history; iterate sorted(keys) and index",
                    )
                )
    return findings


# -- TRC001-TRC003: emit sites vs repro.obs.schema.TRACE_NAMES -----------
#
# Consumers (the schema validator, invariant subscriptions, the Chrome
# exporter, cross-run trace diffs) key on literal event names.  A name
# only at its emit site is invisible to the validator; a name only in
# the catalog is a contract nothing fulfils.

#: TRC002 (never emitted) only fires when the scan covered the emitters,
#: so a partial scan never reports the whole catalog dead.
_FULL_SCAN_MARKER = "repro/core/controller.py"


def _literal_choices(node: ast.AST) -> Optional[List[str]]:
    """Every value a literal, or an ``"a" if c else "b"`` of literals, takes."""
    literal = str_literal(node)
    if literal is not None:
        return [literal]
    if isinstance(node, ast.IfExp):
        body, orelse = _literal_choices(node.body), _literal_choices(node.orelse)
        if body is not None and orelse is not None:
            return body + orelse
    return None


def trace_kinds(
    sources: Sequence[Source], catalog: Optional[Mapping[str, Sequence[str]]] = None
) -> List[Finding]:
    """``catalog`` is name -> allowed subsystems; None reads the live schema."""
    if catalog is None:
        from repro.obs.schema import TRACE_NAMES

        catalog = TRACE_NAMES
    findings: List[Finding] = []
    sites: Dict[Tuple[str, str], List[Tuple[str, int]]] = {}
    for source in sources:
        # The tracer and the schema itself mention names without emitting.
        if "repro/obs/" in source.path:
            continue
        for node in ast.walk(source.tree):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                continue
            receiver = dotted_name(node.func.value)
            if (
                node.func.attr not in ("emit", "begin")
                or receiver is None
                or not (receiver in ("tracer", "trace") or receiver.endswith((".trace", ".tracer")))
                or len(node.args) < 2
            ):
                continue
            subs, names = _literal_choices(node.args[0]), _literal_choices(node.args[1])
            if subs is None or names is None:
                findings.append(
                    Finding(
                        source.path,
                        node.lineno,
                        "TRC003",
                        "trace emit with a non-literal sub/name: the schema "
                        "cross-check cannot see it; pass both as string literals",
                    )
                )
                continue
            for sub in subs:
                for name in names:
                    sites.setdefault((sub, name), []).append((source.path, node.lineno))

    for (sub, name), locations in sorted(sites.items()):
        path, line = min(locations)
        allowed = catalog.get(name)
        if allowed is None:
            findings.append(
                Finding(
                    path,
                    line,
                    "TRC001",
                    f"trace name {name!r} (sub {sub!r}) is not in "
                    "repro.obs.schema.TRACE_NAMES; add it, with its "
                    "subsystem, in the same change",
                )
            )
        elif sub not in allowed:
            findings.append(
                Finding(
                    path,
                    line,
                    "TRC001",
                    f"trace name {name!r} emitted by sub {sub!r}, but the "
                    f"schema allows only {sorted(allowed)}",
                )
            )
    if any(source.path.endswith(_FULL_SCAN_MARKER) for source in sources):
        emitted = {name for _, name in sites}
        for name in sorted(set(catalog) - emitted):
            findings.append(
                Finding(
                    "src/repro/obs/schema.py",
                    1,
                    "TRC002",
                    f"schema catalog name {name!r} is emitted nowhere in the "
                    "scanned tree; remove the entry or restore the emit site",
                )
            )
    return findings


# -- CKP001-CKP003: controller state vs WgttController.snapshot ----------
#
# The HA guarantee is that snapshot() captures *all* the controller's
# volatile protocol state.  Read in repro/core/controller.py alone:
#
# * an attribute is volatile when a method other than __init__ assigns
#   it or calls a mutating container method on it;
# * it is covered when WgttController.snapshot reads self.<attr>, itself
#   or through the methods it calls on self (the per-client record
#   builder, say);
# * deliberately non-checkpointed state carries ``# volatile-ok: reason``
#   on one of its assignment lines.
#
# Classes serialized through to_state() (ClientState) are held to the
# same rule for every attribute they assign.

STATE_FILE = "repro/core/controller.py"
STATE_CLASS = "WgttController"

_MUTATING_METHODS = frozenset(
    {
        "add",
        "append",
        "appendleft",
        "clear",
        "discard",
        "extend",
        "insert",
        "pop",
        "popleft",
        "popitem",
        "remove",
        "setdefault",
        "update",
    }
)

_VOLATILE_OK_RE = re.compile(r"#\s*volatile-ok(?::\s*(?P<reason>.*\S))?")
_SELF_ATTR_RE = re.compile(r"self\.(\w+)")


def _self_attr(node: ast.AST) -> Optional[str]:
    """``self.x`` / ``self.x[...]`` -> ``x``."""
    if isinstance(node, ast.Subscript):
        node = node.value
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _self_reads(function: ast.AST) -> Dict[str, int]:
    """``self.<attr>`` references in ``function`` -> first line."""
    reads: Dict[str, int] = {}
    for node in ast.walk(function):
        if isinstance(node, ast.Attribute) and _self_attr(node):
            reads.setdefault(node.attr, node.lineno)
    return reads


def _reads_through_calls(
    methods: Dict[str, ast.FunctionDef], roots: Sequence[str]
) -> Dict[str, int]:
    """:func:`_self_reads` of ``roots`` and of every method they call on
    ``self``, transitively."""
    reads: Dict[str, int] = {}
    seen: Set[str] = set()
    todo = [name for name in roots if name in methods]
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        for attr, line in _self_reads(methods[name]).items():
            reads.setdefault(attr, line)
            if attr in methods:
                todo.append(attr)
    return reads


def _class_state(
    class_node: ast.ClassDef,
) -> Tuple[Set[str], Dict[str, int], Dict[str, ast.FunctionDef]]:
    """(assigned attrs, volatile attr -> first mutation line, methods)."""
    assigned: Set[str] = set()
    volatile: Dict[str, int] = {}
    methods = {m.name: m for m in class_node.body if isinstance(m, ast.FunctionDef)}
    for method in methods.values():
        in_init = method.name == "__init__"
        for node in ast.walk(method):
            attrs: List[str] = []
            if isinstance(node, ast.Assign):
                attrs = [a for a in map(_self_attr, node.targets) if a is not None]
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                attrs = [a for a in [_self_attr(node.target)] if a is not None]
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _MUTATING_METHODS
            ):
                attr = _self_attr(node.func.value)
                if attr is not None and not in_init:
                    volatile.setdefault(attr, node.lineno)
            assigned.update(attrs)
            if not in_init:
                for attr in attrs:
                    volatile.setdefault(attr, node.lineno)
    return assigned, volatile, methods


def checkpoint_coverage(sources: Sequence[Source]) -> List[Finding]:
    matches = [s for s in sources if s.path.endswith(STATE_FILE)]
    if len(matches) != 1:
        return []  # partial scan: nothing to check
    source = matches[0]
    findings: List[Finding] = []
    allowlist: Set[str] = set()
    for line_no, line in enumerate(source.lines, start=1):
        marker = _VOLATILE_OK_RE.search(line)
        if marker is None:
            continue
        if not (marker.group("reason") or "").strip():
            findings.append(
                Finding(
                    source.path,
                    line_no,
                    "CKP003",
                    "volatile-ok without a reason: deliberately "
                    "non-checkpointed state must say why its loss across "
                    "failover is acceptable (`# volatile-ok: <why>`)",
                )
            )
        attr = _SELF_ATTR_RE.search(line)
        if attr is not None:
            allowlist.add(attr.group(1))

    def ckp001(line: int, message: str) -> Finding:
        return Finding(
            source.path,
            line,
            "CKP001",
            f"{message}, or mark the assignment `# volatile-ok: <why>`",
        )

    for node in ast.walk(source.tree):
        if not isinstance(node, ast.ClassDef):
            continue
        assigned, volatile, methods = _class_state(node)
        if node.name == STATE_CLASS:
            covered = _reads_through_calls(methods, ["snapshot"])
            for attr in sorted(volatile):
                if attr not in covered and attr not in allowlist:
                    findings.append(
                        ckp001(
                            volatile[attr],
                            f"{node.name}.{attr} is mutated outside __init__ "
                            f"but {node.name}.snapshot never reads it, nor does "
                            "a method it calls -- this "
                            "state is lost across failover; read it in "
                            "snapshot() and refill it in restore()",
                        )
                    )
            referenced = _reads_through_calls(methods, ["snapshot", "restore"])
            for attr in sorted(referenced):
                if attr not in assigned and attr not in methods:
                    findings.append(
                        Finding(
                            source.path,
                            referenced[attr],
                            "CKP002",
                            f"{node.name}.snapshot/restore reads self.{attr}, "
                            f"which {node.name} never assigns -- the "
                            "serializer drifted ahead of the state",
                        )
                    )
        elif "to_state" in methods:
            # Everything a to_state class assigns is protocol state.
            serialized = _self_reads(methods["to_state"])
            for attr in sorted(assigned):
                if attr not in serialized and attr not in allowlist:
                    findings.append(
                        ckp001(
                            volatile.get(attr, node.lineno),
                            f"{node.name}.{attr} is never read by "
                            f"{node.name}.to_state -- this field is lost "
                            "across checkpoint/restore; serialize it in "
                            "to_state/from_state",
                        )
                    )
    return findings


# -- MET001: canonical metric keys ----------------------------------------
#
# MetricsRegistry keys every value by ``name{label=value}`` with sorted
# labels; trace comparisons and the soak SLO guard key on that string.
# A hand-written key literal that is not canonical breaks it silently.

_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_.]*$")
_KEYLIKE_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_.]*\{.*\}$")
_KEY_RE = re.compile(r"^(?P<name>[A-Za-z_][A-Za-z0-9_.]*)\{(?P<labels>[^{}]*)\}$")


def _key_problem(literal: str) -> str:
    """Why a ``name{...}`` literal is not canonical; '' when it is."""
    match = _KEY_RE.match(literal)
    if match is None:
        return "does not parse as name{label=value,...}"
    names: List[str] = []
    for part in match.group("labels").split(","):
        if "=" not in part:
            return f"label {part!r} is not a key=value pair"
        key, value = part.split("=", 1)
        if not re.match(r"^[A-Za-z_]\w*$", key):
            return f"label name {key!r} is not an identifier"
        if not value:
            return f"label {key!r} has an empty value"
        if value.startswith(" "):
            return f"label {part!r} carries whitespace"
        names.append(key)
    if names != sorted(names):
        return f"labels {names} are not sorted -- metric_key() would produce {sorted(names)}"
    return ""


def metric_names(sources: Sequence[Source]) -> List[Finding]:
    findings: List[Finding] = []
    for source in sources:
        for node in ast.walk(source.tree):
            if isinstance(node, ast.Call):
                func = node.func
                method = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                name = str_literal(node.args[0]) if node.args else None
                # Dynamic names are legal (collector loops).
                if method == "metric_key" and name is not None and not _NAME_RE.match(name):
                    findings.append(
                        Finding(
                            source.path,
                            node.lineno,
                            "MET001",
                            f"metric name {name!r} is not a bare identifier: "
                            "labels belong in keyword arguments, e.g. "
                            'metric_key("drops", ap=ap_id)',
                        )
                    )
            literal = str_literal(node)
            if literal is not None and _KEYLIKE_RE.match(literal):
                problem = _key_problem(literal)
                if problem:
                    findings.append(
                        Finding(
                            source.path,
                            node.lineno,
                            "MET001",
                            f"metric key literal {literal!r} is not canonical: "
                            f"{problem}; build keys with "
                            "repro.obs.metrics.metric_key()",
                        )
                    )
    return findings
