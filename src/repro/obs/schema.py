"""The trace event schema and a JSONL validator.

``python -m repro.obs.schema trace.jsonl`` validates an exported trace
file record by record (CI's obs-smoke job runs exactly this).  The
schema is deliberately small and stdlib-checked — no jsonschema
dependency:

======== ======== ======================================================
field    type     meaning
======== ======== ======================================================
seq      int      global emission order (unique per file)
ts       int      simulation time, microseconds
kind     str      "event" (instant) or "span" (has an end)
sub      str      emitting subsystem ("controller", "ap", "mac", ...)
name     str      event name ("switch", "stop-processing", "tx", ...)
track    str|null rendering lane ("switch/client0", "ha", ...)
tags     object   entity tags (ap, client, switch_id, pkt index, ...)
end      int      spans only: end time, >= ts
end_seq  int      spans only: end emission order, > seq
======== ======== ======================================================
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, Iterable, List, Optional, Set, Tuple

__all__ = [
    "EVENT_KINDS",
    "TRACE_NAMES",
    "validate_record",
    "validate_lines",
    "main",
]

EVENT_KINDS = ("event", "span")

#: Every event/span name any subsystem emits, with the subsystems
#: allowed to emit it.  This is the other half of the emit-site
#: contract: the TRC001/TRC002 checks in ``tests/lint.py`` (run by
#: ``tests/test_analysis.py``) statically cross-check the emit sites
#: in ``src/`` against this catalog in both directions, so an event
#: name cannot exist only at its emit site (invisible to consumers) or
#: only here (a contract nothing fulfills).  Keep it sorted; add the
#: name in the same change that adds the emit site.
TRACE_NAMES: Dict[str, Tuple[str, ...]] = {
    "air-tx": ("medium",),
    "ampdu-tx": ("mac",),
    "ap-crash": ("ap",),
    "ap-dead": ("controller",),
    "ap-recovered": ("controller",),
    "ap-restart": ("ap",),
    "ba-forward": ("ap",),
    "ba-timeout": ("mac",),
    "checkpoint-restore": ("ha",),
    "checkpoint-ship": ("ha",),
    "corrupt-drop": ("backhaul",),
    "ctrl-crash": ("controller",),
    "ctrl-restart": ("controller",),
    "cyclic-insert": ("ap",),
    "downlink-lost": ("ha",),
    "dup-tx": ("backhaul",),
    "failover": ("controller",),
    "failover-initiated": ("controller",),
    "failover-no-candidate": ("controller",),
    "failover-processing": ("ap",),
    "fault": ("faults",),
    "fault-drop": ("backhaul",),
    "gray-drop": ("backhaul",),
    "hold-enter": ("ap",),
    "hold-exit": ("ap",),
    "invariant-violation": ("invariants",),
    "loss-drop": ("backhaul",),
    "oneway-drop": ("backhaul",),
    "promotion": ("ha",),
    "rehome": ("ap",),
    "replay-tx": ("backhaul",),
    "serving-relinquish": ("ap",),
    "serving-update": ("controller",),
    "shard-handoff-abandon": ("shard",),
    "shard-handoff-ack": ("shard",),
    "shard-handoff-in": ("shard",),
    "shard-handoff-out": ("shard",),
    "shard-handoff-retry": ("shard",),
    "stale-ack": ("controller",),
    "stale-ctrl-epoch": ("ap",),
    "stale-serving-claim": ("controller",),
    "stale-sta-sync": ("controller",),
    "stale-switch-msg": ("ap",),
    "start-processing": ("ap",),
    "stop-processing": ("ap",),
    "switch": ("controller",),
    "switch-retry": ("controller",),
    "takeover-announce": ("ha",),
    "tx": ("backhaul",),
    "uplink-deliver": ("testbed",),
}

#: field -> required python type for every record.
_REQUIRED: Dict[str, type] = {
    "seq": int,
    "ts": int,
    "kind": str,
    "sub": str,
    "name": str,
    "tags": dict,
}


def validate_record(record: object, check_names: bool = True) -> List[str]:
    """Problems with one decoded record; empty list when valid.

    ``check_names`` additionally holds ``(sub, name)`` to the
    :data:`TRACE_NAMES` catalog — the default, since every trace this
    repo produces must come from a cataloged emit site.  Pass False
    when validating traces from a build with out-of-tree emitters.
    """
    problems: List[str] = []
    if not isinstance(record, dict):
        return [f"record is {type(record).__name__}, not an object"]
    for field, expected in _REQUIRED.items():
        value = record.get(field)
        if not isinstance(value, expected) or isinstance(value, bool):
            problems.append(f"field {field!r} must be {expected.__name__}")
    if "track" not in record:
        problems.append("field 'track' missing (str or null)")
    elif record["track"] is not None and not isinstance(record["track"], str):
        problems.append("field 'track' must be str or null")
    if problems:
        return problems
    if record["kind"] not in EVENT_KINDS:
        problems.append(f"kind {record['kind']!r} not in {EVENT_KINDS}")
    if check_names:
        allowed = TRACE_NAMES.get(record["name"])
        if allowed is None:
            problems.append(
                f"name {record['name']!r} not in the TRACE_NAMES catalog"
            )
        elif record["sub"] not in allowed:
            problems.append(
                f"name {record['name']!r} emitted by sub {record['sub']!r}, "
                f"catalog allows {sorted(allowed)}"
            )
    if record["ts"] < 0 or record["seq"] < 0:
        problems.append("ts/seq must be non-negative")
    if record["kind"] == "span":
        end, end_seq = record.get("end"), record.get("end_seq")
        if not isinstance(end, int) or isinstance(end, bool):
            problems.append("span field 'end' must be int")
        elif end < record["ts"]:
            problems.append("span ends before it begins")
        if not isinstance(end_seq, int) or isinstance(end_seq, bool):
            problems.append("span field 'end_seq' must be int")
        elif end_seq <= record["seq"]:
            problems.append("span end_seq must exceed seq")
    else:
        for forbidden in ("end", "end_seq"):
            if forbidden in record:
                problems.append(f"instant event carries {forbidden!r}")
    return problems


def validate_lines(
    lines: Iterable[str], check_names: bool = True
) -> Tuple[int, List[str]]:
    """Validate a JSONL stream; returns (record_count, problems)."""
    problems: List[str] = []
    seen_seqs: Set[int] = set()
    count = 0
    for line_no, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        count += 1
        try:
            record = json.loads(line)
        except json.JSONDecodeError as error:
            problems.append(f"line {line_no}: not JSON ({error.msg})")
            continue
        for problem in validate_record(record, check_names=check_names):
            problems.append(f"line {line_no}: {problem}")
        if isinstance(record, dict) and isinstance(record.get("seq"), int):
            if record["seq"] in seen_seqs:
                problems.append(f"line {line_no}: duplicate seq {record['seq']}")
            seen_seqs.add(record["seq"])
    return count, problems


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.schema",
        description="validate a JSONL trace export against the event schema",
    )
    parser.add_argument("path", help="trace .jsonl file")
    args = parser.parse_args(argv)
    with open(args.path) as handle:
        count, problems = validate_lines(handle)
    if problems:
        for problem in problems:
            print(f"INVALID {problem}", file=sys.stderr)
        return 1
    print(f"OK {count} records valid ({args.path})")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
