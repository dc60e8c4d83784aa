"""docs/protocol.md's "Backhaul message kinds" table is the dispatch
tables, and every kind a filter names is one somebody dispatches."""

import re
from pathlib import Path

from repro.core.access_point import WgttAccessPoint
from repro.core.config import WgttConfig
from repro.faults.plan import ADVERSARY_KIND_GROUPS
from repro.net.backhaul import _DETAIL_KINDS, RELIABLE_KINDS
from repro.scenarios.testbed import Testbed, TestbedConfig
from repro.shard.handoff import HANDOFF_ACK_KIND, HANDOFF_KIND

PROTOCOL_MD = Path(__file__).resolve().parents[1] / "docs" / "protocol.md"


def documented_rows():
    """kind -> its table row, from the section's first column."""
    text = PROTOCOL_MD.read_text()
    section = text.split("## Backhaul message kinds")[1].split("\n## ")[0]
    rows = {}
    for line in section.splitlines():
        match = re.match(r"\| `([a-z-]+)` \|", line)
        if match:
            assert match.group(1) not in rows, f"duplicate row {match.group(1)}"
            rows[match.group(1)] = line
    return rows


def test_kinds_table_is_the_union_of_the_dispatch_tables():
    tb = Testbed(TestbedConfig(seed=3, wgtt=WgttConfig(ha_enabled=True)))
    dispatched = (
        set(WgttAccessPoint.KINDS)
        | set(tb.controller.handlers)
        | set(tb.standby.handlers)
        | set(tb.standby.warm_handlers)
        | {HANDOFF_KIND, HANDOFF_ACK_KIND}
        | {"assoc-update", "ft-forward"}  # the 802.11r baseline's two
    )
    rows = documented_rows()
    assert set(rows) == dispatched
    # The guards column names every counter of the AP table's rows.
    for kind, (_, *counters) in WgttAccessPoint.KINDS.items():
        for counter in filter(None, counters):
            assert f"`{counter}`" in rows[kind], (kind, counter)
    # A filter naming a kind nothing dispatches silently matches nothing.
    named = set(RELIABLE_KINDS) | set(_DETAIL_KINDS)
    for group in ADVERSARY_KIND_GROUPS:
        named |= set(group or ())
    assert named <= dispatched, sorted(named - dispatched)
