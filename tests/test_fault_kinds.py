"""Every fault kind, from the one table (``FAULT_CLASSES``): each
opens and closes once per event, windows close by their own handle,
the plans the ledger and the gates draw are pinned, and
docs/robustness.md's kind table is the classes."""

import hashlib
import re
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.core.config import WgttConfig
from repro.experiments.ext_adversary import adversary_plan
from repro.experiments.ext_faults import (
    CRASH_RATES_PER_S,
    PARTITION_DURATIONS_S,
    _plan_for,
)
from repro.faults import (
    FAULT_CLASSES,
    CsiBlackout,
    FaultInjector,
    FaultPlan,
    GrayFailure,
    LinkJitter,
)
from repro.net.backhaul import EthernetBackhaul
from repro.scenarios.testbed import Testbed, TestbedConfig
from repro.sim import Simulator
from repro.sim.rng import RngRegistry

MS = 1_000
APS = [f"ap{i}" for i in range(8)]
ROBUSTNESS_MD = Path(__file__).resolve().parents[1] / "docs" / "robustness.md"


@pytest.mark.parametrize("kind", FAULT_CLASSES, ids=lambda kind: kind.__name__)
def test_every_kind_opens_and_closes_once_per_event(kind):
    """Drawn at a non-zero rate and armed on a standby-equipped
    testbed, each event logs its opening and its closing action once
    and leaves nothing behind."""
    rng = RngRegistry(5).spawn("every-kind")
    lasting = "down_us" if "down_us" in kind.drawn else "duration_us"
    plan = FaultPlan.random(
        rng, APS, 2_000 * MS, {kind: 4.0},
        overrides={kind: {lasting: 20 * MS}},
    )
    assert len(plan) >= 2 and plan.of(kind) == plan.events
    expected = dict.fromkeys(kind.actions, len(plan))
    testbed = Testbed(
        TestbedConfig(
            seed=5, wgtt=WgttConfig(ha_enabled=True), fault_plan=plan
        )
    )
    testbed.run_seconds(2.5)
    log = testbed.fault_injector.events
    assert Counter(action for _, action, _ in log) == expected
    opened = [(t, s) for t, action, s in log if action == kind.actions[0]]
    assert opened == [(e.at_us, e.subject) for e in plan]
    assert testbed.backhaul._faults is None
    for ap in testbed.wgtt_aps.values():
        assert ap.alive and ap.csi_suppressed == 0
    assert all(c.alive for shard in testbed.shards for c in shard.controllers())


def test_overlapping_windows_close_by_their_own_handle():
    """[100, 300) and [200, 600) ms on one target: the first close used
    to end the second window too (gray keyed by node, jitter by link,
    CSI suppression a bool), so at 450 ms all three read off."""
    sim = Simulator()
    backhaul = EthernetBackhaul(sim)
    arrivals = []
    for node in ("controller", "ap0", "ap1"):
        backhaul.register(
            node, lambda s, k, p, node=node: arrivals.append((node, p))
        )
    ap0 = SimpleNamespace(csi_suppressed=0)
    rig = SimpleNamespace(
        sim=sim, backhaul=backhaul, rng=RngRegistry(1),
        wgtt_aps={"ap0": ap0, "ap1": None},
    )
    spans = ((100 * MS, 200 * MS), (200 * MS, 400 * MS))
    plan = FaultPlan(
        [
            event
            for at_us, duration_us in spans
            for event in (
                GrayFailure(
                    at_us, duration_us, "ap1", extra_latency_us=0, loss_rate=1.0
                ),
                LinkJitter(
                    at_us, duration_us, "controller", "ap0", jitter_us=5_000
                ),
                CsiBlackout(at_us, duration_us, "ap0"),
            )
        ]
    )
    FaultInjector(rig, plan).arm()

    def probe():
        arrivals.clear()
        before = backhaul.stats.gray_dropped
        backhaul.send("controller", "ap1", "data", "to the gray node")
        for i in range(50):
            backhaul.send_control("controller", "ap0", "data", i)
        sim.run(until_us=sim.now + 20 * MS)
        at_ap0 = [p for node, p in arrivals if node == "ap0"]
        return (
            backhaul.stats.gray_dropped - before,
            at_ap0 == list(range(50)),  # jitter off: in order
            ap0.csi_suppressed,
        )

    sim.run(until_us=250 * MS)
    assert probe() == (1, False, 2)  # both windows open
    sim.run(until_us=450 * MS)
    assert probe() == (1, False, 1)  # the first closed; the second holds
    sim.run(until_us=650 * MS)
    assert probe() == (0, True, 0)
    assert ("ap1", "to the gray node") in arrivals
    assert backhaul._faults is None


# ----------------------------------------------------------------------
# drawn plans are pinned
# ----------------------------------------------------------------------

#: sha256 of ``"\n".join(plan.describe())`` for every plan the ledger's
#: ``soak_churn`` cells (seeds 1 and 101) and the seed-3 gates draw.  A
#: change here redraws what those runs execute: their digests move, and
#: that has to be announced, not discovered.
PINNED = {
    "soak/seed100": "abdaa334654dfcc32357d8f668db1e8c989c54f4deb0bb4d9b134ffc4659b196",
    "soak/seed101": "0bfda4a6332a4b9f2a8aef6817b473120b1b5f314e8f2a0244e1b927c9435ada",
    "soak/seed102": "bba2e6d542ba92ba434a094a3a5327854c7dfdbe8f217b0ccde031d58bd54e0f",
    "soak/seed103": "e7595b0ae72a6b375e4e5f733b3ea0f569c5625a596e2017d3635def3fdda37b",
    "soak/seed104": "a46408d81b07d39858b63eef91d8e33824ae84aca2c9ec6e01cfe4373d1280d7",
    "soak/seed10100": "f7f139f3285906655abfd0f4411ca2fe35586051d4f8177a30139a86de79947c",
    "soak/seed10101": "b4b9c2242c846deff09f2182aa8acd009bd5f0bd93fb17881d20d6050889cfd1",
    "soak/seed10102": "606010953d41396c7f9b6952d580f3a35f704122485582f20363cc9c439e2780",
    "soak/seed10103": "08ed7ffe254b86e9184abe4f4069d338fbce02cc5033842190d4ad242360d4b2",
    "soak/seed10104": "791456fc5186a548fe12b47a3ee00af89e755e9322f75e543bca9484561cf15b",
    "ext_faults/0.1/0.0": "a5baea0544c1c489ad452a0f5060b52db2445307585fe400ca1f5ef6c4a85b92",
    "ext_faults/0.1/0.2": "8c9beeb1f6ac849e021071e42e42ccda1d7c56c7f2130a540403923128845277",
    "ext_faults/0.3/0.0": "a5baea0544c1c489ad452a0f5060b52db2445307585fe400ca1f5ef6c4a85b92",
    "ext_faults/0.3/0.2": "8c9beeb1f6ac849e021071e42e42ccda1d7c56c7f2130a540403923128845277",
    "ext_adversary/5000000": "bfac7a9dc63db18c031d78206ea0e5bc943ccaaa7b5057b38555c28dcf656bf4",
    "ext_adversary/6000000": "f75e612af73bdef1c66200cf5669ad0e1a362aea6762b728011193399b6dc37c",
}


def drawn_plans():
    # The soak harness's own call (soak/harness.py), at the ledger's
    # chaos intensity and cell length (benchmarks/ledger/workloads.py).
    for seed in (*range(100, 105), *range(10100, 10105)):
        yield f"soak/seed{seed}", FaultPlan.soak(
            RngRegistry(seed).spawn("soak-faults"), APS, 6_400 * MS,
            intensity=4.0, adversary_intensity=4.0,
        )
    for crash_rate in CRASH_RATES_PER_S:
        for partition_s in PARTITION_DURATIONS_S:
            yield f"ext_faults/{crash_rate}/{partition_s}", _plan_for(
                3, APS, 8_000 * MS, crash_rate, partition_s
            )
    for duration_us in (5_000 * MS, 6_000 * MS):  # --smoke, --quick
        yield f"ext_adversary/{duration_us}", adversary_plan(3, APS, duration_us)


def test_drawn_plans_are_pinned():
    drawn = {
        label: hashlib.sha256("\n".join(plan.describe()).encode()).hexdigest()
        for label, plan in drawn_plans()
    }
    assert drawn == PINNED


# ----------------------------------------------------------------------
# docs/robustness.md's fault table is the classes
# ----------------------------------------------------------------------


def documented_rows():
    """class name -> its row's cells, from the "Fault model" table."""
    section = ROBUSTNESS_MD.read_text().split("## Fault model")[1].split("\n## ")[0]
    rows = {}
    for line in section.splitlines():
        match = re.match(r"\| `([A-Za-z]+)` \|", line)
        if match:
            assert match.group(1) not in rows, f"duplicate row {match.group(1)}"
            rows[match.group(1)] = [c.strip() for c in line.strip("|").split("|")]
    return rows


def test_fault_table_is_the_classes():
    rows = documented_rows()
    assert list(rows) == [kind.__name__ for kind in FAULT_CLASSES]
    for kind in FAULT_CLASSES:
        _, acts_on, family, drawn, _ = rows[kind.__name__]
        assert acts_on == kind.acts_on
        # A dagger marks the kinds whose open window draws per message.
        dagger = " †" if getattr(kind, "draws", False) else ""
        assert family == f"`faults/{kind.stream}`{dagger}"
        assert drawn == ", ".join(f"`{k}={v}`" for k, v in kind.drawn.items())
