"""DESIGN.md held to the tree: §2's inventory names every package under
``src/repro``, and every protocol constant the document quotes is the
number the code runs with."""

import re
from pathlib import Path

import pytest

from repro.baselines.enhanced_80211r import RoamingConfig, stock_80211r_config
from repro.core.config import WgttConfig
from repro.mac.frames import MAX_AMPDU_AIRTIME_US, MAX_AMPDU_SUBFRAMES
from repro.mac.wifi_device import BEACON_INTERVAL_US
from repro.scenarios.testbed import TestbedConfig
from repro.sim.engine import MS, SECOND

ROOT = Path(__file__).resolve().parents[1]


def inventory_packages():
    text = (ROOT / "DESIGN.md").read_text()
    section = text.split("## 2. System inventory")[1].split("\n## ")[0]
    return set(re.findall(r"\| `(repro\.[a-z_]+)` \|", section))


def test_inventory_names_every_package():
    packages = {
        f"repro.{init.parent.name}"
        for init in (ROOT / "src" / "repro").glob("*/__init__.py")
    }
    documented = inventory_packages()
    assert packages - documented == set(), "missing from DESIGN.md §2"
    assert documented - packages == set(), "DESIGN.md §2 names no package"


_WGTT = WgttConfig()

#: name -> (pattern capturing the number DESIGN.md quotes, the tree's
#: value in the unit the document uses).  Every match must agree.
QUOTED_CONSTANTS = {
    "selection window W": (r"W = (\d+) ms", _WGTT.selection_window_us / MS),
    "WGTT time hysteresis": (
        r"(\d+) ms time hysteresis", _WGTT.time_hysteresis_us / MS
    ),
    "switch retransmit": (
        r"(\d+) ms retransmit", _WGTT.switch_timeout_us / MS
    ),
    "index width": (r"(\d+)-bit (?:packet )?index", _WGTT.index_bits),
    "NIC drain": (r"(\d+) ms NIC", _WGTT.nic_drain_us / MS),
    "baseline beacons": (r"(\d+) ms beacons", BEACON_INTERVAL_US / MS),
    "baseline hysteresis": (
        r"(\d+) s (?:time )?hysteresis",
        RoamingConfig().time_hysteresis_us / SECOND,
    ),
    "stock 802.11r history": (
        r"\((\d+) s RSSI history\)",
        stock_80211r_config().min_history_us / SECOND,
    ),
    "effective beamwidth": (
        r"Effective beamwidth (\d+)°", TestbedConfig().ap_beamwidth_deg
    ),
    "A-MPDU subframes": (
        r"`MAX_AMPDU_SUBFRAMES` = (\d+)", MAX_AMPDU_SUBFRAMES
    ),
    "A-MPDU airtime": (
        r"`MAX_AMPDU_AIRTIME_US` = (\d+) ms", MAX_AMPDU_AIRTIME_US / MS
    ),
}


@pytest.mark.parametrize("name", sorted(QUOTED_CONSTANTS))
def test_quoted_constant_matches_the_tree(name):
    pattern, live = QUOTED_CONSTANTS[name]
    text = " ".join((ROOT / "DESIGN.md").read_text().split())
    quoted = [float(number) for number in re.findall(pattern, text)]
    assert quoted, f"DESIGN.md no longer quotes the {name}"
    assert set(quoted) == {live}, f"DESIGN.md quotes {quoted}, tree has {live}"
